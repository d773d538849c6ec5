// Reference evaluator of the embedded Lua-subset language: a tree-walker
// over the AST, kept as the test oracle for the bytecode VM.
//
// Production runs every script on the VM (script/vm.hpp). The walker
// defines what the VM must compute by the most direct reading of the
// language: the differential tests in tests/script_test.cpp run each
// script on the walker, on the generic VM and on the trace tier and
// require byte-identical results, output, error messages and statement
// counts, and bench/ablation_scripting measures the VM against it.
//
// The walker binds to an Interpreter as the VM does and shares its
// runtime: the global table, the natives, index_value, count_step and
// apply_binary_op. Top-level locals are globals, as the compiler also
// treats them. Its closures are NativeFunctions named after their
// declaration, like the VM's, so type(), tostring() and equality behave
// the same on both engines.
//
// Lifetimes. A closure holds the scope it was defined in, and that scope
// (or one below it) usually holds the closure, so `local function f(x)
// return x end` inside a function is a reference cycle. The walker keeps a
// weak list of every scope a closure captured and empties them in
// ~TreeWalker, so no scope outlives the walker and the ASan/LeakSanitizer
// build runs the script tests clean. A closure must therefore not be
// called after its walker is gone.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "script/ast.hpp"
#include "script/interpreter.hpp"
#include "script/value.hpp"

namespace moongen::script::oracle {

/// One scope's locals; a null scope pointer stands for the host's globals.
class Environment;

class TreeWalker {
 public:
  explicit TreeWalker(Interpreter& host) : host_(host) {}
  /// Empties every scope a closure captured (see Lifetimes above).
  ~TreeWalker();

  TreeWalker(const TreeWalker&) = delete;
  TreeWalker& operator=(const TreeWalker&) = delete;

  /// Executes the host program's top-level block (declares functions, runs
  /// statements), as Interpreter::run() does on the VM.
  void run();

 private:
  using Scope = std::shared_ptr<Environment>;

  struct Flow {
    enum class Kind { kNormal, kBreak, kReturn } kind = Kind::kNormal;
    std::vector<Value> values;
  };

  Flow execute_block(const Block& block, const Scope& env);
  Flow execute(const Stmt& stmt, const Scope& env);

  Value evaluate(const Expr& expr, const Scope& env);
  std::vector<Value> evaluate_multi(const Expr& expr, const Scope& env);
  std::vector<Value> evaluate_list(const std::vector<ExprPtr>& exprs, const Scope& env);

  /// A closure over `env`; remembers `env` for ~TreeWalker.
  Value make_closure(const FunctionDecl& decl, const Scope& env);
  std::vector<Value> call_closure(const FunctionDecl& decl, const Scope& closure,
                                  std::vector<Value>& args);

  Value binary_op(int op, const Expr& lhs_expr, const Expr& rhs_expr, const Scope& env,
                  int line);
  void assign_target(const Expr& target, const Value& value, const Scope& env);

  /// Name resolution through the scope chain, ending in the host's globals.
  Value lookup(const Scope& env, const std::string& name) const;
  void declare(const Scope& env, const std::string& name, Value value);
  void assign(const Scope& env, const std::string& name, const Value& value);

  Interpreter& host_;
  /// Scopes captured by closures (weak: most die with their closures;
  /// expired entries are pruned as the list grows).
  std::vector<std::weak_ptr<Environment>> captured_envs_;
  std::size_t prune_captured_at_ = 64;
};

}  // namespace moongen::script::oracle
