// Tree-walking interpreter for the embedded Lua-subset language.
#pragma once

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "script/ast.hpp"
#include "script/value.hpp"

namespace moongen::script {

struct Chunk;
struct VmClosure;
class Vm;

/// Lexical environment: locals of one scope plus a parent chain ending in
/// the interpreter's global table.
class Environment : public std::enable_shared_from_this<Environment> {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  /// Declares a local in this scope (shadows outer scopes).
  void declare(const std::string& name, Value value) { values_[name] = std::move(value); }

  /// Looks `name` up through the scope chain; nil if absent everywhere.
  [[nodiscard]] Value get(const std::string& name) const;

  /// Assigns to the nearest scope declaring `name`; returns false when no
  /// scope declares it (the caller then writes a global).
  bool assign(const std::string& name, const Value& value);

  /// Pointer to this scope's own entry for `name` (no parent walk), or
  /// nullptr. std::map nodes are stable, so the VM caches these pointers.
  Value* find_local(const std::string& name) {
    const auto it = values_.find(name);
    return it != values_.end() ? &it->second : nullptr;
  }

  /// Reference to this scope's entry for `name`, creating a nil one.
  Value& slot(const std::string& name) { return values_[name]; }

  /// Drops every local and the parent link (breaks closure cycles when
  /// the owning interpreter is destroyed).
  void clear() {
    std::map<std::string, Value> doomed;
    doomed.swap(values_);
    parent_.reset();
  }

 private:
  std::map<std::string, Value> values_;
  std::shared_ptr<Environment> parent_;
};

class Interpreter {
 public:
  /// Creates an interpreter over a parsed chunk with the base library
  /// (print, math, string helpers, ipairs/pairs, tostring/tonumber...).
  explicit Interpreter(std::shared_ptr<const Program> program);
  /// Out of line (Vm is incomplete here). Empties every scope a script
  /// closure captured: a function stored in the scope it closes over is a
  /// reference cycle that would otherwise outlive the interpreter.
  ~Interpreter();

  /// Executes the top-level block (declares functions, runs statements).
  /// By default this compiles to bytecode and runs on the register VM;
  /// set_tree_walk(true) selects the tree-walking reference interpreter
  /// instead.
  void run();

  /// Engine selection. The tree-walker is the reference semantics; the VM
  /// is the default fast path (see DESIGN.md section 11).
  void set_tree_walk(bool tree_walk) { tree_walk_ = tree_walk; }
  [[nodiscard]] bool tree_walk() const { return tree_walk_; }

  /// Trace specialization: the VM's hot-loop tier (DESIGN.md section 13).
  /// On by default; set_trace(false) keeps the generic bytecode VM only.
  /// Irrelevant when tree-walking.
  void set_trace(bool on) { trace_ = on; }
  [[nodiscard]] bool trace_enabled() const { return trace_; }
  /// Back edges a loop anchor must see before recording starts. The
  /// default amortizes recording cost; tests lower it to force the trace
  /// tier onto short loops.
  void set_trace_threshold(std::uint32_t n) { trace_threshold_ = n; }
  [[nodiscard]] std::uint32_t trace_threshold() const { return trace_threshold_; }

  /// --- Trace-specializer support (specializer.cpp) -----------------------
  /// The engine behind math.random/math.randomseed. Specialized kernels
  /// draw from it directly so the random stream stays byte-identical with
  /// the generic engines.
  [[nodiscard]] std::mt19937_64* math_rng() const { return math_rng_.get(); }
  /// Identity of the installed math.random native: kernels folding random
  /// draws must verify the call site still resolves to exactly this
  /// function (table version checks miss in-place reassignment).
  [[nodiscard]] const NativeFunction* math_random_native() const { return math_random_.get(); }
  /// Statement-budget accounting for bulk specialized iterations: kernels
  /// bound their iteration count by the remaining budget, tick it in one
  /// add, and leave the exhaustion throw to the generic loop code.
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }
  [[nodiscard]] std::uint64_t steps_taken() const { return steps_; }
  void add_steps(std::uint64_t n) { steps_ += n; }
  /// Global environment slot for `name`, or nullptr when absent (stable
  /// std::map node, same contract as the VM's global ICs).
  Value* global_slot_if_exists(const std::string& name) { return globals_->find_local(name); }
  /// The VM, if one has been created (introspection: installed traces).
  [[nodiscard]] Vm* vm_if_created() const { return vm_.get(); }

  /// Invokes a compiled closure (used by VM closure wrappers, so compiled
  /// functions stay callable from natives and from the tree-walker).
  std::vector<Value> call_compiled(const std::shared_ptr<VmClosure>& closure,
                                   std::vector<Value>& args);

  /// Calls a global function by name (the `master`/slave entry points).
  std::vector<Value> call_global(const std::string& name, std::vector<Value> args);

  /// Calls any callable value.
  std::vector<Value> call(const Value& callee, std::vector<Value> args, int line = 0);

  /// Registers a host value in the global scope (binding modules).
  void set_global(const std::string& name, Value value);
  [[nodiscard]] Value get_global(const std::string& name) const;

  /// Shared program (for spawning further interpreters on the same chunk).
  [[nodiscard]] const std::shared_ptr<const Program>& program() const { return program_; }

  /// Statement execution budget: aborts runaway scripts in tests. 0 = off.
  void set_step_limit(std::uint64_t limit) { step_limit_ = limit; }

  /// 1-based element access used by ipairs(): tables and userdata with a
  /// numeric-index hook. Inline: the VM's open-coded iterator calls this
  /// once per element.
  Value index_for_iteration(const Value& container, double index) {
    if (container.is_table()) return container.as_table()->get(Table::Key{index});
    if (container.is_userdata()) {
      auto& ud = *container.as_userdata();
      if (ud.methods()->index_number != nullptr) {
        return ud.methods()->index_number(*this, ud, index);
      }
    }
    return Value();
  }

 private:
  struct Flow {
    enum class Kind { kNormal, kBreak, kReturn } kind = Kind::kNormal;
    std::vector<Value> values;
  };

  Flow execute_block(const Block& block, const std::shared_ptr<Environment>& env);
  Flow execute(const Stmt& stmt, const std::shared_ptr<Environment>& env);

  Value evaluate(const Expr& expr, const std::shared_ptr<Environment>& env);
  std::vector<Value> evaluate_multi(const Expr& expr, const std::shared_ptr<Environment>& env);
  std::vector<Value> evaluate_list(const std::vector<ExprPtr>& exprs,
                                   const std::shared_ptr<Environment>& env);

  /// A script closure over `env`; remembers `env` for ~Interpreter.
  Value make_closure(const FunctionDecl& decl, const std::shared_ptr<Environment>& env);

  Value binary_op(int op, const Expr& lhs_expr, const Expr& rhs_expr,
                  const std::shared_ptr<Environment>& env, int line);
  Value index_value(const Value& object, const Value& key, int line);
  void assign_target(const Expr& target, const Value& value,
                     const std::shared_ptr<Environment>& env);

  void install_base_library();
  /// Statement budget tick — inline: both engines pay it per statement.
  void count_step(int line) {
    if (step_limit_ != 0 && ++steps_ > step_limit_) step_budget_exceeded(line);
  }
  [[noreturn]] void step_budget_exceeded(int line);

  /// Compiles the program once (lazily) and returns the owned VM.
  void ensure_compiled();
  Vm& vm();

  friend class Vm;  // the VM reuses call/index_value/count_step/globals_

  std::shared_ptr<const Program> program_;
  std::shared_ptr<Environment> globals_;
  /// Scopes captured by script closures (weak: most die with their
  /// closures; expired entries are pruned as the list grows).
  std::vector<std::weak_ptr<Environment>> captured_envs_;
  std::size_t prune_captured_at_ = 64;
  std::uint64_t step_limit_ = 0;
  std::uint64_t steps_ = 0;
  bool tree_walk_ = false;
  bool trace_ = true;
  std::uint32_t trace_threshold_ = 56;
  std::shared_ptr<const Chunk> chunk_;
  std::unique_ptr<Vm> vm_;
  /// Installed by install_base_library (see math_rng/math_random_native).
  std::shared_ptr<std::mt19937_64> math_rng_;
  std::shared_ptr<NativeFunction> math_random_;
};

/// Convenience: number/string/table argument extraction with diagnostics.
double arg_number(const std::vector<Value>& args, std::size_t index, const char* what);
std::string arg_string(const std::vector<Value>& args, std::size_t index, const char* what);
std::shared_ptr<Table> arg_table(const std::vector<Value>& args, std::size_t index,
                                 const char* what);
std::shared_ptr<UserData> arg_userdata(const std::vector<Value>& args, std::size_t index,
                                       const char* what, const MethodTable* expected = nullptr);

/// Wraps a NativeFn into a Value.
Value make_native(std::string name, NativeFn fn);

/// Non-short-circuit binary operator semantics (==, ~=, .., relational,
/// arithmetic) shared by the interpreter, the VM and the compiler's
/// constant folder. `op` is the lexer TokenType.
Value apply_binary_op(int op, const Value& lhs, const Value& rhs, int line);

}  // namespace moongen::script
