// Runtime of the embedded Lua-subset language: the global table, the base
// library and the bytecode VM (with its trace tier) that runs every script.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/field_modifier.hpp"
#include "script/ast.hpp"
#include "script/value.hpp"
#include "stats/mt19937_64.hpp"

namespace moongen::script {

struct Chunk;
struct VmClosure;
class Vm;

class Interpreter {
 public:
  /// Creates an interpreter over a parsed chunk with the base library
  /// (print, math, string helpers, ipairs/pairs, tostring/tonumber...).
  explicit Interpreter(std::shared_ptr<const Program> program);
  /// Out of line (Vm is incomplete here). Breaks the cycles of closures
  /// that capture themselves (Vm::release_captured_cells).
  ~Interpreter();

  /// Executes the top-level block (declares functions, runs statements):
  /// compiles the chunk to bytecode once and runs it on the register VM.
  void run();

  /// Trace specialization: the VM's hot-loop tier (DESIGN.md section 13).
  /// On by default; set_trace(false) keeps the generic bytecode VM only.
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
  /// the generic VM.
  [[nodiscard]] stats::Mt19937_64* math_rng() const { return math_rng_.get(); }
  /// Identity of the installed math.random native: kernels folding random
  /// draws must verify the call site still resolves to exactly this
  /// function (table version checks miss in-place reassignment).
  [[nodiscard]] const NativeFunction* math_random_native() const { return math_random_.get(); }
  /// The modifier program a field kernel binds on entry: rebinding keeps
  /// its storage, so the steady state of a kernel loop allocates nothing.
  core::ModifierProgram& field_program() { return field_program_; }
  /// Statement-budget accounting for bulk specialized iterations: kernels
  /// bound their iteration count by the remaining budget, tick it in one
  /// add, and leave the exhaustion throw to the generic loop code.
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }
  [[nodiscard]] std::uint64_t steps_taken() const { return steps_; }
  void add_steps(std::uint64_t n) { steps_ += n; }
  /// Global slot for `name`, or nullptr when absent (a stable std::map
  /// node, the same contract as the VM's global ICs).
  Value* global_slot_if_exists(const std::string& name) {
    const auto it = globals_.find(name);
    return it != globals_.end() ? &it->second : nullptr;
  }
  /// The VM, if one has been created (introspection: installed traces).
  [[nodiscard]] Vm* vm_if_created() const { return vm_.get(); }

  /// Invokes a compiled closure (used by VM closure wrappers, so compiled
  /// functions stay callable from natives).
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

  /// The stateless iterator every ipairs() call returns (as in Lua); the
  /// VM open-codes both ipairs() and calls of this iterator.
  [[nodiscard]] const Value& ipairs_iter() const { return ipairs_iter_; }

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

  /// `object[key]` on a table or userdata (field hooks, methods as
  /// values); throws for anything else.
  Value index_value(const Value& object, const Value& key, int line);

  /// Statement budget tick, once per statement and loop iteration.
  /// Inline: the VM pays it per statement.
  void count_step(int line) {
    if (step_limit_ != 0 && ++steps_ > step_limit_) step_budget_exceeded(line);
  }

 private:
  void install_base_library();
  [[noreturn]] void step_budget_exceeded(int line);

  /// Compiles the program once (lazily) and returns the owned VM.
  void ensure_compiled();
  Vm& vm();

  friend class Vm;  // the VM's global ICs hold globals_ nodes

  std::shared_ptr<const Program> program_;
  std::map<std::string, Value> globals_;
  std::uint64_t step_limit_ = 0;
  std::uint64_t steps_ = 0;
  bool trace_ = true;
  std::uint32_t trace_threshold_ = 56;
  std::shared_ptr<const Chunk> chunk_;
  std::unique_ptr<Vm> vm_;
  /// Installed by install_base_library (see math_rng/math_random_native).
  std::shared_ptr<stats::Mt19937_64> math_rng_;
  std::shared_ptr<NativeFunction> math_random_;
  Value ipairs_iter_;
  core::ModifierProgram field_program_;
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
/// arithmetic) shared by the VM and the compiler's constant folder. `op`
/// is the lexer TokenType.
Value apply_binary_op(int op, const Value& lhs, const Value& rhs, int line);

}  // namespace moongen::script
