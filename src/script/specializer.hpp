// Trace specializer: compiles recorded hot-loop traces (trace.hpp) into
// guarded fast paths for the script VM.
//
// One specialization shape, matching how the paper's LuaJIT backend earns
// its ~100 cycles/pkt on per-packet loops (Sections 3.2, 5.1): the field
// kernel, a script→field-modifier escape hatch. A generic-for over a packet
// array whose body is straight-line header-field writes (constants,
// counters, math.random draws) compiles onto core::ModifierProgram: hot
// packets never enter the VM dispatch loop at all. The kernel draws from
// the interpreter's own math.random engine, so the random stream is
// byte-identical to generic execution.
//
// A kernel runs as a prefix accelerator at its kForInCall anchor: entry
// guards verify every recorded assumption (operand types, method-table
// identity, iterator protocol, call-site inline caches, random-native
// identity); any mismatch — a deopt — simply skips the kernel and the
// generic VM executes the iteration. Statement budgets are enforced
// exactly: a kernel processes at most the packets the remaining budget
// allows and leaves the exhaustion throw to the generic loop header.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/field_modifier.hpp"
#include "script/trace.hpp"
#include "script/value.hpp"
#include "script/vm.hpp"

namespace moongen::script {

class Interpreter;

/// One term of an entry-invariant expression: a frame register, a global
/// environment slot (stable std::map node) or an upvalue of the executing
/// closure (resolved by index at entry — specializations are shared by all
/// closures of a proto, so cell pointers must not be baked in).
struct EntryTerm {
  enum class Src : std::uint8_t { kReg, kGlobal, kUpval };
  Src src = Src::kReg;
  std::int8_t coef = 1;  ///< ±1
  std::uint16_t index = 0;
  Value* slot = nullptr;  ///< kGlobal only
};

/// An entry-invariant numeric expression: constant + signed sum of terms
/// (k + Σ coef·term). Evaluated once per kernel entry. Restricted to
/// exact-integer arithmetic — the builder only emits one when every
/// constant is integral, and entry guards require integral term values
/// with |v| <= 2^32 — so re-association cannot change rounding versus the
/// generic per-iteration evaluation order.
struct EntryExpr {
  double k = 0.0;
  std::vector<EntryTerm> terms;
};

/// One field write per packet, with its value recipe.
struct ActionRecipe {
  core::FieldAction::Kind kind = core::FieldAction::Kind::kConstant;
  core::FieldRef field;
  /// kConstant: the written value. kRandom: the base added to the draw
  /// (the +1 of math.random's 1..m convention is folded in at entry).
  /// kCounter: the base added to the 1-based loop index.
  EntryExpr base;
  /// kRandom only: the draw modulus m.
  EntryExpr modulus;
};

/// Compiled script→field-modifier escape hatch for a kForInCall anchor.
struct FieldKernelSpec {
  /// The recorded packet-array method table (entry guard: same table).
  const MethodTable* array_mt = nullptr;
  std::vector<ActionRecipe> actions;
  /// All distinct terms feeding EntryExprs: each must resolve to an
  /// integral number with |v| <= 2^32 at entry (exactness precondition
  /// above).
  std::vector<EntryTerm> guard_terms;
  /// kCallGlobalField sites folded into draws: each site's IC must still
  /// hit AND resolve to `random_native` at entry.
  std::vector<std::uint16_t> random_ics;
  const NativeFunction* random_native = nullptr;
  /// Statement-budget ticks per packet: the anchor's own tick plus the
  /// body's kCheckStep count.
  std::uint32_t ticks_per_packet = 1;
};

struct Specialization {
  FieldKernelSpec field;
  /// The source trace, kept for introspection (disassemble_trace).
  RecordedTrace trace;
};

/// Compiles a recorded trace into a specialization, or nullptr when the
/// trace is not specializable (the anchor is then marked failed and the
/// generic VM keeps running it).
std::shared_ptr<const Specialization> build_specialization(RecordedTrace trace,
                                                           Interpreter& host);

/// Executes a field kernel at its kForInCall anchor. Processes whatever
/// prefix of the remaining elements the guards and budget allow (possibly
/// none), updating packet bytes, the control register and the statement
/// budget; the caller always falls through to the generic anchor code.
/// `regs` is the frame's register window, `ics` its inline-cache array,
/// `upvals` the executing closure's upvalue cells (may be empty).
void run_field_kernel(const Specialization& spec, const Instr& anchor, Value* regs,
                      ICEntry* ics, const std::vector<std::shared_ptr<Cell>>& upvals,
                      Interpreter& host);

}  // namespace moongen::script
