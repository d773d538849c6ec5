// Register VM executing the bytecode produced by compiler.hpp: the one
// engine that runs every script.
//
// This is the "compiled" scripting tier that closes (part of) the gap to
// the paper's LuaJIT backend: no per-node dispatch, no per-scope
// environment maps, no shared_ptr churn for locals. Closures produced by
// the VM are ordinary NativeFunction values whose `compiled` member holds
// the VmClosure, so they flow through bindings and tables unchanged —
// `type()` reads "function" and `tostring()` "function:<name>".
//
// On top of the generic dispatch loop sits the trace-specialization tier
// (trace.hpp / specializer.hpp): generic-for anchors (kForInCall) count
// back edges in their IC slots, hot loops are recorded for one iteration,
// and the recorded trace is compiled into a field-modifier kernel. The
// kernel runs as a *prefix accelerator*: it processes as many iterations
// as its entry guards and the statement budget allow, then always falls
// through to the generic anchor code, which remains the single place that
// handles loop exit, result binding and budget exhaustion. Guard misses
// simply skip the accelerator, so semantics stay byte-identical to the
// generic VM (and to the reference evaluator the tests run beside it).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "script/compiler.hpp"
#include "script/trace.hpp"
#include "script/value.hpp"

namespace moongen::script {

class Interpreter;
struct Specialization;

/// Heap box for a captured local ("upvalue" storage). A fresh Cell per
/// declaration-execution gives every loop iteration its own captured
/// variables, as Lua's scoping does.
struct Cell {
  Value v;
};

/// A closure over compiled code: proto index plus the captured cells.
/// Wrapped in a NativeFunction (never a distinct Value alternative).
struct VmClosure {
  std::shared_ptr<const Chunk> chunk;
  std::uint32_t proto_index = 0;
  std::vector<std::shared_ptr<Cell>> upvals;
};

/// Monomorphic inline cache. Global slots point into the interpreter's
/// global table (std::map nodes: stable, never erased). Method
/// pointers point into static MethodTable singletons. Table field slots
/// are guarded by the table's version token: erasure draws a fresh
/// process-unique token, so a hit proves the slot pointer is still the
/// live map node (even if the table's address was reused).
///
/// The loop-anchor instruction (kForInCall) reuses its IC slot for
/// trace-specialization state: the back-edge hotness counter and the
/// installed Specialization (or the permanent-failure flag when a recorded
/// trace proved unspecializable).
struct ICEntry {
  enum class FieldKind : std::uint8_t { kNone, kMethod, kHook };
  Value* global_slot = nullptr;
  const MethodTable* mt = nullptr;
  const Method* method = nullptr;
  const Method1* method1 = nullptr;
  const Table* tbl = nullptr;
  const Value* tslot = nullptr;
  std::uint64_t tversion = 0;
  FieldKind kind = FieldKind::kNone;
  /// Anchor-only: back edges observed while cold.
  std::uint32_t hot = 0;
  /// Anchor-only: a recorded trace failed to specialize; never retry.
  bool spec_failed = false;
  /// Anchor-only: the installed specialized handler (null while cold).
  std::shared_ptr<const Specialization> spec;
};

/// One VM per interpreter. Holds the register stack and the inline caches;
/// chunks themselves stay immutable and shareable across threads.
class Vm {
 public:
  explicit Vm(Interpreter& host) : host_(host) {}

  /// Runs a chunk's top-level function (the interpreter's run()).
  void run_toplevel(const std::shared_ptr<const Chunk>& chunk);

  /// Calls a compiled closure with interpreter calling convention: extra
  /// arguments are ignored, missing ones are nil.
  std::vector<Value> call_closure(const std::shared_ptr<VmClosure>& closure,
                                  std::vector<Value>& args);

  /// Clears every cell a closure of this VM captured that is still alive.
  /// A local function that calls itself is stored in a cell its own
  /// closure captures, a cycle that reference counting never frees; the
  /// interpreter calls this as it goes, so such closures die with it.
  void release_captured_cells();

  /// Specializations installed by this VM, in installation order
  /// (introspection: trace listings, tests).
  [[nodiscard]] const std::vector<std::shared_ptr<const Specialization>>& specializations()
      const {
    return specializations_;
  }

 private:
  struct Frame {
    std::shared_ptr<const Chunk> chunk;  // keeps protos alive for kClosure
    const FunctionProto* proto = nullptr;
    const std::vector<std::shared_ptr<Cell>>* upvals = nullptr;
    std::vector<std::shared_ptr<Cell>> cells;
    ICEntry* ics = nullptr;
    std::size_t base = 0;
  };

  std::vector<Value> execute(Frame& frame);
  std::vector<Value> do_call(const Value& callee, std::vector<Value>& args, int line);
  ICEntry* ic_table(const Chunk* chunk);
  void ensure_stack(std::size_t n);

  /// Trace machinery (definitions in vm.cpp). record_step runs on every
  /// fetched instruction while recording; the anchor helpers arm the
  /// recorder and install the built specialization.
  void arm_recording(Frame& frame, std::uint32_t anchor_pc, const Instr& anchor,
                     std::uint32_t exit_pc, ICEntry& entry);
  void record_step(Frame& frame, std::uint32_t pc, const Instr& ins);
  void finish_recording();
  /// Soft aborts reset the anchor to cold (retryable: the loop exited
  /// mid-recording, e.g. an empty array). Hard aborts mark it failed.
  void abort_recording(bool hard);

  /// Depth-indexed scratch vectors for call arguments: one live vector per
  /// nesting level, recycled across calls so the hot path never mallocs an
  /// argument list. RAII holder in vm.cpp releases on scope exit.
  std::vector<Value>& acquire_scratch();
  friend struct ArgScratch;

  /// Remembers a cell a new closure captures from its creating frame.
  void note_captured(const std::shared_ptr<Cell>& cell);

  Interpreter& host_;
  /// Shared register stack: frames are [base, base + num_regs) windows.
  /// Always index via base — nested calls may reallocate the vector.
  std::vector<Value> stack_;
  std::size_t top_ = 0;
  /// Per-chunk IC arrays (unordered_map nodes are pointer-stable).
  std::unordered_map<const Chunk*, std::vector<ICEntry>> ics_;
  /// deque: references stay valid while deeper levels are acquired.
  std::deque<std::vector<Value>> scratch_;
  std::size_t scratch_depth_ = 0;
  /// Shared empty vector for zero-arg method1 call sites (that fast path
  /// skips ArgScratch); method1 implementations must not mutate their args.
  std::vector<Value> no_args_;
  /// Hot-loop trace recording (active for at most one loop at a time).
  TraceRecorder recorder_;
  bool recording_ = false;
  std::vector<std::shared_ptr<const Specialization>> specializations_;
  /// Cells captured by closures (weak: most die with their closures;
  /// expired entries are dropped each time the list doubles).
  std::vector<std::weak_ptr<Cell>> captured_cells_;
  std::size_t prune_captured_at_ = 64;
};

}  // namespace moongen::script
