// Hot-loop trace recording for the script VM.
//
// The paper's generator leans on LuaJIT, a tracing JIT: hot loops are
// recorded as linear instruction sequences with observed operand types,
// then compiled to specialized machine code guarded by type checks
// (Section 3.2). This module reproduces the recording half of that design
// for the bytecode VM: the generic-for loop anchor (kForInCall) carries a
// hotness counter in its inline-cache slot, and once a loop is hot the VM
// records one full iteration — each executed instruction plus what the
// recorder observed about its operands (numeric-ness, receiver method
// tables and their trace tags, resolved native callees). The specializer
// (specializer.hpp) turns a recorded trace into a guarded field-modifier
// kernel; the generic VM remains the semantics oracle that every guard
// falls back to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "script/compiler.hpp"
#include "script/value.hpp"

namespace moongen::script {

struct ICEntry;

/// One executed instruction with the recorder's operand observations.
/// Observations are hints for the specializer, not guarantees: every
/// compiled kernel re-checks them with entry guards before running.
struct RecordedInstr {
  Instr ins;
  std::uint32_t pc = 0;
  /// Arithmetic: the value operands were numbers when recorded.
  bool numeric = false;
  /// kMethodCall / kGetField on userdata: the receiver's method table.
  const MethodTable* mt = nullptr;
  /// The receiver table's trace tag for the accessed name (kNone when the
  /// table declares no tag for it).
  TraceTag tag{};
  /// kCallGlobalField: the native the site resolved to when recorded.
  const NativeFunction* callee = nullptr;
};

/// A complete recorded loop iteration: the anchor instruction plus the
/// body up to (excluding) the back edge's re-arrival at the anchor.
struct RecordedTrace {
  std::shared_ptr<const Chunk> chunk;
  const FunctionProto* proto = nullptr;
  std::uint32_t anchor_pc = 0;
  Instr anchor{};
  /// The iterated container's method table as observed when the trace
  /// finished (null when the container was not userdata).
  const MethodTable* anchor_mt = nullptr;
  std::vector<RecordedInstr> body;
};

/// Recording state machine driven by the VM's fetch hook. The recorder is
/// a passive container: the VM observes operands (it owns the register
/// file) and appends; the recorder tracks identity (which frame, which
/// anchor) and the abort/finalize boundaries.
class TraceRecorder {
 public:
  /// Traces longer than this abort: past ~10x the bench body there is no
  /// straight-line loop worth specializing, and the cap bounds the cost of
  /// recording pathological chunks.
  static constexpr std::size_t kMaxTraceLength = 96;

  [[nodiscard]] bool active() const { return active_; }

  /// Starts recording the loop anchored at `anchor_pc` in the frame whose
  /// register window starts at `frame_base`. `exit_pc` is the anchor's
  /// loop-exit target: reaching it before the back edge means the loop
  /// ended mid-recording (a soft abort). `entry` is the anchor's IC slot,
  /// where the result (or failure) is installed.
  void arm(std::shared_ptr<const Chunk> chunk, const FunctionProto* proto,
           std::size_t frame_base, std::uint32_t anchor_pc, const Instr& anchor,
           std::uint32_t exit_pc, ICEntry* entry) {
    trace_.chunk = std::move(chunk);
    trace_.proto = proto;
    trace_.anchor_pc = anchor_pc;
    trace_.anchor = anchor;
    trace_.body.clear();
    frame_base_ = frame_base;
    exit_pc_ = exit_pc;
    entry_ = entry;
    active_ = true;
  }

  void append(RecordedInstr ri) { trace_.body.push_back(std::move(ri)); }

  /// Hands the finished trace to the specializer and stops recording.
  RecordedTrace take() {
    active_ = false;
    return std::move(trace_);
  }

  void reset() {
    active_ = false;
    trace_ = RecordedTrace{};
    entry_ = nullptr;
  }

  [[nodiscard]] const FunctionProto* proto() const { return trace_.proto; }
  [[nodiscard]] std::size_t frame_base() const { return frame_base_; }
  [[nodiscard]] std::uint32_t anchor_pc() const { return trace_.anchor_pc; }
  [[nodiscard]] std::uint32_t exit_pc() const { return exit_pc_; }
  [[nodiscard]] std::size_t size() const { return trace_.body.size(); }
  [[nodiscard]] ICEntry* entry() const { return entry_; }

 private:
  RecordedTrace trace_;
  std::size_t frame_base_ = 0;
  std::uint32_t exit_pc_ = 0;
  ICEntry* entry_ = nullptr;
  bool active_ = false;
};

/// Human-readable listing of a recorded trace: anchor, body instructions
/// (decoded like disassemble()) and per-instruction observations
/// ([num], [deref ...], [write @off/w], [native f]).
std::string disassemble_trace(const RecordedTrace& trace);

}  // namespace moongen::script
