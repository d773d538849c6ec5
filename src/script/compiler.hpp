// Bytecode compiler for the embedded Lua-subset language.
//
// The paper's generator owes its speed to LuaJIT: userscript packet loops
// compile to machine code instead of walking a syntax tree (Sections 3.2,
// 5.1). This module reproduces the cheap half of that idea — a one-pass
// lowering of the AST to flat register bytecode with resolved local /
// upvalue slots, folded constants and inline-cache slots at global, field
// and method-call sites. The register VM executing it lives in vm.hpp.
//
// Determinism contract: for programs that declare names before use (all of
// the repo's scripts and the fuzz corpus), the compiled program is
// observably identical to the tree-walking reference evaluator that the
// tests run beside it (tests/oracle) — same values, same side-effect
// order, same error messages, same statement-budget counting.
// See DESIGN.md section 11 for the one documented divergence
// (use-before-declaration captures resolve lexically here, dynamically in
// the tree-walker).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "script/ast.hpp"
#include "script/value.hpp"

namespace moongen::script {

/// Register-machine opcodes. Operands a/b/c/d are registers, constant
/// indices, cell/upvalue indices or jump targets depending on the op; `ic`
/// indexes the per-interpreter inline-cache array.
enum class Op : std::uint8_t {
  kLoadConst,   // r[a] = consts[b]
  kLoadNil,     // r[a] = nil
  kLoadBool,    // r[a] = (b != 0)
  kMove,        // r[a] = r[b]
  kGetGlobal,   // r[a] = globals[consts[b]]          (ic: cached slot)
  kSetGlobal,   // globals[consts[b]] = r[a]          (ic: cached slot)
  kNewCell,     // cells[a] = fresh boxed nil
  kCellGet,     // r[a] = *cells[b]
  kCellSet,     // *cells[a] = r[b]
  kUpGet,       // r[a] = *upvals[b]
  kUpSet,       // *upvals[a] = r[b]
  kAdd,         // r[a] = r[b] + r[c]   (binary ops fall back to the
  kSub,         //  interpreter's shared apply_binary_op for non-numbers,
  kMul,         //  keeping error messages and string compares identical)
  kDiv,
  kMod,
  kPow,
  kConcat,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kNot,         // r[a] = not r[b]
  kNeg,         // r[a] = -r[b]
  kLen,         // r[a] = #r[b]
  kJump,        // pc = a
  kJumpIfFalse, // if not truthy(r[a]) pc = b
  kJumpIfTrue,  // if truthy(r[a]) pc = b
  kJumpIfNil,   // if r[a] == nil pc = b
  kGetIndex,    // r[a] = r[b][r[c]]
  kGetField,    // r[a] = r[b][consts[c]]             (ic: userdata method/hook)
  kSetIndex,    // r[a][r[b]] = r[c]                  (assignment-target rules)
  kNewTable,    // r[a] = {}
  kCheckKey,    // constructor key check: r[a] must be number or string
  kTableSet,    // r[a][r[b]] = r[c]                  (constructor rules)
  kCall,        // call r[a](r[a+1..]); b: nargs enc, c: nres enc
  kMethodCall,  // r[a]:consts[b](r[a+1..]); c: nres, d: nargs (ic: Method*).
                // When d >= 0 and (d >> 16) != 0 the object is instead read
                // in place from register (d >> 16) - 1 — a plain local's
                // home, which nothing can overwrite mid-call — and nargs is
                // d & 0xffff; this skips the per-call object copy.
  kCallGlobalField,  // call globals[consts[b]][consts[c]](r[a+1..]);
                     // d: nargs | nres << 16 (both fixed). Fused direct-call
                     // site for `G.f(...)` with literal/name-only args; the
                     // IC guards (global slot, Table*, version) so the hit
                     // path calls straight out of the table slot with no
                     // Value copies. Emitted only when resolving the callee
                     // at call time is unobservable (see compile_call).
  kForInCall,   // fused generic-for iteration header: budget tick, protocol
                // call r[b..b+c) = r[a](r[a+1], r[a+2]) without consuming the
                // persistent f/s/ctrl registers (kCall would: its results
                // overwrite its callee window), then pc = d when r[b] is nil,
                // else ctrl r[a+2] = r[b]. (ic: trace anchor — hotness
                // counter + installed field-kernel specialization)
  kReturn,      // return r[a..]; b: count enc
  kAdjust,      // r[a..a+b) = pending results, padded with nil
  kClosure,     // r[a] = closure of protos[b]
  kToNum,       // r[a] = number(r[a]) — numeric-for bound conversion
  kForPrep,     // validate step r[a+2] != 0
  kForTest,     // if loop (i=r[a], stop=r[a+1], step=r[a+2]) done: pc = b
  kForNext,     // r[a] += r[a+2]; pc = b
  kPathMid,     // r[a] = checked-table r[b][consts[c]] (function a.b.c decl)
  kPathSet,     // checked-table r[a][consts[b]] = r[c]
  kCheckStep,   // statement budget tick (mirrors the tree-walker's count)
};

/// nargs encoding for kCall / kMethodCall / kReturn: n >= 0 means exactly
/// n fixed values; n < 0 means (-n - 1) fixed values followed by the
/// pending multi-result buffer of the preceding call.
inline constexpr std::int32_t kMultiValues = -1;

struct Instr {
  Op op;
  std::uint16_t ic = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
  std::int32_t line = 0;
};

/// How a closure obtains one captured variable when it is created: either
/// a cell of the enclosing frame or an upvalue of the enclosing closure.
struct UpvalDesc {
  bool from_parent_cell = true;
  std::uint32_t index = 0;
};

struct FunctionProto {
  std::string name;          // for diagnostics and wrapper naming
  std::uint32_t num_params = 0;
  std::uint32_t num_regs = 0;   // frame size (params + locals + temps)
  std::uint32_t num_cells = 0;  // boxed locals captured by nested closures
  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<UpvalDesc> upvals;
};

/// A compiled program. Immutable after compile_program returns; the
/// mutable inline-cache array lives in each interpreter's Vm (sized
/// num_ics), so a chunk never carries cross-thread state.
struct Chunk {
  std::vector<FunctionProto> protos;
  std::uint32_t top_level = 0;  // proto executing the main block
  std::uint32_t num_ics = 0;
};

/// Lowers a parsed program to bytecode. Pure function of the AST: cheap
/// enough (microseconds) that every interpreter compiles its own copy.
std::shared_ptr<const Chunk> compile_program(const Program& program);

/// Mnemonic for an opcode ("ADD", "GFCALL", ...). Shared by the chunk
/// disassembler and the recorded-trace listings in trace.cpp.
const char* op_name(Op op);

/// Renders one instruction the way disassemble() does (decoded operands,
/// no pc prefix). `proto` supplies the constant pool for name operands.
std::string disassemble_instr(const FunctionProto& proto, const Instr& ins);

/// Human-readable disassembly (tests / debugging). Fused call sites
/// (GFCALL/MCALL/FORINCALL) and constant/global operands are decoded to
/// names and register ranges instead of raw indices; instructions with an
/// inline-cache slot show it as a trailing [ic N].
std::string disassemble(const Chunk& chunk);

}  // namespace moongen::script
