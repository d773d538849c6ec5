#include "script/vm.hpp"

#include <algorithm>
#include <cmath>

#include "script/interpreter.hpp"
#include "script/lexer.hpp"
#include "script/specializer.hpp"

namespace moongen::script {

namespace {

int token_of(Op op) {
  switch (op) {
    case Op::kAdd: return static_cast<int>(TokenType::kPlus);
    case Op::kSub: return static_cast<int>(TokenType::kMinus);
    case Op::kMul: return static_cast<int>(TokenType::kStar);
    case Op::kDiv: return static_cast<int>(TokenType::kSlash);
    case Op::kMod: return static_cast<int>(TokenType::kPercent);
    case Op::kPow: return static_cast<int>(TokenType::kCaret);
    case Op::kConcat: return static_cast<int>(TokenType::kConcat);
    case Op::kLt: return static_cast<int>(TokenType::kLt);
    case Op::kLe: return static_cast<int>(TokenType::kLe);
    case Op::kGt: return static_cast<int>(TokenType::kGt);
    case Op::kGe: return static_cast<int>(TokenType::kGe);
    default: return 0;
  }
}

}  // namespace

void Vm::ensure_stack(std::size_t n) {
  if (stack_.size() < n) stack_.resize(std::max(n, stack_.size() * 2 + 64));
}

std::vector<Value>& Vm::acquire_scratch() {
  if (scratch_depth_ == scratch_.size()) scratch_.emplace_back();
  return scratch_[scratch_depth_++];
}

/// RAII window over one depth-level of the argument scratch pool.
struct ArgScratch {
  explicit ArgScratch(Vm& vm) : vm_(vm), args(vm.acquire_scratch()) {}
  ~ArgScratch() {
    args.clear();
    --vm_.scratch_depth_;
  }
  ArgScratch(const ArgScratch&) = delete;
  ArgScratch& operator=(const ArgScratch&) = delete;

  Vm& vm_;
  std::vector<Value>& args;
};

void Vm::note_captured(const std::shared_ptr<Cell>& cell) {
  if (captured_cells_.size() >= prune_captured_at_) {
    std::erase_if(captured_cells_, [](const auto& weak) { return weak.expired(); });
    prune_captured_at_ = std::max<std::size_t>(64, 2 * captured_cells_.size());
  }
  captured_cells_.push_back(cell);
}

void Vm::release_captured_cells() {
  for (const auto& weak : captured_cells_) {
    if (const auto cell = weak.lock()) cell->v = Value();
  }
  captured_cells_.clear();
}

ICEntry* Vm::ic_table(const Chunk* chunk) {
  auto& vec = ics_[chunk];
  if (vec.size() < chunk->num_ics) vec.resize(chunk->num_ics);
  return vec.data();
}

void Vm::run_toplevel(const std::shared_ptr<const Chunk>& chunk) {
  auto closure = std::make_shared<VmClosure>();
  closure->chunk = chunk;
  closure->proto_index = chunk->top_level;
  std::vector<Value> no_args;
  (void)call_closure(closure, no_args);
}

std::vector<Value> Vm::call_closure(const std::shared_ptr<VmClosure>& closure,
                                    std::vector<Value>& args) {
  const Chunk* chunk = closure->chunk.get();
  const FunctionProto& proto = chunk->protos[closure->proto_index];

  Frame frame;
  frame.chunk = closure->chunk;
  frame.proto = &proto;
  frame.upvals = &closure->upvals;
  frame.ics = ic_table(chunk);
  frame.base = top_;
  ensure_stack(top_ + proto.num_regs);
  top_ += proto.num_regs;

  // Clear the window and restore the watermark on every exit path, so a
  // ScriptError unwinding through nested frames releases their values.
  struct StackGuard {
    Vm& vm;
    std::size_t base;
    std::uint32_t nregs;
    ~StackGuard() {
      // The recording frame exiting (return, break-to-return, or an error
      // unwinding) ends its loop mid-trace: soft abort, retry later.
      if (vm.recording_ && vm.recorder_.frame_base() == base) vm.abort_recording(false);
      for (std::uint32_t i = 0; i < nregs; ++i) vm.stack_[base + i] = Value();
      vm.top_ = base;
    }
  } guard{*this, frame.base, proto.num_regs};

  // Interpreter convention: extra args ignored, missing padded with nil
  // (slots above the previous watermark are already nil).
  const std::size_t ncopy = std::min<std::size_t>(args.size(), proto.num_params);
  for (std::size_t i = 0; i < ncopy; ++i) stack_[frame.base + i] = args[i];
  frame.cells.resize(proto.num_cells);

  return execute(frame);
}

std::vector<Value> Vm::do_call(const Value& callee, std::vector<Value>& args, int line) {
  if (const auto* nf = callee.native()) {
    auto& fn = **nf;
    if (fn.compiled) {
      // Compiled-to-compiled fast path: skip the std::function wrapper.
      auto closure = std::static_pointer_cast<VmClosure>(fn.compiled);
      return call_closure(closure, args);
    }
    return fn.fn(host_, args);
  }
  throw ScriptError("attempt to call a " + callee.type_name() + " value", line);
}

std::vector<Value> Vm::execute(Frame& frame) {
  const Instr* code = frame.proto->code.data();
  const Value* consts = frame.proto->consts.data();
  std::size_t pc = 0;
  // Multi-result buffer of the last kCall/kMethodCall with nres ==
  // kMultiValues; consumed by the immediately following consumer.
  std::vector<Value> pending;

  const auto reg = [&](std::int32_t i) -> Value& {
    return stack_[frame.base + static_cast<std::size_t>(i)];
  };

  // Fills the argument vector for kCall/kMethodCall. enc >= 0: that many
  // registers after `base`; enc < 0: (-enc - 1) registers plus `pending`.
  const auto gather_args = [&](std::vector<Value>& args, std::int32_t base, std::int32_t enc) {
    const std::int32_t fixed = enc >= 0 ? enc : -enc - 1;
    args.reserve(static_cast<std::size_t>(fixed) + (enc < 0 ? pending.size() : 0));
    for (std::int32_t i = 0; i < fixed; ++i) args.push_back(reg(base + 1 + i));
    if (enc < 0) {
      for (auto& v : pending) args.push_back(std::move(v));
      pending.clear();
    }
  };

  const auto store_results = [&](std::int32_t base, std::int32_t nres,
                                 std::vector<Value>&& results) {
    if (nres == kMultiValues) {
      pending = std::move(results);
      return;
    }
    for (std::int32_t i = 0; i < nres; ++i) {
      reg(base + i) = static_cast<std::size_t>(i) < results.size() ? std::move(results[i])
                                                                   : Value();
    }
  };

  for (;;) {
    const auto ins_pc = static_cast<std::uint32_t>(pc);
    const Instr& ins = code[pc++];
    if (recording_) record_step(frame, ins_pc, ins);
    switch (ins.op) {
      case Op::kLoadConst: reg(ins.a) = consts[ins.b]; break;
      case Op::kLoadNil: reg(ins.a) = Value(); break;
      case Op::kLoadBool: reg(ins.a) = Value(ins.b != 0); break;
      case Op::kMove: reg(ins.a) = reg(ins.b); break;

      case Op::kGetGlobal: {
        ICEntry& ic = frame.ics[ins.ic];
        if (ic.global_slot != nullptr) {
          reg(ins.a) = *ic.global_slot;
          break;
        }
        // Miss on an undefined global is not cached: the name may be
        // defined later and must then become visible.
        if (Value* slot = host_.global_slot_if_exists(consts[ins.b].as_string())) {
          ic.global_slot = slot;
          reg(ins.a) = *slot;
        } else {
          reg(ins.a) = Value();
        }
        break;
      }
      case Op::kSetGlobal: {
        ICEntry& ic = frame.ics[ins.ic];
        if (ic.global_slot == nullptr)
          ic.global_slot = &host_.globals_[consts[ins.b].as_string()];
        *ic.global_slot = reg(ins.a);
        break;
      }

      case Op::kNewCell: frame.cells[static_cast<std::size_t>(ins.a)] = std::make_shared<Cell>(); break;
      case Op::kCellGet: reg(ins.a) = frame.cells[static_cast<std::size_t>(ins.b)]->v; break;
      case Op::kCellSet: frame.cells[static_cast<std::size_t>(ins.a)]->v = reg(ins.b); break;
      case Op::kUpGet: reg(ins.a) = (*frame.upvals)[static_cast<std::size_t>(ins.b)]->v; break;
      case Op::kUpSet: (*frame.upvals)[static_cast<std::size_t>(ins.a)]->v = reg(ins.b); break;

      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kPow: {
        const Value& lhs = reg(ins.b);
        const Value& rhs = reg(ins.c);
        if (lhs.is_number() && rhs.is_number()) {
          const double a = lhs.as_number();
          const double b = rhs.as_number();
          double out = 0;
          switch (ins.op) {
            case Op::kAdd: out = a + b; break;
            case Op::kSub: out = a - b; break;
            case Op::kMul: out = a * b; break;
            case Op::kDiv: out = a / b; break;
            case Op::kMod: out = a - std::floor(a / b) * b; break;  // Lua modulo
            default: out = std::pow(a, b); break;
          }
          reg(ins.a) = Value(out);
        } else {
          Value out = apply_binary_op(token_of(ins.op), lhs, rhs, ins.line);
          reg(ins.a) = std::move(out);
        }
        break;
      }
      case Op::kConcat: {
        Value out = apply_binary_op(token_of(ins.op), reg(ins.b), reg(ins.c), ins.line);
        reg(ins.a) = std::move(out);
        break;
      }
      case Op::kEq: reg(ins.a) = Value(reg(ins.b).equals(reg(ins.c))); break;
      case Op::kNe: reg(ins.a) = Value(!reg(ins.b).equals(reg(ins.c))); break;
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        const Value& lhs = reg(ins.b);
        const Value& rhs = reg(ins.c);
        if (lhs.is_number() && rhs.is_number()) {
          const double a = lhs.as_number();
          const double b = rhs.as_number();
          bool out = false;
          switch (ins.op) {
            case Op::kLt: out = a < b; break;
            case Op::kLe: out = a <= b; break;
            case Op::kGt: out = a > b; break;
            default: out = a >= b; break;
          }
          reg(ins.a) = Value(out);
        } else {
          Value out = apply_binary_op(token_of(ins.op), lhs, rhs, ins.line);
          reg(ins.a) = std::move(out);
        }
        break;
      }

      case Op::kNot: reg(ins.a) = Value(!reg(ins.b).truthy()); break;
      case Op::kNeg: {
        const Value& v = reg(ins.b);
        if (!v.is_number())
          throw ScriptError("attempt to negate a " + v.type_name(), ins.line);
        reg(ins.a) = Value(-v.as_number());
        break;
      }
      case Op::kLen: {
        const Value& v = reg(ins.b);
        if (v.is_string()) {
          reg(ins.a) = Value(static_cast<double>(v.as_string().size()));
        } else if (v.is_table()) {
          reg(ins.a) = Value(static_cast<double>(v.as_table()->array_size()));
        } else if (v.is_userdata()) {
          auto& ud = *v.as_userdata();
          const auto it = ud.methods()->methods.find("__len");
          if (it == ud.methods()->methods.end())
            throw ScriptError("attempt to get length of a " + v.type_name(), ins.line);
          std::vector<Value> no_args;
          auto r = it->second(host_, ud, no_args);
          reg(ins.a) = r.empty() ? Value() : std::move(r[0]);
        } else {
          throw ScriptError("attempt to get length of a " + v.type_name(), ins.line);
        }
        break;
      }

      case Op::kJump: pc = static_cast<std::size_t>(ins.a); break;
      case Op::kJumpIfFalse:
        if (!reg(ins.a).truthy()) pc = static_cast<std::size_t>(ins.b);
        break;
      case Op::kJumpIfTrue:
        if (reg(ins.a).truthy()) pc = static_cast<std::size_t>(ins.b);
        break;
      case Op::kJumpIfNil:
        if (reg(ins.a).is_nil()) pc = static_cast<std::size_t>(ins.b);
        break;

      case Op::kGetIndex: {
        const Value& obj = reg(ins.b);
        const Value& key = reg(ins.c);
        if (obj.is_table()) {
          if (key.is_number()) {
            reg(ins.a) = obj.as_table()->get(Table::Key{key.as_number()});
          } else if (key.is_string()) {
            reg(ins.a) = obj.as_table()->get(Table::Key{key.as_string()});
          } else {
            reg(ins.a) = Value();  // invalid key type reads as nil
          }
          break;
        }
        Value out = host_.index_value(obj, key, ins.line);
        reg(ins.a) = std::move(out);
        break;
      }
      case Op::kGetField: {
        const Value& obj = reg(ins.b);
        const std::string& name = consts[ins.c].as_string();
        if (obj.is_table()) {
          const Table* t = obj.as_table().get();
          ICEntry& ic = frame.ics[ins.ic];
          if (ic.tbl == t && ic.tversion == t->version()) {
            reg(ins.a) = *ic.tslot;
            break;
          }
          if (const Value* slot = t->find_slot(Table::Key{name})) {
            ic.tbl = t;
            ic.tversion = t->version();
            ic.tslot = slot;
            reg(ins.a) = *slot;
          } else {
            // Absent keys are not cached: a later insertion must become
            // visible, and insertions do not bump the version token.
            reg(ins.a) = Value();
          }
          break;
        }
        if (obj.is_userdata()) {
          auto self = obj.as_userdata();
          auto& ud = *self;
          ICEntry& ic = frame.ics[ins.ic];
          if (ic.mt != ud.methods()) {
            const MethodTable* mt = ud.methods();
            const auto it = mt->methods.find(name);
            if (it != mt->methods.end()) {
              ic.mt = mt;
              ic.method = &it->second;
              ic.kind = ICEntry::FieldKind::kMethod;
            } else if (mt->index) {
              ic.mt = mt;
              ic.method = nullptr;
              ic.kind = ICEntry::FieldKind::kHook;
            } else {
              throw ScriptError("cannot index " + ud.type_name() + " with '" + name + "'",
                                ins.line);
            }
          }
          if (ic.kind == ICEntry::FieldKind::kMethod) {
            // A fresh wrapper per access, like index_value: obj.m is
            // a new function value every time (obj.m ~= obj.m).
            const Method* method = ic.method;
            reg(ins.a) = make_native(name, [method, self](Interpreter& interp,
                                                          std::vector<Value>& call_args) {
              return (*method)(interp, *self, call_args);
            });
          } else {
            Value out = ic.mt->index(host_, ud, name);
            reg(ins.a) = std::move(out);
          }
          break;
        }
        Value out = host_.index_value(obj, consts[ins.c], ins.line);
        reg(ins.a) = std::move(out);
        break;
      }
      case Op::kSetIndex: {
        const Value& obj = reg(ins.a);
        const Value& key = reg(ins.b);
        if (obj.is_table()) {
          if (key.is_number()) {
            obj.as_table()->set(Table::Key{key.as_number()}, reg(ins.c));
          } else if (key.is_string()) {
            obj.as_table()->set(Table::Key{key.as_string()}, reg(ins.c));
          } else {
            throw ScriptError("invalid table key", ins.line);
          }
          break;
        }
        throw ScriptError("attempt to index a " + obj.type_name() + " value", ins.line);
      }

      case Op::kNewTable: reg(ins.a) = Value(std::make_shared<Table>()); break;
      case Op::kCheckKey: {
        const Value& key = reg(ins.a);
        if (!key.is_number() && !key.is_string())
          throw ScriptError("table key must be a number or string", ins.line);
        break;
      }
      case Op::kTableSet: {
        const Value& key = reg(ins.b);
        auto table = reg(ins.a).as_table();
        if (key.is_number()) {
          table->set(Table::Key{key.as_number()}, reg(ins.c));
        } else {
          table->set(Table::Key{key.as_string()}, reg(ins.c));
        }
        break;
      }

      case Op::kCall: {
        // Direct-call sites for ipairs and its stateless iterator:
        // open-coded with identical semantics, skipping the argument and
        // result vectors and the std::function dispatch.
        if (ins.b >= 1 && ins.c == kMultiValues) {
          if (const auto* nf = reg(ins.a).native();
              nf != nullptr && (*nf)->builtin == NativeFunction::Builtin::kIpairs) {
            // ipairs(x) returns (iterator, x, 0), x in r[a+1]. A generic
            // for's explist takes them as multiple values, which refill
            // pending's storage instead of a fresh result vector.
            pending.assign({host_.ipairs_iter(), reg(ins.a + 1), Value(0.0)});
            break;
          }
        }
        if (ins.b == 2 && ins.c >= 0) {
          if (const auto* nf = reg(ins.a).native();
              nf != nullptr && (*nf)->builtin == NativeFunction::Builtin::kIpairsIter) {
            const Value& ctrl = reg(ins.a + 2);
            const double next = ctrl.is_number() ? ctrl.as_number() + 1 : 1;
            Value element = host_.index_for_iteration(reg(ins.a + 1), next);
            // The iterator returns {nil} at the end, {next, element} else.
            const bool done = element.is_nil();
            if (ins.c >= 1) reg(ins.a) = done ? Value() : Value(next);
            if (ins.c >= 2) reg(ins.a + 1) = done ? Value() : std::move(element);
            for (std::int32_t i = 2; i < ins.c; ++i) reg(ins.a + i) = Value();
            break;
          }
        }
        ArgScratch scratch(*this);
        gather_args(scratch.args, ins.a, ins.b);
        // Move out: the callee slot is a fresh temp that the results (or
        // nothing) overwrite, and nested calls may reallocate the stack.
        const Value callee = std::move(reg(ins.a));
        if (ins.c >= 0) {
          // Fixed result count: truncation/padding makes the single-result
          // protocol exact, so natives that provide it skip the result
          // vector entirely.
          if (const auto* nf = callee.native();
              nf != nullptr && (*nf)->fn1 && !(*nf)->compiled) {
            Value r = (*nf)->fn1(host_, scratch.args);
            if (ins.c >= 1) reg(ins.a) = std::move(r);
            for (std::int32_t i = 1; i < ins.c; ++i) reg(ins.a + i) = Value();
            break;
          }
        }
        std::vector<Value> results = do_call(callee, scratch.args, ins.line);
        store_results(ins.a, ins.c, std::move(results));
        break;
      }
      case Op::kMethodCall: {
        // d encoding: high half (when set) names the object's home register
        // so a plain local needn't be copied into the call window. The
        // home register cannot change mid-call (only this frame's code,
        // which is suspended, writes plain locals), and the Value there
        // keeps the object alive across nested stack reallocation.
        const std::int32_t obj_hi = ins.d >= 0 ? (ins.d >> 16) : 0;
        const std::int32_t nargs = obj_hi != 0 ? (ins.d & 0xffff) : ins.d;
        const std::string& name = consts[ins.b].as_string();
        if (nargs == 0 && ins.c >= 0) {
          // Zero-arg single-result fast path: no scratch vector at all. The
          // object Value (home register or call window) owns the UserData,
          // which outlives any stack reallocation under the call.
          const Value& object = obj_hi != 0 ? reg(obj_hi - 1) : reg(ins.a);
          if (object.is_userdata()) {
            auto& ud = *object.as_userdata();
            ICEntry& ic = frame.ics[ins.ic];
            if (ic.mt != ud.methods()) {
              const auto it = ud.methods()->methods.find(name);
              if (it == ud.methods()->methods.end())
                throw ScriptError("no method '" + name + "' on " + ud.type_name(), ins.line);
              ic.mt = ud.methods();
              ic.method = &it->second;
              const auto it1 = ud.methods()->methods1.find(name);
              ic.method1 = it1 != ud.methods()->methods1.end() ? &it1->second : nullptr;
              ic.kind = ICEntry::FieldKind::kMethod;
            }
            if (ic.method1 != nullptr) {
              Value r = (*ic.method1)(host_, ud, no_args_);
              if (ins.c >= 1) reg(ins.a) = std::move(r);
              for (std::int32_t i = 1; i < ins.c; ++i) reg(ins.a + i) = Value();
              break;
            }
          }
        }
        ArgScratch scratch(*this);
        auto& args = scratch.args;
        gather_args(args, ins.a, nargs);
        const Value object_store =
            obj_hi != 0 ? Value() : std::move(reg(ins.a));  // fresh temp, see kCall
        const Value& object = obj_hi != 0 ? reg(obj_hi - 1) : object_store;
        std::vector<Value> results;
        if (object.is_userdata()) {
          auto& ud = *object.as_userdata();
          ICEntry& ic = frame.ics[ins.ic];
          if (ic.mt != ud.methods()) {
            const auto it = ud.methods()->methods.find(name);
            if (it == ud.methods()->methods.end())
              throw ScriptError("no method '" + name + "' on " + ud.type_name(), ins.line);
            ic.mt = ud.methods();
            ic.method = &it->second;
            const auto it1 = ud.methods()->methods1.find(name);
            ic.method1 = it1 != ud.methods()->methods1.end() ? &it1->second : nullptr;
            ic.kind = ICEntry::FieldKind::kMethod;
          }
          if (ins.c >= 0 && ic.method1 != nullptr) {
            // Single-result fast path, exact at fixed result counts.
            Value r = (*ic.method1)(host_, ud, args);
            if (ins.c >= 1) reg(ins.a) = std::move(r);
            for (std::int32_t i = 1; i < ins.c; ++i) reg(ins.a + i) = Value();
            break;
          }
          results = (*ic.method)(host_, ud, args);
        } else if (object.is_table()) {
          const Value fn = object.as_table()->get(Table::Key{name});
          args.insert(args.begin(), object);  // self
          results = host_.call(fn, std::move(args), ins.line);
        } else {
          throw ScriptError(
              "attempt to call method '" + name + "' on a " + object.type_name() + " value",
              ins.line);
        }
        store_results(ins.a, ins.c, std::move(results));
        break;
      }
      case Op::kCallGlobalField: {
        const std::int32_t nargs = ins.d & 0xffff;
        const std::int32_t nres = ins.d >> 16;
        ICEntry& ic = frame.ics[ins.ic];
        const Value* callee_slot = nullptr;
        if (ic.tbl != nullptr && ic.global_slot != nullptr && ic.global_slot->is_table() &&
            ic.global_slot->as_table().get() == ic.tbl && ic.tversion == ic.tbl->version()) {
          // Hit: the global still names the same unmodified table; the
          // cached node pointer is valid and reflects in-place reassignment
          // of the field (assignment does not move std::map nodes).
          callee_slot = ic.tslot;
        }
        Value resolved;  // keeps a slow-path callee alive across the call
        if (callee_slot == nullptr) {
          // Miss: resolve exactly like kGetGlobal + kGetField and refresh.
          ic.tbl = nullptr;
          if (ic.global_slot == nullptr) {
            ic.global_slot = host_.global_slot_if_exists(consts[ins.b].as_string());
          }
          const Value global = ic.global_slot != nullptr ? *ic.global_slot : Value();
          if (global.is_table()) {
            const Table* t = global.as_table().get();
            if (const Value* slot = t->find_slot(Table::Key{consts[ins.c].as_string()})) {
              ic.tbl = t;
              ic.tversion = t->version();
              ic.tslot = slot;
              callee_slot = slot;
            }  // absent fields are not cached (insertion keeps the version)
          } else {
            // Non-table global: same behaviour (and errors) as kGetField.
            resolved = host_.index_value(global, consts[ins.c], ins.line);
            callee_slot = &resolved;
          }
          if (callee_slot == nullptr) {
            resolved = Value();  // table without the field reads nil
            callee_slot = &resolved;
          }
        }
        ArgScratch scratch(*this);
        gather_args(scratch.args, ins.a, nargs);
        if (const auto* nf = callee_slot->native();
            nf != nullptr && (*nf)->fn1 && !(*nf)->compiled) {
          // Calling through the slot without copying is safe here: fn1 is
          // only ever installed by host registration, and no registered
          // fn1 mutates script tables (which could free the slot mid-call).
          Value r = (*nf)->fn1(host_, scratch.args);
          if (nres >= 1) reg(ins.a) = std::move(r);
          for (std::int32_t i = 1; i < nres; ++i) reg(ins.a + i) = Value();
          break;
        }
        // Generic call: copy the callee first — a native could mutate the
        // table out from under the cached slot mid-call.
        const Value callee = *callee_slot;
        std::vector<Value> results = do_call(callee, scratch.args, ins.line);
        store_results(ins.a, nres, std::move(results));
        break;
      }
      case Op::kForInCall: {
        // One fused generic-for iteration header: budget tick, protocol call
        // r[b..b+c) = r[a](r[a+1], r[a+2]) leaving the persistent f/s/ctrl
        // registers in place, exit to pc=d when the first result is nil,
        // else ctrl = first result. Order matches the unfused sequence.
        {
          ICEntry& ic = frame.ics[ins.ic];
          if (ic.spec != nullptr) {
            // Prefix accelerator: bulk-processes the elements its guards
            // and the step budget allow, then falls through — this generic
            // header performs the next iteration (or the exhaust exit).
            if (host_.trace_enabled()) {
              run_field_kernel(*ic.spec, ins, &stack_[frame.base], frame.ics,
                               *frame.upvals, host_);
            }
          } else if (host_.trace_enabled() && !recording_ && !ic.spec_failed &&
                     ++ic.hot >= host_.trace_threshold()) {
            arm_recording(frame, ins_pc, ins, static_cast<std::uint32_t>(ins.d), ic);
          }
        }
        host_.count_step(ins.line);
        const Value& f = reg(ins.a);
        if (const auto* nf = f.native();
            nf != nullptr && (*nf)->builtin == NativeFunction::Builtin::kIpairsIter) {
          // Open-coded ipairs iterator, as in kCall: identical semantics,
          // no argument/result vectors per element.
          const Value& ctrl = reg(ins.a + 2);
          const double next = ctrl.is_number() ? ctrl.as_number() + 1 : 1;
          Value element = host_.index_for_iteration(reg(ins.a + 1), next);
          if (element.is_nil()) {
            for (std::int32_t i = 0; i < ins.c; ++i) reg(ins.b + i) = Value();
            pc = static_cast<std::size_t>(ins.d);
            break;
          }
          if (ins.c >= 1) reg(ins.b) = Value(next);
          if (ins.c >= 2) reg(ins.b + 1) = std::move(element);
          for (std::int32_t i = 2; i < ins.c; ++i) reg(ins.b + i) = Value();
          reg(ins.a + 2) = Value(next);
          break;
        }
        ArgScratch scratch(*this);
        scratch.args.reserve(2);
        scratch.args.push_back(reg(ins.a + 1));
        scratch.args.push_back(reg(ins.a + 2));
        // Copy (not move): f persists across iterations, and nested calls
        // may reallocate the register stack under this reference.
        const Value callee = f;
        std::vector<Value> results = do_call(callee, scratch.args, ins.line);
        store_results(ins.b, ins.c, std::move(results));
        if (reg(ins.b).is_nil()) {
          pc = static_cast<std::size_t>(ins.d);
          break;
        }
        reg(ins.a + 2) = reg(ins.b);
        break;
      }
      case Op::kReturn: {
        std::vector<Value> out;
        const std::int32_t fixed = ins.b >= 0 ? ins.b : -ins.b - 1;
        out.reserve(static_cast<std::size_t>(fixed) + (ins.b < 0 ? pending.size() : 0));
        for (std::int32_t i = 0; i < fixed; ++i) out.push_back(std::move(reg(ins.a + i)));
        if (ins.b < 0) {
          for (auto& v : pending) out.push_back(std::move(v));
        }
        return out;
      }
      case Op::kAdjust: {
        for (std::int32_t i = 0; i < ins.b; ++i) {
          reg(ins.a + i) = static_cast<std::size_t>(i) < pending.size()
                               ? std::move(pending[static_cast<std::size_t>(i)])
                               : Value();
        }
        pending.clear();
        break;
      }

      case Op::kClosure: {
        const auto proto_index = static_cast<std::uint32_t>(ins.b);
        const FunctionProto& proto = frame.chunk->protos[proto_index];
        auto closure = std::make_shared<VmClosure>();
        closure->chunk = frame.chunk;
        closure->proto_index = proto_index;
        closure->upvals.reserve(proto.upvals.size());
        for (const auto& desc : proto.upvals) {
          if (desc.from_parent_cell) {
            note_captured(frame.cells[desc.index]);
            closure->upvals.push_back(frame.cells[desc.index]);
          } else {
            // Noted when the enclosing closure captured it.
            closure->upvals.push_back((*frame.upvals)[desc.index]);
          }
        }
        auto nf = std::make_shared<NativeFunction>();
        nf->name = proto.name;
        nf->compiled = closure;
        nf->fn = [closure](Interpreter& interp, std::vector<Value>& call_args) {
          return interp.call_compiled(closure, call_args);
        };
        reg(ins.a) = Value(std::move(nf));
        break;
      }

      case Op::kToNum:
        // as_number() throws std::bad_variant_access on non-numbers,
        // exactly like the tree-walker's evaluate(bound).as_number().
        (void)reg(ins.a).as_number();
        break;
      case Op::kForPrep:
        if (reg(ins.a + 2).as_number() == 0)
          throw ScriptError("for step must not be zero", ins.line);
        break;
      case Op::kForTest: {
        const double i = reg(ins.a).as_number();
        const double stop = reg(ins.a + 1).as_number();
        const double step = reg(ins.a + 2).as_number();
        if (!(step > 0 ? i <= stop : i >= stop)) pc = static_cast<std::size_t>(ins.b);
        break;
      }
      case Op::kForNext:
        reg(ins.a) = Value(reg(ins.a).as_number() + reg(ins.a + 2).as_number());
        pc = static_cast<std::size_t>(ins.b);
        break;

      case Op::kPathMid: {
        const Value container = reg(ins.b);
        if (!container.is_table())
          throw ScriptError("cannot declare function in non-table", ins.line);
        reg(ins.a) = container.as_table()->get(Table::Key{consts[ins.c].as_string()});
        break;
      }
      case Op::kPathSet: {
        const Value& container = reg(ins.a);
        if (!container.is_table())
          throw ScriptError("cannot declare function in non-table", ins.line);
        container.as_table()->set(Table::Key{consts[ins.b].as_string()}, reg(ins.c));
        break;
      }

      case Op::kCheckStep: host_.count_step(ins.line); break;
    }
  }
}

void Vm::arm_recording(Frame& frame, std::uint32_t anchor_pc, const Instr& anchor,
                       std::uint32_t exit_pc, ICEntry& entry) {
  entry.hot = 0;  // reset so an abort re-warms from cold
  recorder_.arm(frame.chunk, frame.proto, frame.base, anchor_pc, anchor, exit_pc, &entry);
  recording_ = true;
}

// Runs on every fetched instruction while recording, BEFORE the
// instruction executes — operand observations are pre-state, which is what
// the specializer's replay needs (e.g. kMethodCall moves its receiver out
// of the register during execution).
void Vm::record_step(Frame& frame, std::uint32_t pc, const Instr& ins) {
  if (frame.base != recorder_.frame_base()) return;  // nested call's code
  if (pc == recorder_.anchor_pc()) {
    finish_recording();
    return;
  }
  if (pc == recorder_.exit_pc()) {
    // The loop ended before completing one iteration (empty array, early
    // last element): retryable, not a property of the code.
    abort_recording(false);
    return;
  }
  if (recorder_.size() >= TraceRecorder::kMaxTraceLength) {
    abort_recording(true);
    return;
  }

  const auto reg = [&](std::int32_t i) -> const Value& {
    return stack_[frame.base + static_cast<std::size_t>(i)];
  };
  RecordedInstr ri;
  ri.ins = ins;
  ri.pc = pc;
  switch (ins.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kPow:
      ri.numeric = reg(ins.b).is_number() && reg(ins.c).is_number();
      break;
    case Op::kNeg:
      ri.numeric = reg(ins.b).is_number();
      break;
    case Op::kGetField: {
      const Value& obj = reg(ins.b);
      if (obj.is_userdata()) {
        ri.mt = obj.as_userdata()->methods();
        const auto& name = frame.proto->consts[ins.c].as_string();
        const auto it = ri.mt->trace_tags.find(name);
        if (it != ri.mt->trace_tags.end()) ri.tag = it->second;
      }
      break;
    }
    case Op::kMethodCall: {
      const std::int32_t obj_hi = ins.d >= 0 ? (ins.d >> 16) : 0;
      const Value& object = obj_hi != 0 ? reg(obj_hi - 1) : reg(ins.a);
      if (object.is_userdata()) {
        ri.mt = object.as_userdata()->methods();
        const auto& name = frame.proto->consts[ins.b].as_string();
        const auto it = ri.mt->trace_tags.find(name);
        if (it != ri.mt->trace_tags.end()) ri.tag = it->second;
      }
      break;
    }
    case Op::kCallGlobalField: {
      // Resolve the callee the way the IC-hit path would; a cold site
      // (possible only if this is its first execution) records no callee
      // and the builder rejects the trace.
      const ICEntry& ic = frame.ics[ins.ic];
      if (ic.tbl != nullptr && ic.global_slot != nullptr && ic.global_slot->is_table() &&
          ic.global_slot->as_table().get() == ic.tbl && ic.tversion == ic.tbl->version()) {
        if (const auto* nf = ic.tslot->native()) ri.callee = nf->get();
      }
      break;
    }
    default:
      break;
  }
  recorder_.append(std::move(ri));
}

void Vm::finish_recording() {
  ICEntry* entry = recorder_.entry();
  const std::size_t base = recorder_.frame_base();
  RecordedTrace trace = recorder_.take();
  recording_ = false;
  // Observe the iterated container now (same loop instance: f/s/ctrl
  // persist across iterations, and we are back at the anchor).
  const Value& container = stack_[base + static_cast<std::size_t>(trace.anchor.a) + 1];
  if (container.is_userdata()) trace.anchor_mt = container.as_userdata()->methods();
  auto spec = build_specialization(std::move(trace), host_);
  if (spec != nullptr) {
    entry->spec = spec;
    specializations_.push_back(std::move(spec));
  } else {
    entry->spec_failed = true;  // recorded but unspecializable: never retry
  }
  recorder_.reset();
}

void Vm::abort_recording(bool hard) {
  if (ICEntry* entry = recorder_.entry(); entry != nullptr && hard) entry->spec_failed = true;
  recording_ = false;
  recorder_.reset();
}

}  // namespace moongen::script
