#include "script/specializer.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "membuf/buf_array.hpp"
#include "membuf/pktbuf.hpp"
#include "script/interpreter.hpp"

namespace moongen::script {

namespace {

// Term values must be exactly representable integers small enough that any
// re-associated sum of a few of them stays exact (|sum| < 2^52).
constexpr double kMaxTermMagnitude = 4294967296.0;  // 2^32
constexpr double kMaxFieldValue = 4294967295.0;     // uint32 max

bool term_key_equal(const EntryTerm& a, const EntryTerm& b) {
  return a.src == b.src && a.index == b.index && a.slot == b.slot;
}

// ---------------------------------------------------------------------------
// Abstract values for the field-kernel builder
// ---------------------------------------------------------------------------

// Symbolic value of a register during the straight-line replay of a
// recorded body: either an affine numeric expression over entry-invariant
// terms / the loop index / at most one random draw, a view into the
// current packet's bytes (optionally narrowed to a field), or nil.
struct AbsVal {
  enum class Kind : std::uint8_t { kNum, kView, kNil };
  Kind kind = Kind::kNum;
  // kNum: k + Σ coef·term + idx_coef·loop_index + (draw >= 0 ? draw_term : 0).
  // The draw term is the full math.random(m) result (1 + r % m), coef +1.
  double k = 0.0;
  std::vector<EntryTerm> terms;
  int idx_coef = 0;
  int draw = -1;
  // kView
  bool has_field = false;
  core::FieldRef fbase;
};

AbsVal num_const(double k) {
  AbsVal v;
  v.k = k;
  return v;
}

AbsVal num_term(EntryTerm term) {
  AbsVal v;
  v.terms.push_back(term);
  return v;
}

// a + sign*b over the affine representation; fails (nullopt) when the
// combination leaves the supported form (two draws, negated draw).
std::optional<AbsVal> combine(const AbsVal& a, const AbsVal& b, int sign) {
  if (a.kind != AbsVal::Kind::kNum || b.kind != AbsVal::Kind::kNum) return std::nullopt;
  if (a.draw >= 0 && b.draw >= 0) return std::nullopt;
  if (b.draw >= 0 && sign < 0) return std::nullopt;  // draw coef must stay +1
  AbsVal out = a;
  out.k += sign * b.k;
  out.idx_coef += sign * b.idx_coef;
  if (b.draw >= 0) out.draw = b.draw;
  for (const EntryTerm& t : b.terms) {
    bool merged = false;
    for (auto& mine : out.terms) {
      if (term_key_equal(mine, t)) {
        const int c = mine.coef + sign * t.coef;
        if (c < -1 || c > 1) return std::nullopt;  // keep coefs in {-1, 0, +1}
        mine.coef = static_cast<std::int8_t>(c);
        merged = true;
        break;
      }
    }
    if (!merged) {
      EntryTerm nt = t;
      nt.coef = static_cast<std::int8_t>(sign * t.coef);
      out.terms.push_back(nt);
    }
  }
  std::erase_if(out.terms, [](const EntryTerm& t) { return t.coef == 0; });
  return out;
}

// Integral constant check for the exactness argument in the header.
bool exact_const(double k) { return std::floor(k) == k && std::fabs(k) <= 281474976710656.0; }

// ---------------------------------------------------------------------------
// Field-kernel builder
// ---------------------------------------------------------------------------

class FieldKernelBuilder {
 public:
  FieldKernelBuilder(const RecordedTrace& trace, Interpreter& host)
      : trace_(trace), host_(host) {}

  std::optional<FieldKernelSpec> build() {
    const Instr& anchor = trace_.anchor;
    // The recorded container must have been a packet array; the kernel
    // re-checks table identity at every entry.
    if (trace_.anchor_mt == nullptr || !trace_.anchor_mt->packet_array) return std::nullopt;
    if (anchor.c < 2) return std::nullopt;  // body cannot name the element
    iter_base_ = static_cast<std::uint32_t>(anchor.a);
    window_ = static_cast<std::uint32_t>(anchor.b);
    // Loop variables: w = 1-based index, w+1 = element, extras are nil.
    AbsVal idx;
    idx.idx_coef = 1;
    abs_[window_] = idx;
    AbsVal elem;
    elem.kind = AbsVal::Kind::kView;
    abs_[window_ + 1] = elem;
    for (std::int32_t i = 2; i < anchor.c; ++i) {
      AbsVal nil;
      nil.kind = AbsVal::Kind::kNil;
      abs_[window_ + static_cast<std::uint32_t>(i)] = nil;
    }

    const auto& body = trace_.body;
    if (body.empty()) return std::nullopt;
    for (std::size_t i = 0; i < body.size(); ++i) {
      const bool last = i + 1 == body.size();
      if (!step(body[i], last)) return std::nullopt;
    }
    if (!saw_back_edge_) return std::nullopt;
    if (spec_.actions.empty()) return std::nullopt;
    if (next_draw_consumed_ != draws_.size()) return std::nullopt;  // unused draw
    spec_.array_mt = trace_.anchor_mt;
    spec_.random_native = host_.math_random_native();
    spec_.ticks_per_packet = 1 + ticks_;  // anchor tick + body kCheckSteps
    return spec_;
  }

 private:
  std::optional<AbsVal> read(std::uint32_t r) {
    const auto it = abs_.find(r);
    if (it != abs_.end()) return it->second;
    // Registers below the iterator triple belong to enclosing scopes and
    // are invariant while the kernel runs (no script code executes).
    if (r < iter_base_) {
      EntryTerm t;
      t.src = EntryTerm::Src::kReg;
      t.index = static_cast<std::uint16_t>(r);
      return num_term(t);
    }
    return std::nullopt;  // f/s/ctrl or an undefined temp
  }

  bool write(std::uint32_t r, AbsVal v) {
    // Writes below the loop's registers would carry state across
    // iterations (or corrupt the iterator) — not a straight-line body.
    if (r < iter_base_ + 3) return false;
    abs_[r] = std::move(v);
    return true;
  }

  // Collects a guard term (dedup by identity).
  void note_guards(const EntryExpr& e) {
    for (const EntryTerm& t : e.terms) {
      bool present = false;
      for (const EntryTerm& g : spec_.guard_terms) {
        if (term_key_equal(g, t)) {
          present = true;
          break;
        }
      }
      if (!present) spec_.guard_terms.push_back(t);
    }
  }

  std::optional<EntryExpr> to_entry_expr(const AbsVal& v) {
    if (v.kind != AbsVal::Kind::kNum || v.idx_coef != 0 || v.draw >= 0) return std::nullopt;
    if (!exact_const(v.k)) return std::nullopt;
    EntryExpr e;
    e.k = v.k;
    e.terms = v.terms;
    return e;
  }

  bool emit_action(core::FieldRef field, const AbsVal& v) {
    if (v.kind != AbsVal::Kind::kNum) return false;
    if (!exact_const(v.k)) return false;
    ActionRecipe recipe;
    recipe.field = field;
    recipe.base.k = v.k;
    recipe.base.terms = v.terms;
    if (v.draw >= 0) {
      if (v.idx_coef != 0) return false;
      // Draws must be consumed in draw order, each exactly once, so the
      // kernel's per-action draws replay the recorded stream.
      if (static_cast<std::size_t>(v.draw) != next_draw_consumed_) return false;
      ++next_draw_consumed_;
      recipe.kind = core::FieldAction::Kind::kRandom;
      recipe.modulus = draws_[static_cast<std::size_t>(v.draw)];
      note_guards(recipe.modulus);
    } else if (v.idx_coef == 1) {
      recipe.kind = core::FieldAction::Kind::kCounter;
    } else if (v.idx_coef == 0) {
      recipe.kind = core::FieldAction::Kind::kConstant;
    } else {
      return false;
    }
    note_guards(recipe.base);
    spec_.actions.push_back(std::move(recipe));
    return true;
  }

  bool step(const RecordedInstr& ri, bool last) {
    const Instr& ins = ri.ins;
    const auto* consts = trace_.proto->consts.data();
    switch (ins.op) {
      case Op::kCheckStep:
        ++ticks_;
        return true;
      case Op::kLoadConst: {
        const Value& c = consts[ins.b];
        if (!c.is_number()) return false;
        return write(static_cast<std::uint32_t>(ins.a), num_const(c.as_number()));
      }
      case Op::kMove: {
        auto v = read(static_cast<std::uint32_t>(ins.b));
        if (!v) return false;
        return write(static_cast<std::uint32_t>(ins.a), std::move(*v));
      }
      case Op::kGetGlobal: {
        Value* slot = host_.global_slot_if_exists(consts[ins.b].as_string());
        if (slot == nullptr) return false;
        EntryTerm t;
        t.src = EntryTerm::Src::kGlobal;
        t.slot = slot;
        return write(static_cast<std::uint32_t>(ins.a), num_term(t));
      }
      case Op::kUpGet: {
        EntryTerm t;
        t.src = EntryTerm::Src::kUpval;
        t.index = static_cast<std::uint16_t>(ins.b);
        return write(static_cast<std::uint32_t>(ins.a), num_term(t));
      }
      case Op::kAdd:
      case Op::kSub: {
        if (!ri.numeric) return false;
        auto lhs = read(static_cast<std::uint32_t>(ins.b));
        auto rhs = read(static_cast<std::uint32_t>(ins.c));
        if (!lhs || !rhs) return false;
        auto out = combine(*lhs, *rhs, ins.op == Op::kAdd ? 1 : -1);
        if (!out) return false;
        return write(static_cast<std::uint32_t>(ins.a), std::move(*out));
      }
      case Op::kNeg: {
        if (!ri.numeric) return false;
        auto v = read(static_cast<std::uint32_t>(ins.b));
        if (!v) return false;
        auto out = combine(num_const(0.0), *v, -1);
        if (!out) return false;
        return write(static_cast<std::uint32_t>(ins.a), std::move(*out));
      }
      case Op::kCallGlobalField: {
        // Only the math.random(m) single-result shape folds into a draw.
        if (ri.callee == nullptr || ri.callee != host_.math_random_native()) return false;
        if (ri.callee->builtin != NativeFunction::Builtin::kMathRandom) return false;
        const std::int32_t nargs = ins.d & 0xffff;
        const std::int32_t nres = ins.d >> 16;
        if (nargs != 1 || nres != 1) return false;
        auto arg = read(static_cast<std::uint32_t>(ins.a) + 1);
        if (!arg) return false;
        auto modulus = to_entry_expr(*arg);
        if (!modulus) return false;
        spec_.random_ics.push_back(ins.ic);
        const int draw_id = static_cast<int>(draws_.size());
        draws_.push_back(std::move(*modulus));
        AbsVal result = num_const(1.0);  // math.random(m) = 1 + draw % m
        result.draw = draw_id;
        return write(static_cast<std::uint32_t>(ins.a), std::move(result));
      }
      case Op::kGetField:
      case Op::kMethodCall: {
        if (ri.mt == nullptr) return false;
        std::uint32_t obj_reg;
        std::int32_t nargs = 0;
        std::int32_t nres;
        if (ins.op == Op::kGetField) {
          obj_reg = static_cast<std::uint32_t>(ins.b);
          nres = 1;
        } else {
          const std::int32_t obj_hi = ins.d >= 0 ? (ins.d >> 16) : 0;
          nargs = obj_hi != 0 ? (ins.d & 0xffff) : ins.d;
          obj_reg = obj_hi != 0 ? static_cast<std::uint32_t>(obj_hi - 1)
                                : static_cast<std::uint32_t>(ins.a);
          nres = ins.c;
          if (nargs < 0) return false;  // multi-argument protocol
        }
        auto obj = read(obj_reg);
        if (!obj || obj->kind != AbsVal::Kind::kView) return false;
        switch (ri.tag.kind) {
          case TraceTag::Kind::kDeref: {
            if (nargs != 0 || nres > 1) return false;
            AbsVal view = *obj;
            if (ri.tag.carries_field) {
              view.has_field = true;
              view.fbase = core::FieldRef{ri.tag.offset, ri.tag.width};
            }
            if (nres == 1) return write(static_cast<std::uint32_t>(ins.a), std::move(view));
            if (nres < 0) {
              // Multi-result protocol (`local pkt = buf:getUdpPacket()`): the
              // VM parks the single view in the pending window until ADJUST
              // materializes it into registers.
              pending_.assign(1, std::move(view));
              pending_valid_ = true;
            }
            return true;
          }
          case TraceTag::Kind::kWrite: {
            if (nargs != 1 || nres > 1 || nres < 0) return false;
            core::FieldRef field;
            if (ri.tag.relative) {
              if (!obj->has_field) return false;
              field = obj->fbase;
            } else {
              field = core::FieldRef{ri.tag.offset, ri.tag.width};
            }
            auto arg = read(static_cast<std::uint32_t>(ins.a) + 1);
            if (!arg) return false;
            if (!emit_action(field, *arg)) return false;
            if (nres == 1) {
              AbsVal nil;
              nil.kind = AbsVal::Kind::kNil;
              return write(static_cast<std::uint32_t>(ins.a), nil);
            }
            return true;
          }
          case TraceTag::Kind::kNone:
            return false;  // opaque method
        }
        return false;
      }
      case Op::kAdjust: {
        // Materializes the pending multi-result window into regs [a, a+b),
        // padding with nil — mirrors the VM's kAdjust exactly.
        if (!pending_valid_) return false;
        for (std::int32_t i = 0; i < ins.b; ++i) {
          AbsVal v;
          if (static_cast<std::size_t>(i) < pending_.size()) {
            v = pending_[static_cast<std::size_t>(i)];
          } else {
            v.kind = AbsVal::Kind::kNil;
          }
          if (!write(static_cast<std::uint32_t>(ins.a + i), std::move(v))) return false;
        }
        pending_.clear();
        pending_valid_ = false;
        return true;
      }
      case Op::kJump:
        // Only the loop's own back edge, and only as the final instruction.
        saw_back_edge_ = last && static_cast<std::uint32_t>(ins.a) == trace_.anchor_pc;
        return saw_back_edge_;
      default:
        return false;
    }
  }

  const RecordedTrace& trace_;
  Interpreter& host_;
  std::uint32_t iter_base_ = 0;
  std::uint32_t window_ = 0;
  std::map<std::uint32_t, AbsVal> abs_;
  std::vector<AbsVal> pending_;
  bool pending_valid_ = false;
  std::vector<EntryExpr> draws_;
  std::size_t next_draw_consumed_ = 0;
  std::uint32_t ticks_ = 0;
  bool saw_back_edge_ = false;
  FieldKernelSpec spec_;
};

}  // namespace

// ---------------------------------------------------------------------------
// build_specialization
// ---------------------------------------------------------------------------

std::shared_ptr<const Specialization> build_specialization(RecordedTrace trace,
                                                           Interpreter& host) {
  // The anchor observation: f must have been the ipairs iterator over a
  // packet array (re-checked at every kernel entry via the entry guards).
  auto built = FieldKernelBuilder(trace, host).build();
  if (!built) return nullptr;
  auto spec = std::make_shared<Specialization>();
  spec->field = std::move(*built);
  spec->trace = std::move(trace);
  return spec;
}

// ---------------------------------------------------------------------------
// Field-kernel executor
// ---------------------------------------------------------------------------

namespace {

// Resolves one entry term to its current Value, or nullptr when the source
// is unavailable (upvalue index out of range for this closure).
const Value* term_value(const EntryTerm& t, const Value* regs,
                        const std::vector<std::shared_ptr<Cell>>& upvals) {
  switch (t.src) {
    case EntryTerm::Src::kReg:
      return &regs[t.index];
    case EntryTerm::Src::kGlobal:
      return t.slot;
    case EntryTerm::Src::kUpval:
      return t.index < upvals.size() ? &upvals[t.index]->v : nullptr;
  }
  return nullptr;
}

double eval_expr(const EntryExpr& e, const Value* regs,
                 const std::vector<std::shared_ptr<Cell>>& upvals) {
  double v = e.k;
  for (const EntryTerm& t : e.terms) {
    v += t.coef * term_value(t, regs, upvals)->as_number();
  }
  return v;
}

}  // namespace

void run_field_kernel(const Specialization& spec, const Instr& anchor, Value* regs,
                      ICEntry* ics, const std::vector<std::shared_ptr<Cell>>& upvals,
                      Interpreter& host) {
  const FieldKernelSpec& k = spec.field;

  // --- Entry guards: every recorded assumption, re-verified. -------------
  // Iterator protocol: the ipairs builtin over the recorded array type.
  const auto* nf = regs[anchor.a].native();
  if (nf == nullptr || (*nf)->builtin != NativeFunction::Builtin::kIpairsIter) return;
  const Value& container = regs[anchor.a + 1];
  if (!container.is_userdata()) return;
  const UserData& ud = *container.as_userdata();
  if (ud.methods() != k.array_mt || !k.array_mt->packet_array) return;
  auto* array = ud.as<membuf::BufArray>();
  // Control variable: integral position within the array.
  const Value& ctrl = regs[anchor.a + 2];
  if (!ctrl.is_number()) return;
  const double cd = ctrl.as_number();
  const std::size_t size = array->size();
  if (!(cd >= 0) || std::floor(cd) != cd || cd > static_cast<double>(size)) return;
  const auto next = static_cast<std::size_t>(cd) + 1;
  if (next > size) return;  // exhausted: the generic header exits the loop
  // Entry terms: integral numbers small enough for exact re-association.
  for (const EntryTerm& t : k.guard_terms) {
    const Value* v = term_value(t, regs, upvals);
    if (v == nullptr || !v->is_number()) return;
    const double x = v->as_number();
    if (std::floor(x) != x || std::fabs(x) > kMaxTermMagnitude) return;
  }
  // Folded math.random sites: each IC must still hit and still resolve to
  // the interpreter's math.random (version checks miss in-place
  // reassignment, so the native's identity is compared too).
  stats::Mt19937_64* rng = nullptr;
  if (!k.random_ics.empty()) {
    if (k.random_native == nullptr || k.random_native != host.math_random_native()) return;
    for (const std::uint16_t ic_index : k.random_ics) {
      const ICEntry& ric = ics[ic_index];
      if (ric.tbl == nullptr || ric.global_slot == nullptr || !ric.global_slot->is_table() ||
          ric.global_slot->as_table().get() != ric.tbl ||
          ric.tversion != ric.tbl->version()) {
        return;
      }
      const auto* cached = ric.tslot->native();
      if (cached == nullptr || cached->get() != k.random_native) return;
    }
    rng = host.math_rng();
    if (rng == nullptr) return;
  }

  // --- Bind the modifier program for this entry. --------------------------
  core::ModifierProgram& program = host.field_program();
  program.clear();
  std::size_t count = size - next + 1;
  // Budget bound: only whole packets whose every tick fits; the remainder
  // (and the exhaustion throw) stays with the generic loop.
  const std::uint64_t limit = host.step_limit();
  if (limit != 0) {
    const std::uint64_t taken = host.steps_taken();
    if (taken >= limit) return;
    const std::uint64_t avail = (limit - taken) / k.ticks_per_packet;
    if (avail == 0) return;
    if (avail < count) count = static_cast<std::size_t>(avail);
  }
  for (const ActionRecipe& recipe : k.actions) {
    const double base = eval_expr(recipe.base, regs, upvals);
    core::FieldAction action;
    action.field = recipe.field;
    action.kind = recipe.kind;
    switch (recipe.kind) {
      case core::FieldAction::Kind::kConstant:
        // Out-of-range doubles would hit the generic path's cast behaviour;
        // don't try to replicate it, just stay generic.
        if (!(base >= 0.0) || base > kMaxFieldValue) return;
        action.value = static_cast<std::uint32_t>(base);
        break;
      case core::FieldAction::Kind::kRandom: {
        const double m = eval_expr(recipe.modulus, regs, upvals);
        if (!(m >= 1.0) || m > kMaxFieldValue) return;
        if (!(base >= 0.0) || base + (m - 1.0) > kMaxFieldValue) return;
        action.value = static_cast<std::uint32_t>(base);
        action.range = static_cast<std::uint32_t>(m);
        break;
      }
      case core::FieldAction::Kind::kCounter: {
        const double start = base + static_cast<double>(next);
        if (!(start >= 0.0) || start + static_cast<double>(count - 1) > kMaxFieldValue) return;
        action.value = static_cast<std::uint32_t>(start);
        action.range = 0;  // monotone within the kernel, like the generic add
        break;
      }
    }
    program.add(action);
  }

  // --- Bulk apply. --------------------------------------------------------
  std::size_t done = 0;
  if (rng != nullptr) {
    auto draw = [rng] { return (*rng)(); };
    for (; done < count; ++done) {
      membuf::PktBuf* buf = (*array)[next - 1 + done];
      if (buf == nullptr) break;
      program.apply_with_rng(buf->data(), draw);
    }
  } else {
    auto no_draw = [] { return std::uint64_t{0}; };
    for (; done < count; ++done) {
      membuf::PktBuf* buf = (*array)[next - 1 + done];
      if (buf == nullptr) break;
      program.apply_with_rng(buf->data(), no_draw);
    }
  }
  if (done == 0) return;
  if (limit != 0) host.add_steps(static_cast<std::uint64_t>(done) * k.ticks_per_packet);
  // Hand the loop to the generic header as if it just finished packet
  // `next - 1 + done`: it performs the exhaust-exit (or the next
  // iteration) itself.
  regs[anchor.a + 2] = Value(static_cast<double>(next - 1 + done));
}

}  // namespace moongen::script
