#include "script/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "script/lexer.hpp"

namespace moongen::script {

// Shared binary-op semantics (defined in interpreter.cpp) used here for
// compile-time constant folding so folded results match runtime results.
Value apply_binary_op(int op, const Value& lhs, const Value& rhs, int line);

namespace {

// ---------------------------------------------------------------------------
// Capture analysis
// ---------------------------------------------------------------------------
//
// A local must live in a heap cell (instead of a register) when any nested
// function references its name. We over-approximate by collecting every
// name referenced anywhere inside any nested function at any depth; a
// false positive only costs a box, never changes semantics.

void collect_names(const Block& block, std::set<std::string>& out);

// Names referenced inside a nested function body, minus the function's own
// parameters: a parameter shadows its name for the entire body, so such a
// reference can never reach an enclosing local. Local declarations are NOT
// subtracted — a reference may textually precede the declaration and then
// legally resolves to the outer scope, so dropping those would be unsound.
void collect_nested_fn_names(const std::vector<std::string>& params, const Block& body,
                             std::set<std::string>& out) {
  std::set<std::string> inner;
  collect_names(body, inner);
  for (const auto& p : params) inner.erase(p);
  out.insert(inner.begin(), inner.end());
}

void collect_names(const Expr& expr, std::set<std::string>& out) {
  switch (expr.kind) {
    case ExprKind::kName: out.insert(expr.name); break;
    case ExprKind::kIndex:
      collect_names(*expr.object, out);
      collect_names(*expr.key, out);
      break;
    case ExprKind::kCall:
      collect_names(*expr.callee, out);
      for (const auto& a : expr.args) collect_names(*a, out);
      break;
    case ExprKind::kMethodCall:
      collect_names(*expr.object, out);
      for (const auto& a : expr.args) collect_names(*a, out);
      break;
    case ExprKind::kFunction:
      collect_nested_fn_names(expr.function->params, expr.function->body, out);
      break;
    case ExprKind::kBinary:
      collect_names(*expr.lhs, out);
      collect_names(*expr.rhs, out);
      break;
    case ExprKind::kUnary: collect_names(*expr.rhs, out); break;
    case ExprKind::kTable:
      for (const auto& item : expr.items) {
        if (item.expr_key) collect_names(*item.expr_key, out);
        collect_names(*item.value, out);
      }
      break;
    default: break;
  }
}

void collect_names(const Stmt& stmt, std::set<std::string>& out) {
  for (const auto& e : stmt.exprs) collect_names(*e, out);
  for (const auto& t : stmt.targets) collect_names(*t, out);
  if (stmt.expr) collect_names(*stmt.expr, out);
  if (stmt.condition) collect_names(*stmt.condition, out);
  if (stmt.for_start) collect_names(*stmt.for_start, out);
  if (stmt.for_stop) collect_names(*stmt.for_stop, out);
  if (stmt.for_step) collect_names(*stmt.for_step, out);
  for (const auto& b : stmt.branches) {
    collect_names(*b.condition, out);
    collect_names(b.body, out);
  }
  collect_names(stmt.else_body, out);
  collect_names(stmt.body, out);
  if (!stmt.func_path.empty()) out.insert(stmt.func_path.front());
  if (stmt.function) collect_nested_fn_names(stmt.function->params, stmt.function->body, out);
}

void collect_names(const Block& block, std::set<std::string>& out) {
  for (const auto& s : block) collect_names(*s, out);
}

/// Names referenced inside any function nested in `block` (not counting
/// `block`'s own statements outside those functions).
void collect_captured(const Block& block, std::set<std::string>& out);

void collect_captured(const Expr& expr, std::set<std::string>& out) {
  switch (expr.kind) {
    case ExprKind::kFunction:
      collect_nested_fn_names(expr.function->params, expr.function->body, out);
      break;
    case ExprKind::kIndex:
      collect_captured(*expr.object, out);
      collect_captured(*expr.key, out);
      break;
    case ExprKind::kCall:
      collect_captured(*expr.callee, out);
      for (const auto& a : expr.args) collect_captured(*a, out);
      break;
    case ExprKind::kMethodCall:
      collect_captured(*expr.object, out);
      for (const auto& a : expr.args) collect_captured(*a, out);
      break;
    case ExprKind::kBinary:
      collect_captured(*expr.lhs, out);
      collect_captured(*expr.rhs, out);
      break;
    case ExprKind::kUnary: collect_captured(*expr.rhs, out); break;
    case ExprKind::kTable:
      for (const auto& item : expr.items) {
        if (item.expr_key) collect_captured(*item.expr_key, out);
        collect_captured(*item.value, out);
      }
      break;
    default: break;
  }
}

void collect_captured(const Stmt& stmt, std::set<std::string>& out) {
  for (const auto& e : stmt.exprs) collect_captured(*e, out);
  for (const auto& t : stmt.targets) collect_captured(*t, out);
  if (stmt.expr) collect_captured(*stmt.expr, out);
  if (stmt.condition) collect_captured(*stmt.condition, out);
  if (stmt.for_start) collect_captured(*stmt.for_start, out);
  if (stmt.for_stop) collect_captured(*stmt.for_stop, out);
  if (stmt.for_step) collect_captured(*stmt.for_step, out);
  for (const auto& b : stmt.branches) {
    collect_captured(*b.condition, out);
    collect_captured(b.body, out);
  }
  collect_captured(stmt.else_body, out);
  collect_captured(stmt.body, out);
  if (stmt.function) collect_nested_fn_names(stmt.function->params, stmt.function->body, out);
}

void collect_captured(const Block& block, std::set<std::string>& out) {
  for (const auto& s : block) collect_captured(*s, out);
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct FuncState {
  FuncState* parent = nullptr;
  bool toplevel = false;
  std::uint32_t proto_index = 0;
  FunctionProto proto;

  struct Local {
    std::string name;
    bool is_cell = false;
    std::uint32_t idx = 0;   // register or cell index
    std::uint32_t depth = 0;
  };
  std::vector<Local> locals;
  std::vector<std::string> upval_names;  // parallel to proto.upvals
  std::uint32_t depth = 0;
  std::uint32_t reg_top = 0;
  std::uint32_t cell_top = 0;
  std::set<std::string> captured;
  std::vector<std::vector<std::size_t>> breaks;  // pending break jumps per loop
  std::map<double, std::int32_t> num_consts;
  std::map<std::string, std::int32_t> str_consts;
};

class Compiler {
 public:
  explicit Compiler(Chunk& chunk) : chunk_(chunk) {}

  std::uint32_t compile_function(const std::vector<std::string>& params, const Block& body,
                                 std::string name, FuncState* parent, bool toplevel) {
    const auto index = static_cast<std::uint32_t>(chunk_.protos.size());
    chunk_.protos.emplace_back();  // reserve the slot; filled at the end

    FuncState fs;
    fs.parent = parent;
    fs.toplevel = toplevel;
    fs.proto_index = index;
    fs.proto.name = std::move(name);
    fs.proto.num_params = static_cast<std::uint32_t>(params.size());
    collect_captured(body, fs.captured);

    // Arguments arrive in registers [0, nparams); captured ones are moved
    // into fresh cells by a prologue so closures can box them.
    fs.reg_top = fs.proto.num_regs = fs.proto.num_params;
    for (std::uint32_t i = 0; i < params.size(); ++i) {
      FuncState::Local local{params[i], fs.captured.contains(params[i]), 0, 0};
      if (local.is_cell) {
        local.idx = fs.cell_top++;
        emit(fs, Op::kNewCell, static_cast<std::int32_t>(local.idx), 0, 0, 0, 0);
        emit(fs, Op::kCellSet, static_cast<std::int32_t>(local.idx),
             static_cast<std::int32_t>(i), 0, 0, 0);
      } else {
        local.idx = i;
      }
      fs.locals.push_back(std::move(local));
    }

    compile_block(fs, body);
    emit(fs, Op::kReturn, 0, 0, 0, 0, 0);  // implicit empty return

    fs.proto.num_cells = std::max(fs.proto.num_cells, fs.cell_top);
    chunk_.protos[index] = std::move(fs.proto);
    return index;
  }

 private:
  Chunk& chunk_;

  // --- emission helpers ----------------------------------------------------

  std::size_t emit(FuncState& fs, Op op, std::int32_t a, std::int32_t b, std::int32_t c,
                   std::int32_t d, std::int32_t line, std::uint16_t ic = 0) {
    fs.proto.code.push_back(Instr{op, ic, a, b, c, d, line});
    return fs.proto.code.size() - 1;
  }

  std::uint16_t new_ic() { return static_cast<std::uint16_t>(chunk_.num_ics++); }

  std::size_t here(const FuncState& fs) const { return fs.proto.code.size(); }

  void patch_jump(FuncState& fs, std::size_t at, std::size_t target) {
    Instr& ins = fs.proto.code[at];
    if (ins.op == Op::kJump) {
      ins.a = static_cast<std::int32_t>(target);
    } else {
      ins.b = static_cast<std::int32_t>(target);
    }
  }

  std::int32_t const_index(FuncState& fs, const Value& v) {
    if (v.is_number()) {
      const auto it = fs.num_consts.find(v.as_number());
      if (it != fs.num_consts.end()) return it->second;
    } else if (v.is_string()) {
      const auto it = fs.str_consts.find(v.as_string());
      if (it != fs.str_consts.end()) return it->second;
    }
    const auto idx = static_cast<std::int32_t>(fs.proto.consts.size());
    fs.proto.consts.push_back(v);
    if (v.is_number()) fs.num_consts[v.as_number()] = idx;
    if (v.is_string()) fs.str_consts[v.as_string()] = idx;
    return idx;
  }

  std::uint32_t alloc_reg(FuncState& fs) {
    const auto r = fs.reg_top++;
    fs.proto.num_regs = std::max(fs.proto.num_regs, fs.reg_top);
    return r;
  }

  std::uint32_t alloc_regs(FuncState& fs, std::uint32_t n) {
    const auto r = fs.reg_top;
    fs.reg_top += n;
    fs.proto.num_regs = std::max(fs.proto.num_regs, fs.reg_top);
    return r;
  }

  // --- scopes and name resolution ------------------------------------------

  struct Scope {
    std::size_t nlocals;
    std::uint32_t reg_top;
    std::uint32_t cell_top;
  };

  Scope open_scope(FuncState& fs) {
    ++fs.depth;
    return Scope{fs.locals.size(), fs.reg_top, fs.cell_top};
  }

  void close_scope(FuncState& fs, const Scope& s) {
    --fs.depth;
    fs.locals.resize(s.nlocals);
    fs.reg_top = s.reg_top;
    fs.cell_top = s.cell_top;
  }

  FuncState::Local* find_local(FuncState& fs, const std::string& name) {
    for (auto it = fs.locals.rbegin(); it != fs.locals.rend(); ++it) {
      if (it->name == name) return &*it;
    }
    return nullptr;
  }

  std::int32_t find_upval(FuncState& fs, const std::string& name) {
    for (std::size_t i = 0; i < fs.upval_names.size(); ++i) {
      if (fs.upval_names[i] == name) return static_cast<std::int32_t>(i);
    }
    if (fs.parent == nullptr) return -1;
    if (const auto* l = find_local(*fs.parent, name)) {
      // Capture analysis guarantees a referenced-enclosing local is a cell.
      if (!l->is_cell) return -1;
      fs.proto.upvals.push_back(UpvalDesc{true, l->idx});
      fs.upval_names.push_back(name);
      return static_cast<std::int32_t>(fs.upval_names.size() - 1);
    }
    const std::int32_t up = find_upval(*fs.parent, name);
    if (up < 0) return -1;
    fs.proto.upvals.push_back(UpvalDesc{false, static_cast<std::uint32_t>(up)});
    fs.upval_names.push_back(name);
    return static_cast<std::int32_t>(fs.upval_names.size() - 1);
  }

  void emit_name_get(FuncState& fs, const std::string& name, std::uint32_t target,
                     std::int32_t line) {
    if (const auto* l = find_local(fs, name)) {
      if (l->is_cell) {
        emit(fs, Op::kCellGet, static_cast<std::int32_t>(target),
             static_cast<std::int32_t>(l->idx), 0, 0, line);
      } else if (l->idx != target) {
        emit(fs, Op::kMove, static_cast<std::int32_t>(target),
             static_cast<std::int32_t>(l->idx), 0, 0, line);
      }
      return;
    }
    const std::int32_t up = find_upval(fs, name);
    if (up >= 0) {
      emit(fs, Op::kUpGet, static_cast<std::int32_t>(target), up, 0, 0, line);
      return;
    }
    emit(fs, Op::kGetGlobal, static_cast<std::int32_t>(target), const_index(fs, Value(name)), 0,
         0, line, new_ic());
  }

  void emit_name_set(FuncState& fs, const std::string& name, std::uint32_t src,
                     std::int32_t line) {
    if (const auto* l = find_local(fs, name)) {
      if (l->is_cell) {
        emit(fs, Op::kCellSet, static_cast<std::int32_t>(l->idx),
             static_cast<std::int32_t>(src), 0, 0, line);
      } else if (l->idx != src) {
        emit(fs, Op::kMove, static_cast<std::int32_t>(l->idx), static_cast<std::int32_t>(src), 0,
             0, line);
      }
      return;
    }
    const std::int32_t up = find_upval(fs, name);
    if (up >= 0) {
      emit(fs, Op::kUpSet, up, static_cast<std::int32_t>(src), 0, 0, line);
      return;
    }
    emit(fs, Op::kSetGlobal, static_cast<std::int32_t>(src), const_index(fs, Value(name)), 0, 0,
         line, new_ic());
  }

  /// True at the top level outside any block: locals there are globals, as
  /// in the tree-walker (whose top-level scope *is* the global table).
  static bool direct_toplevel(const FuncState& fs) { return fs.toplevel && fs.depth == 0; }

  /// Declares a local holding the value currently in `src`. Re-declaring a
  /// name in the same scope reuses its slot (the tree-walker overwrites the
  /// same environment entry, which existing closures observe).
  void bind_local(FuncState& fs, const std::string& name, std::uint32_t src, std::int32_t line) {
    for (auto it = fs.locals.rbegin(); it != fs.locals.rend() && it->depth == fs.depth; ++it) {
      if (it->name == name) {
        if (it->is_cell) {
          emit(fs, Op::kCellSet, static_cast<std::int32_t>(it->idx),
               static_cast<std::int32_t>(src), 0, 0, line);
        } else if (it->idx != src) {
          emit(fs, Op::kMove, static_cast<std::int32_t>(it->idx),
               static_cast<std::int32_t>(src), 0, 0, line);
        }
        return;
      }
    }
    FuncState::Local local{name, fs.captured.contains(name), 0, fs.depth};
    if (local.is_cell) {
      local.idx = fs.cell_top++;
      fs.proto.num_cells = std::max(fs.proto.num_cells, fs.cell_top);
      emit(fs, Op::kNewCell, static_cast<std::int32_t>(local.idx), 0, 0, 0, line);
      emit(fs, Op::kCellSet, static_cast<std::int32_t>(local.idx),
           static_cast<std::int32_t>(src), 0, 0, line);
    } else {
      local.idx = src;  // the value's register becomes the local's home
    }
    fs.locals.push_back(std::move(local));
  }

  // --- constant folding ----------------------------------------------------

  std::optional<Value> try_const(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNil: return Value();
      case ExprKind::kTrue: return Value(true);
      case ExprKind::kFalse: return Value(false);
      case ExprKind::kNumber: return Value(expr.number);
      case ExprKind::kString: return Value(expr.string);
      case ExprKind::kUnary: {
        const auto v = try_const(*expr.rhs);
        if (!v) return std::nullopt;
        const auto type = static_cast<TokenType>(expr.op);
        if (type == TokenType::kNot) return Value(!v->truthy());
        if (type == TokenType::kMinus && v->is_number()) return Value(-v->as_number());
        if (type == TokenType::kHash && v->is_string())
          return Value(static_cast<double>(v->as_string().size()));
        return std::nullopt;  // would error at runtime — keep it there
      }
      case ExprKind::kBinary: {
        const auto type = static_cast<TokenType>(expr.op);
        const auto l = try_const(*expr.lhs);
        if (!l) return std::nullopt;
        if (type == TokenType::kAnd) return l->truthy() ? try_const(*expr.rhs) : l;
        if (type == TokenType::kOr) return l->truthy() ? l : try_const(*expr.rhs);
        const auto r = try_const(*expr.rhs);
        if (!r) return std::nullopt;
        if (type == TokenType::kEq) return Value(l->equals(*r));
        if (type == TokenType::kNe) return Value(!l->equals(*r));
        const bool numeric = l->is_number() && r->is_number();
        const bool string_pair = l->is_string() && r->is_string();
        const bool concat_ok = (l->is_number() || l->is_string()) &&
                               (r->is_number() || r->is_string());
        const bool relational = type == TokenType::kLt || type == TokenType::kLe ||
                                type == TokenType::kGt || type == TokenType::kGe;
        if (type == TokenType::kConcat ? concat_ok : (numeric || (string_pair && relational)))
          return apply_binary_op(expr.op, *l, *r, expr.line);
        return std::nullopt;
      }
      default: return std::nullopt;
    }
  }

  void emit_load_const(FuncState& fs, const Value& v, std::uint32_t target, std::int32_t line) {
    if (v.is_nil()) {
      emit(fs, Op::kLoadNil, static_cast<std::int32_t>(target), 0, 0, 0, line);
    } else if (v.is_bool()) {
      emit(fs, Op::kLoadBool, static_cast<std::int32_t>(target), v.as_bool() ? 1 : 0, 0, 0,
           line);
    } else {
      emit(fs, Op::kLoadConst, static_cast<std::int32_t>(target), const_index(fs, v), 0, 0,
           line);
    }
  }

  // --- expressions ---------------------------------------------------------

  static bool is_multi(const Expr& e) {
    return e.kind == ExprKind::kCall || e.kind == ExprKind::kMethodCall;
  }

  /// Compiles `expr` into an operand register without forcing a copy:
  /// register locals are read in place, everything else lands in a temp.
  std::uint32_t compile_operand(FuncState& fs, const Expr& expr) {
    if (expr.kind == ExprKind::kName) {
      if (const auto* l = find_local(fs, expr.name); l != nullptr && !l->is_cell) return l->idx;
    }
    const auto t = alloc_reg(fs);
    compile_expr_to(fs, expr, t);
    return t;
  }

  void compile_expr_to(FuncState& fs, const Expr& expr, std::uint32_t target) {
    if (const auto folded = try_const(expr)) {
      emit_load_const(fs, *folded, target, expr.line);
      return;
    }
    switch (expr.kind) {
      case ExprKind::kNil:
      case ExprKind::kTrue:
      case ExprKind::kFalse:
      case ExprKind::kNumber:
      case ExprKind::kString:
        // handled by try_const above
        return;
      case ExprKind::kName:
        emit_name_get(fs, expr.name, target, expr.line);
        return;
      case ExprKind::kIndex: {
        const auto saved = fs.reg_top;
        const auto obj = compile_operand(fs, *expr.object);
        if (expr.key->kind == ExprKind::kString) {
          emit(fs, Op::kGetField, static_cast<std::int32_t>(target),
               static_cast<std::int32_t>(obj), const_index(fs, Value(expr.key->string)), 0,
               expr.line, new_ic());
        } else {
          const auto key = compile_operand(fs, *expr.key);
          emit(fs, Op::kGetIndex, static_cast<std::int32_t>(target),
               static_cast<std::int32_t>(obj), static_cast<std::int32_t>(key), 0, expr.line);
        }
        fs.reg_top = saved;
        return;
      }
      case ExprKind::kCall:
      case ExprKind::kMethodCall: {
        const auto saved = fs.reg_top;
        const auto base = compile_call(fs, expr, 1);
        fs.reg_top = saved;
        if (base != target) {
          emit(fs, Op::kMove, static_cast<std::int32_t>(target),
               static_cast<std::int32_t>(base), 0, 0, expr.line);
        }
        return;
      }
      case ExprKind::kFunction: {
        const auto proto = compile_function(expr.function->params, expr.function->body,
                                            expr.function->name, &fs, false);
        emit(fs, Op::kClosure, static_cast<std::int32_t>(target),
             static_cast<std::int32_t>(proto), 0, 0, expr.line);
        return;
      }
      case ExprKind::kUnary: {
        const auto saved = fs.reg_top;
        const auto operand = compile_operand(fs, *expr.rhs);
        const auto type = static_cast<TokenType>(expr.op);
        const Op op = type == TokenType::kNot   ? Op::kNot
                      : type == TokenType::kMinus ? Op::kNeg
                                                  : Op::kLen;
        emit(fs, op, static_cast<std::int32_t>(target), static_cast<std::int32_t>(operand), 0, 0,
             expr.line);
        fs.reg_top = saved;
        return;
      }
      case ExprKind::kBinary: {
        const auto type = static_cast<TokenType>(expr.op);
        if (type == TokenType::kAnd || type == TokenType::kOr) {
          // Value-preserving short circuit: lhs stays in `target` when it
          // decides the result (Lua returns the operand, not a boolean).
          compile_expr_to(fs, *expr.lhs, target);
          const auto jump =
              emit(fs, type == TokenType::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue,
                   static_cast<std::int32_t>(target), 0, 0, 0, expr.line);
          compile_expr_to(fs, *expr.rhs, target);
          patch_jump(fs, jump, here(fs));
          return;
        }
        const auto saved = fs.reg_top;
        const auto lhs = compile_operand(fs, *expr.lhs);
        const auto rhs = compile_operand(fs, *expr.rhs);
        emit(fs, binary_opcode(type), static_cast<std::int32_t>(target),
             static_cast<std::int32_t>(lhs), static_cast<std::int32_t>(rhs), 0, expr.line);
        fs.reg_top = saved;
        return;
      }
      case ExprKind::kTable: {
        emit(fs, Op::kNewTable, static_cast<std::int32_t>(target), 0, 0, 0, expr.line);
        double next_index = 1;
        for (const auto& item : expr.items) {
          const auto saved = fs.reg_top;
          const auto key = alloc_reg(fs);
          if (item.name_key.has_value()) {
            emit_load_const(fs, Value(*item.name_key), key, expr.line);
          } else if (item.expr_key) {
            compile_expr_to(fs, *item.expr_key, key);
            // The tree-walker validates the key *before* evaluating the value.
            emit(fs, Op::kCheckKey, static_cast<std::int32_t>(key), 0, 0, 0, expr.line);
          } else {
            emit_load_const(fs, Value(next_index), key, expr.line);
            next_index += 1;
          }
          const auto val = alloc_reg(fs);
          compile_expr_to(fs, *item.value, val);
          emit(fs, Op::kTableSet, static_cast<std::int32_t>(target),
               static_cast<std::int32_t>(key), static_cast<std::int32_t>(val), 0, expr.line);
          fs.reg_top = saved;
        }
        return;
      }
    }
  }

  static Op binary_opcode(TokenType type) {
    switch (type) {
      case TokenType::kPlus: return Op::kAdd;
      case TokenType::kMinus: return Op::kSub;
      case TokenType::kStar: return Op::kMul;
      case TokenType::kSlash: return Op::kDiv;
      case TokenType::kPercent: return Op::kMod;
      case TokenType::kCaret: return Op::kPow;
      case TokenType::kConcat: return Op::kConcat;
      case TokenType::kEq: return Op::kEq;
      case TokenType::kNe: return Op::kNe;
      case TokenType::kLt: return Op::kLt;
      case TokenType::kLe: return Op::kLe;
      case TokenType::kGt: return Op::kGt;
      case TokenType::kGe: return Op::kGe;
      default: return Op::kAdd;  // unreachable for parsed programs
    }
  }

  /// Argument that compiles to non-throwing, side-effect-free register
  /// loads: a literal or any name (locals/upvalues/globals all read without
  /// observable effects — an undefined global reads nil). Only such args
  /// allow moving the callee's field resolution to the call instruction.
  static bool effect_free_arg(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNil:
      case ExprKind::kTrue:
      case ExprKind::kFalse:
      case ExprKind::kNumber:
      case ExprKind::kString:
      case ExprKind::kName: return true;
      default: return false;
    }
  }

  /// Compiles a call/method-call. nres >= 0: that many results are placed
  /// at the returned base register. nres == kMultiValues: raw results go
  /// to the frame's pending multi-value buffer.
  std::uint32_t compile_call(FuncState& fs, const Expr& expr, std::int32_t nres) {
    // Direct-call site for `G.f(args...)` where G is a global and every
    // argument is an effect-free load: the generic sequence's only
    // observable step before the call (the field index, which can throw)
    // commutes with the argument loads, so the callee lookup can be fused
    // into the call instruction and served from an inline cache without
    // copying the global table or the callee into registers.
    if (expr.kind == ExprKind::kCall && nres >= 0 && nres <= 0x7fff &&
        expr.callee->kind == ExprKind::kIndex &&
        expr.callee->key->kind == ExprKind::kString &&
        expr.callee->object->kind == ExprKind::kName &&
        find_local(fs, expr.callee->object->name) == nullptr &&
        find_upval(fs, expr.callee->object->name) < 0 &&
        expr.args.size() <= 0x7fff &&
        std::all_of(expr.args.begin(), expr.args.end(),
                    [](const ExprPtr& a) { return effect_free_arg(*a); })) {
      const auto base = alloc_reg(fs);
      const std::int32_t nargs = compile_args(fs, expr.args, base + 1);
      emit(fs, Op::kCallGlobalField, static_cast<std::int32_t>(base),
           const_index(fs, Value(expr.callee->object->name)),
           const_index(fs, Value(expr.callee->key->string)), nargs | (nres << 16),
           expr.line, new_ic());
      if (nres > 0) {
        fs.reg_top = std::max(fs.reg_top, base + static_cast<std::uint32_t>(nres));
        fs.proto.num_regs = std::max(fs.proto.num_regs, fs.reg_top);
      }
      return base;
    }
    const auto base = alloc_reg(fs);
    std::int32_t nargs = 0;
    if (expr.kind == ExprKind::kCall) {
      compile_expr_to(fs, *expr.callee, base);
      nargs = compile_args(fs, expr.args, base + 1);
      emit(fs, Op::kCall, static_cast<std::int32_t>(base), nargs, nres, 0, expr.line);
    } else {
      // Object that is a plain (non-cell) local: skip copying it into the
      // call window — the instruction reads it from its home register. A
      // local read has no effects, so reordering it after the args (or
      // omitting it) is unobservable.
      std::int32_t obj_home = -1;
      if (expr.object->kind == ExprKind::kName) {
        if (const auto* l = find_local(fs, expr.object->name);
            l != nullptr && !l->is_cell && l->idx <= 0x7ffe) {
          obj_home = static_cast<std::int32_t>(l->idx);
        }
      }
      if (obj_home < 0) compile_expr_to(fs, *expr.object, base);
      nargs = compile_args(fs, expr.args, base + 1);
      std::int32_t d = nargs;
      if (obj_home >= 0) {
        if (nargs >= 0) {
          d = nargs | ((obj_home + 1) << 16);
        } else {
          // Multi-arg calls keep the generic encoding: load the object now.
          emit(fs, Op::kMove, static_cast<std::int32_t>(base), obj_home, 0, 0, expr.line);
        }
      }
      emit(fs, Op::kMethodCall, static_cast<std::int32_t>(base),
           const_index(fs, Value(expr.method)), nres, d, expr.line, new_ic());
    }
    if (nres > 0) {
      fs.reg_top = std::max(fs.reg_top, base + static_cast<std::uint32_t>(nres));
      fs.proto.num_regs = std::max(fs.proto.num_regs, fs.reg_top);
    }
    return base;
  }

  /// Compiles arguments into consecutive registers from `at`; returns the
  /// nargs encoding (negative: fixed args plus the pending multi buffer).
  std::int32_t compile_args(FuncState& fs, const std::vector<ExprPtr>& args, std::uint32_t at) {
    if (args.empty()) return 0;
    const std::size_t n = args.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto r = alloc_reg(fs);
      (void)r;  // regs are consecutive: at, at+1, ...
      compile_expr_to(fs, *args[i], at + static_cast<std::uint32_t>(i));
      fs.reg_top = at + static_cast<std::uint32_t>(i) + 1;
    }
    const Expr& last = *args[n - 1];
    if (is_multi(last)) {
      const auto saved = fs.reg_top;
      compile_call(fs, last, kMultiValues);
      fs.reg_top = saved;
      return -static_cast<std::int32_t>(n);  // (n-1) fixed + pending
    }
    const auto r = alloc_reg(fs);
    (void)r;
    compile_expr_to(fs, last, at + static_cast<std::uint32_t>(n - 1));
    fs.reg_top = at + static_cast<std::uint32_t>(n);
    return static_cast<std::int32_t>(n);
  }

  /// Compiles an expression list so exactly `want` values land in
  /// registers [dest, dest + want) — the tree-walker's evaluate_list with
  /// multi-value expansion of the final expression.
  void compile_explist(FuncState& fs, const std::vector<ExprPtr>& exprs, std::uint32_t dest,
                       std::uint32_t want, std::int32_t line) {
    if (exprs.empty()) {
      for (std::uint32_t j = 0; j < want; ++j)
        emit(fs, Op::kLoadNil, static_cast<std::int32_t>(dest + j), 0, 0, 0, line);
      return;
    }
    const std::size_t n = exprs.size();
    for (std::size_t i = 0; i < n; ++i) {
      const bool last = i + 1 == n;
      const auto slot = dest + static_cast<std::uint32_t>(i);
      if (!last) {
        if (i < want) {
          compile_expr_to(fs, *exprs[i], slot);
          fs.reg_top = std::max(fs.reg_top, slot + 1);
        } else {
          // Extra expressions are still evaluated for their side effects.
          const auto saved = fs.reg_top;
          const auto t = alloc_reg(fs);
          compile_expr_to(fs, *exprs[i], t);
          fs.reg_top = saved;
        }
        continue;
      }
      if (is_multi(*exprs[i])) {
        const auto saved = fs.reg_top;
        compile_call(fs, *exprs[i], kMultiValues);
        fs.reg_top = saved;
        if (i < want) {
          emit(fs, Op::kAdjust, static_cast<std::int32_t>(slot),
               static_cast<std::int32_t>(want - i), 0, 0, line);
          fs.reg_top = std::max(fs.reg_top, dest + want);
        } else {
          emit(fs, Op::kAdjust, 0, 0, 0, 0, line);  // drop pending results
        }
      } else {
        if (i < want) {
          compile_expr_to(fs, *exprs[i], slot);
          fs.reg_top = std::max(fs.reg_top, slot + 1);
        } else {
          const auto saved = fs.reg_top;
          const auto t = alloc_reg(fs);
          compile_expr_to(fs, *exprs[i], t);
          fs.reg_top = saved;
        }
        for (std::size_t j = n; j < want; ++j)
          emit(fs, Op::kLoadNil, static_cast<std::int32_t>(dest + j), 0, 0, 0, line);
      }
    }
  }

  // --- statements ----------------------------------------------------------

  void compile_block(FuncState& fs, const Block& block) {
    for (const auto& stmt : block) compile_stmt(fs, *stmt);
  }

  void compile_scoped_block(FuncState& fs, const Block& block) {
    const auto scope = open_scope(fs);
    compile_block(fs, block);
    close_scope(fs, scope);
  }

  void compile_stmt(FuncState& fs, const Stmt& stmt) {
    // Mirrors the tree-walker's count_step at execute() entry: one budget
    // tick per executed statement, before its effects.
    emit(fs, Op::kCheckStep, 0, 0, 0, 0, stmt.line);
    switch (stmt.kind) {
      case StmtKind::kLocal: compile_local(fs, stmt); return;
      case StmtKind::kAssign: compile_assign(fs, stmt); return;
      case StmtKind::kExpr: {
        const auto saved = fs.reg_top;
        if (is_multi(*stmt.expr)) {
          compile_call(fs, *stmt.expr, 0);  // results discarded
        } else {
          const auto t = alloc_reg(fs);
          compile_expr_to(fs, *stmt.expr, t);
        }
        fs.reg_top = saved;
        return;
      }
      case StmtKind::kIf: compile_if(fs, stmt); return;
      case StmtKind::kWhile: compile_while(fs, stmt); return;
      case StmtKind::kRepeat: compile_repeat(fs, stmt); return;
      case StmtKind::kNumericFor: compile_numeric_for(fs, stmt); return;
      case StmtKind::kGenericFor: compile_generic_for(fs, stmt); return;
      case StmtKind::kFunctionDecl: compile_function_decl(fs, stmt); return;
      case StmtKind::kReturn: compile_return(fs, stmt); return;
      case StmtKind::kBreak: {
        if (!fs.breaks.empty()) {
          fs.breaks.back().push_back(emit(fs, Op::kJump, 0, 0, 0, 0, stmt.line));
        } else {
          // break outside a loop unwinds the function (the tree-walker's
          // break flow escaping a body yields an empty return).
          emit(fs, Op::kReturn, 0, 0, 0, 0, stmt.line);
        }
        return;
      }
      case StmtKind::kDo: compile_scoped_block(fs, stmt.body); return;
    }
  }

  void compile_local(FuncState& fs, const Stmt& stmt) {
    const auto n = static_cast<std::uint32_t>(stmt.names.size());
    const auto dest = alloc_regs(fs, n);
    compile_explist(fs, stmt.exprs, dest, n, stmt.line);
    if (direct_toplevel(fs)) {
      // Top-level locals are globals (see direct_toplevel).
      for (std::uint32_t i = 0; i < n; ++i) {
        emit(fs, Op::kSetGlobal, static_cast<std::int32_t>(dest + i),
             const_index(fs, Value(stmt.names[i])), 0, 0, stmt.line, new_ic());
      }
      fs.reg_top = dest;
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) bind_local(fs, stmt.names[i], dest + i, stmt.line);
    fs.reg_top = dest + n;
  }

  void compile_assign(FuncState& fs, const Stmt& stmt) {
    const auto saved = fs.reg_top;
    const auto n = static_cast<std::uint32_t>(stmt.targets.size());
    const auto vals = alloc_regs(fs, n);
    compile_explist(fs, stmt.exprs, vals, n, stmt.line);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Expr& target = *stmt.targets[i];
      if (target.kind == ExprKind::kName) {
        emit_name_set(fs, target.name, vals + i, target.line);
        continue;
      }
      const auto inner = fs.reg_top;
      const auto obj = compile_operand(fs, *target.object);
      const auto key = compile_operand(fs, *target.key);
      emit(fs, Op::kSetIndex, static_cast<std::int32_t>(obj), static_cast<std::int32_t>(key),
           static_cast<std::int32_t>(vals + i), 0, target.line);
      fs.reg_top = inner;
    }
    fs.reg_top = saved;
  }

  void compile_if(FuncState& fs, const Stmt& stmt) {
    std::vector<std::size_t> end_jumps;
    for (const auto& branch : stmt.branches) {
      const auto saved = fs.reg_top;
      const auto cond = compile_operand(fs, *branch.condition);
      const auto skip = emit(fs, Op::kJumpIfFalse, static_cast<std::int32_t>(cond), 0, 0, 0,
                             branch.condition->line);
      fs.reg_top = saved;
      compile_scoped_block(fs, branch.body);
      end_jumps.push_back(emit(fs, Op::kJump, 0, 0, 0, 0, stmt.line));
      patch_jump(fs, skip, here(fs));
    }
    if (stmt.has_else) compile_scoped_block(fs, stmt.else_body);
    for (const auto j : end_jumps) patch_jump(fs, j, here(fs));
  }

  void compile_while(FuncState& fs, const Stmt& stmt) {
    const auto top = here(fs);
    const auto saved = fs.reg_top;
    const auto cond = compile_operand(fs, *stmt.condition);
    const auto exit_jump =
        emit(fs, Op::kJumpIfFalse, static_cast<std::int32_t>(cond), 0, 0, 0, stmt.line);
    fs.reg_top = saved;
    emit(fs, Op::kCheckStep, 0, 0, 0, 0, stmt.line);  // per-iteration tick
    fs.breaks.emplace_back();
    compile_scoped_block(fs, stmt.body);
    emit(fs, Op::kJump, static_cast<std::int32_t>(top), 0, 0, 0, stmt.line);
    patch_jump(fs, exit_jump, here(fs));
    for (const auto j : fs.breaks.back()) patch_jump(fs, j, here(fs));
    fs.breaks.pop_back();
  }

  void compile_repeat(FuncState& fs, const Stmt& stmt) {
    const auto top = here(fs);
    emit(fs, Op::kCheckStep, 0, 0, 0, 0, stmt.line);
    fs.breaks.emplace_back();
    const auto scope = open_scope(fs);
    compile_block(fs, stmt.body);
    // `until` sees the loop body's locals (Lua scoping rule).
    const auto cond = compile_operand(fs, *stmt.condition);
    emit(fs, Op::kJumpIfFalse, static_cast<std::int32_t>(cond),
         static_cast<std::int32_t>(top), 0, 0, stmt.line);
    close_scope(fs, scope);
    for (const auto j : fs.breaks.back()) patch_jump(fs, j, here(fs));
    fs.breaks.pop_back();
  }

  void compile_numeric_for(FuncState& fs, const Stmt& stmt) {
    const auto outer = fs.reg_top;
    // Internal i/stop/step triple survives the whole loop; the user loop
    // variable is a separate per-iteration local (mutating it must not
    // steer the iteration — the tree-walker iterates on its own double).
    const auto base = alloc_regs(fs, 3);
    // Bounds are converted as they are evaluated, matching the
    // tree-walker's evaluate(start).as_number() sequencing: a non-number
    // start throws before the stop expression runs.
    compile_expr_to(fs, *stmt.for_start, base);
    emit(fs, Op::kToNum, static_cast<std::int32_t>(base), 0, 0, 0, stmt.line);
    compile_expr_to(fs, *stmt.for_stop, base + 1);
    emit(fs, Op::kToNum, static_cast<std::int32_t>(base + 1), 0, 0, 0, stmt.line);
    if (stmt.for_step) {
      compile_expr_to(fs, *stmt.for_step, base + 2);
      emit(fs, Op::kToNum, static_cast<std::int32_t>(base + 2), 0, 0, 0, stmt.line);
    } else {
      emit_load_const(fs, Value(1.0), base + 2, stmt.line);
    }
    emit(fs, Op::kForPrep, static_cast<std::int32_t>(base), 0, 0, 0, stmt.line);
    const auto test = emit(fs, Op::kForTest, static_cast<std::int32_t>(base), 0, 0, 0, stmt.line);
    emit(fs, Op::kCheckStep, 0, 0, 0, 0, stmt.line);
    fs.breaks.emplace_back();
    const auto scope = open_scope(fs);
    const auto var = alloc_reg(fs);
    emit(fs, Op::kMove, static_cast<std::int32_t>(var), static_cast<std::int32_t>(base), 0, 0,
         stmt.line);
    bind_local(fs, stmt.loop_var, var, stmt.line);
    compile_block(fs, stmt.body);
    close_scope(fs, scope);
    emit(fs, Op::kForNext, static_cast<std::int32_t>(base), static_cast<std::int32_t>(test), 0,
         0, stmt.line);
    patch_jump(fs, test, here(fs));
    for (const auto j : fs.breaks.back()) patch_jump(fs, j, here(fs));
    fs.breaks.pop_back();
    fs.reg_top = outer;
  }

  void compile_generic_for(FuncState& fs, const Stmt& stmt) {
    const auto outer = fs.reg_top;
    const auto nres = static_cast<std::int32_t>(std::max<std::size_t>(stmt.names.size(), 1));
    // f, s, ctrl persist across iterations; the call window w holds the
    // per-round f(s, ctrl) invocation and its results.
    const auto iter = alloc_regs(fs, 3);
    compile_explist(fs, stmt.exprs, iter, 3, stmt.line);
    const auto w = alloc_regs(fs, static_cast<std::uint32_t>(nres) + 2);
    const auto top = here(fs);
    // One fused instruction per iteration: budget tick, f(s, ctrl) call
    // leaving f/s/ctrl in place, exit-if-nil (d: target, patched below) and
    // the ctrl update — the kCheckStep/kJumpIfNil/kMove sequence it
    // replaces, with identical observable order.
    // Also the trace anchor: the IC slot carries the hotness counter and
    // any installed field-kernel specialization.
    const auto forin_call =
        emit(fs, Op::kForInCall, static_cast<std::int32_t>(iter), static_cast<std::int32_t>(w),
             nres, 0, stmt.line, new_ic());
    fs.breaks.emplace_back();
    const auto scope = open_scope(fs);
    for (std::size_t i = 0; i < stmt.names.size(); ++i) {
      // Loop variables live directly in the result window: each iteration's
      // store refreshes them, and a body assignment only affects that
      // iteration (ctrl is already saved). Captured names still get a fresh
      // cell per iteration via bind_local.
      bind_local(fs, stmt.names[i], w + static_cast<std::uint32_t>(i), stmt.line);
    }
    compile_block(fs, stmt.body);
    close_scope(fs, scope);
    emit(fs, Op::kJump, static_cast<std::int32_t>(top), 0, 0, 0, stmt.line);
    fs.proto.code[forin_call].d = static_cast<std::int32_t>(here(fs));
    for (const auto j : fs.breaks.back()) patch_jump(fs, j, here(fs));
    fs.breaks.pop_back();
    fs.reg_top = outer;
  }

  void compile_function_decl(FuncState& fs, const Stmt& stmt) {
    const auto saved = fs.reg_top;
    if (stmt.is_local_function && !direct_toplevel(fs)) {
      // Declare first so the body's self-reference resolves to the local
      // (recursion); the cell exists before the closure captures it.
      const auto home = alloc_reg(fs);
      emit(fs, Op::kLoadNil, static_cast<std::int32_t>(home), 0, 0, 0, stmt.line);
      bind_local(fs, stmt.func_path[0], home, stmt.line);
      const auto proto = compile_function(stmt.function->params, stmt.function->body,
                                          stmt.function->name, &fs, false);
      const auto t = alloc_reg(fs);
      emit(fs, Op::kClosure, static_cast<std::int32_t>(t), static_cast<std::int32_t>(proto), 0,
           0, stmt.line);
      emit_name_set(fs, stmt.func_path[0], t, stmt.line);
      fs.reg_top = saved + 1;  // keep the local's home register alive
      return;
    }
    const auto proto = compile_function(stmt.function->params, stmt.function->body,
                                        stmt.function->name, &fs, false);
    const auto t = alloc_reg(fs);
    emit(fs, Op::kClosure, static_cast<std::int32_t>(t), static_cast<std::int32_t>(proto), 0, 0,
         stmt.line);
    if (stmt.is_local_function || stmt.func_path.size() == 1) {
      // Non-local single-name declarations assign through the scope chain
      // and fall back to a global — exactly emit_name_set's resolution.
      // (At the direct top level both forms write the global table.)
      emit_name_set(fs, stmt.func_path[0], t, stmt.line);
    } else {
      const auto container = alloc_reg(fs);
      emit_name_get(fs, stmt.func_path[0], container, stmt.line);
      for (std::size_t i = 1; i + 1 < stmt.func_path.size(); ++i) {
        emit(fs, Op::kPathMid, static_cast<std::int32_t>(container),
             static_cast<std::int32_t>(container), const_index(fs, Value(stmt.func_path[i])), 0,
             stmt.line);
      }
      emit(fs, Op::kPathSet, static_cast<std::int32_t>(container),
           const_index(fs, Value(stmt.func_path.back())), static_cast<std::int32_t>(t), 0,
           stmt.line);
    }
    fs.reg_top = saved;
  }

  void compile_return(FuncState& fs, const Stmt& stmt) {
    const auto saved = fs.reg_top;
    const std::size_t n = stmt.exprs.size();
    if (n == 0) {
      emit(fs, Op::kReturn, 0, 0, 0, 0, stmt.line);
      return;
    }
    const auto base = fs.reg_top;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto r = alloc_reg(fs);
      compile_expr_to(fs, *stmt.exprs[i], r);
      fs.reg_top = base + static_cast<std::uint32_t>(i) + 1;
    }
    const Expr& last = *stmt.exprs[n - 1];
    if (is_multi(last)) {
      const auto inner = fs.reg_top;
      compile_call(fs, last, kMultiValues);
      fs.reg_top = inner;
      emit(fs, Op::kReturn, static_cast<std::int32_t>(base),
           -static_cast<std::int32_t>(n), 0, 0, stmt.line);
    } else {
      const auto r = alloc_reg(fs);
      compile_expr_to(fs, last, r);
      emit(fs, Op::kReturn, static_cast<std::int32_t>(base), static_cast<std::int32_t>(n), 0, 0,
           stmt.line);
    }
    fs.reg_top = saved;
  }
};

}  // namespace

std::shared_ptr<const Chunk> compile_program(const Program& program) {
  auto chunk = std::make_shared<Chunk>();
  Compiler compiler(*chunk);
  chunk->top_level = compiler.compile_function({}, program.block, "main", nullptr, true);
  return chunk;
}

const char* op_name(Op op) {
  static constexpr const char* kNames[] = {
      "LOADK",   "LOADNIL", "LOADBOOL", "MOVE",    "GETGLOBAL", "SETGLOBAL", "NEWCELL",
      "CELLGET", "CELLSET", "UPGET",    "UPSET",   "ADD",       "SUB",       "MUL",
      "DIV",     "MOD",     "POW",      "CONCAT",  "EQ",        "NE",        "LT",
      "LE",      "GT",      "GE",       "NOT",     "NEG",       "LEN",       "JMP",
      "JF",      "JT",      "JNIL",     "GETIDX",  "GETFIELD",  "SETIDX",    "NEWTABLE",
      "CHECKKEY", "TSET",   "CALL",     "MCALL",   "GFCALL",    "FORINCALL", "RET",
      "ADJUST",   "CLOSURE",
      "TONUM",   "FORPREP", "FORTEST",  "FORNEXT", "PATHMID",   "PATHSET",   "CHECKSTEP",
  };
  return kNames[static_cast<int>(op)];
}

namespace {

// Constant operand rendering: strings quoted so `LOADK r1 <- "src"` and
// `LOADK r1 <- 26` are distinguishable in listings.
std::string const_repr(const FunctionProto& proto, std::int32_t index) {
  if (index < 0 || static_cast<std::size_t>(index) >= proto.consts.size()) {
    return "k?" + std::to_string(index);
  }
  const Value& v = proto.consts[static_cast<std::size_t>(index)];
  if (v.is_string()) return "\"" + v.as_string() + "\"";
  return v.to_display_string();
}

// nargs/nres operand encoding (kMultiValues protocol, see compiler.hpp).
std::string count_repr(std::int32_t enc) {
  if (enc >= 0) return std::to_string(enc);
  return std::to_string(-enc - 1) + "+multi";
}

}  // namespace

std::string disassemble_instr(const FunctionProto& proto, const Instr& ins) {
  std::ostringstream os;
  os << op_name(ins.op) << "\t";
  switch (ins.op) {
    case Op::kLoadConst:
      os << "r" << ins.a << " <- " << const_repr(proto, ins.b);
      break;
    case Op::kGetGlobal:
      os << "r" << ins.a << " <- " << const_repr(proto, ins.b) << " [ic " << ins.ic << "]";
      break;
    case Op::kSetGlobal:
      os << const_repr(proto, ins.b) << " <- r" << ins.a << " [ic " << ins.ic << "]";
      break;
    case Op::kGetField:
      os << "r" << ins.a << " <- r" << ins.b << "." << const_repr(proto, ins.c) << " [ic "
         << ins.ic << "]";
      break;
    case Op::kCall:
      os << "r" << ins.a << " nargs=" << count_repr(ins.b) << " nres=" << count_repr(ins.c);
      break;
    case Op::kMethodCall: {
      // In-place receiver encoding: d >= 0 with a non-zero high half names
      // the object's home register; otherwise the object sits in r[a].
      const std::int32_t obj_hi = ins.d >= 0 ? (ins.d >> 16) : 0;
      const std::int32_t nargs = obj_hi != 0 ? (ins.d & 0xffff) : ins.d;
      const std::int32_t obj = obj_hi != 0 ? obj_hi - 1 : ins.a;
      os << "r" << obj << ":" << const_repr(proto, ins.b) << " nargs=" << count_repr(nargs)
         << " nres=" << ins.c << " -> r" << ins.a << " [ic " << ins.ic << "]";
      break;
    }
    case Op::kCallGlobalField:
      os << proto.consts[static_cast<std::size_t>(ins.b)].as_string() << "."
         << proto.consts[static_cast<std::size_t>(ins.c)].as_string()
         << " nargs=" << (ins.d & 0xffff) << " nres=" << (ins.d >> 16) << " -> r" << ins.a
         << " [ic " << ins.ic << "]";
      break;
    case Op::kForInCall:
      os << "iter=r" << ins.a << " vars=r" << ins.b << "..r" << (ins.b + ins.c - 1)
         << " exit=" << ins.d << " [ic " << ins.ic << "]";
      break;
    case Op::kForTest:
      os << "i=r" << ins.a << " exit=" << ins.b;
      break;
    case Op::kForNext:
      os << "i=r" << ins.a << " -> " << ins.b;
      break;
    case Op::kJump:
      os << "-> " << ins.a;
      break;
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kJumpIfNil:
      os << "r" << ins.a << " -> " << ins.b;
      break;
    default:
      os << ins.a << " " << ins.b << " " << ins.c << " " << ins.d;
      break;
  }
  return os.str();
}

std::string disassemble(const Chunk& chunk) {
  std::ostringstream os;
  for (std::size_t p = 0; p < chunk.protos.size(); ++p) {
    const auto& proto = chunk.protos[p];
    os << "proto " << p << " <" << proto.name << "> params=" << proto.num_params
       << " regs=" << proto.num_regs << " cells=" << proto.num_cells
       << " upvals=" << proto.upvals.size() << "\n";
    for (std::size_t i = 0; i < proto.code.size(); ++i) {
      os << "  " << i << "\t" << disassemble_instr(proto, proto.code[i]) << "\n";
    }
  }
  return os.str();
}

}  // namespace moongen::script
