#include "script/interpreter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <random>
#include <thread>

#include "script/compiler.hpp"
#include "script/lexer.hpp"
#include "script/vm.hpp"

namespace moongen::script {

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

Value Environment::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  return parent_ ? parent_->get(name) : Value();
}

bool Environment::assign(const std::string& name, const Value& value) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    it->second = value;
    return true;
  }
  return parent_ ? parent_->assign(name, value) : false;
}

// ---------------------------------------------------------------------------
// Argument helpers
// ---------------------------------------------------------------------------

double arg_number(const std::vector<Value>& args, std::size_t index, const char* what) {
  if (index >= args.size() || !args[index].is_number())
    throw ScriptError(std::string(what) + ": argument " + std::to_string(index + 1) +
                      " must be a number");
  return args[index].as_number();
}

std::string arg_string(const std::vector<Value>& args, std::size_t index, const char* what) {
  if (index >= args.size() || !args[index].is_string())
    throw ScriptError(std::string(what) + ": argument " + std::to_string(index + 1) +
                      " must be a string");
  return args[index].as_string();
}

std::shared_ptr<Table> arg_table(const std::vector<Value>& args, std::size_t index,
                                 const char* what) {
  if (index >= args.size() || !args[index].is_table())
    throw ScriptError(std::string(what) + ": argument " + std::to_string(index + 1) +
                      " must be a table");
  return args[index].as_table();
}

std::shared_ptr<UserData> arg_userdata(const std::vector<Value>& args, std::size_t index,
                                       const char* what, const MethodTable* expected) {
  if (index >= args.size() || !args[index].is_userdata())
    throw ScriptError(std::string(what) + ": argument " + std::to_string(index + 1) +
                      " must be userdata");
  auto ud = args[index].as_userdata();
  if (expected != nullptr && ud->methods() != expected)
    throw ScriptError(std::string(what) + ": argument " + std::to_string(index + 1) +
                      " must be " + expected->type_name + ", got " + ud->type_name());
  return ud;
}

Value make_native(std::string name, NativeFn fn) {
  return Value(
      std::make_shared<NativeFunction>(NativeFunction{std::move(name), std::move(fn), nullptr}));
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter(std::shared_ptr<const Program> program)
    : program_(std::move(program)), globals_(std::make_shared<Environment>()) {
  install_base_library();
}

Interpreter::~Interpreter() {
  for (const auto& weak : captured_envs_) {
    if (const auto env = weak.lock()) env->clear();
  }
}

Value Interpreter::make_closure(const FunctionDecl& decl,
                                const std::shared_ptr<Environment>& env) {
  if (captured_envs_.size() >= prune_captured_at_) {
    std::erase_if(captured_envs_, [](const auto& weak) { return weak.expired(); });
    prune_captured_at_ = std::max<std::size_t>(64, 2 * captured_envs_.size());
  }
  captured_envs_.push_back(env);
  auto fn = std::make_shared<ScriptFunction>();
  fn->decl = &decl;
  fn->closure = env;
  fn->name = decl.name;
  return Value(std::move(fn));
}

void Interpreter::ensure_compiled() {
  if (!chunk_) chunk_ = compile_program(*program_);
}

Vm& Interpreter::vm() {
  if (!vm_) vm_ = std::make_unique<Vm>(*this);
  return *vm_;
}

std::vector<Value> Interpreter::call_compiled(const std::shared_ptr<VmClosure>& closure,
                                              std::vector<Value>& args) {
  return vm().call_closure(closure, args);
}

void Interpreter::set_global(const std::string& name, Value value) {
  globals_->declare(name, std::move(value));
}

Value Interpreter::get_global(const std::string& name) const { return globals_->get(name); }

void Interpreter::run() {
  if (tree_walk_) {
    const auto flow = execute_block(program_->block, globals_);
    (void)flow;
    return;
  }
  ensure_compiled();
  vm().run_toplevel(chunk_);
}

std::vector<Value> Interpreter::call_global(const std::string& name, std::vector<Value> args) {
  const Value fn = globals_->get(name);
  if (!fn.is_callable()) throw ScriptError("global '" + name + "' is not a function");
  return call(fn, std::move(args));
}

std::vector<Value> Interpreter::call(const Value& callee, std::vector<Value> args, int line) {
  if (const auto* nf = callee.native()) return (*nf)->fn(*this, args);
  if (const auto* sf = callee.script_fn()) {
    const auto& fn = **sf;
    auto env = std::make_shared<Environment>(fn.closure);
    for (std::size_t i = 0; i < fn.decl->params.size(); ++i) {
      env->declare(fn.decl->params[i], i < args.size() ? args[i] : Value());
    }
    auto flow = execute_block(fn.decl->body, env);
    if (flow.kind == Flow::Kind::kReturn) return std::move(flow.values);
    return {};
  }
  throw ScriptError("attempt to call a " + callee.type_name() + " value", line);
}

void Interpreter::step_budget_exceeded(int line) {
  throw ScriptError("script exceeded its execution budget", line);
}

// --- statements -------------------------------------------------------------

Interpreter::Flow Interpreter::execute_block(const Block& block,
                                             const std::shared_ptr<Environment>& env) {
  for (const auto& stmt : block) {
    auto flow = execute(*stmt, env);
    if (flow.kind != Flow::Kind::kNormal) return flow;
  }
  return {};
}

Interpreter::Flow Interpreter::execute(const Stmt& stmt, const std::shared_ptr<Environment>& env) {
  count_step(stmt.line);
  switch (stmt.kind) {
    case StmtKind::kLocal: {
      auto values = evaluate_list(stmt.exprs, env);
      for (std::size_t i = 0; i < stmt.names.size(); ++i) {
        env->declare(stmt.names[i], i < values.size() ? values[i] : Value());
      }
      return {};
    }
    case StmtKind::kAssign: {
      auto values = evaluate_list(stmt.exprs, env);
      for (std::size_t i = 0; i < stmt.targets.size(); ++i) {
        assign_target(*stmt.targets[i], i < values.size() ? values[i] : Value(), env);
      }
      return {};
    }
    case StmtKind::kExpr: {
      (void)evaluate_multi(*stmt.expr, env);
      return {};
    }
    case StmtKind::kIf: {
      for (const auto& branch : stmt.branches) {
        if (evaluate(*branch.condition, env).truthy()) {
          auto scope = std::make_shared<Environment>(env);
          return execute_block(branch.body, scope);
        }
      }
      if (stmt.has_else) {
        auto scope = std::make_shared<Environment>(env);
        return execute_block(stmt.else_body, scope);
      }
      return {};
    }
    case StmtKind::kWhile: {
      while (evaluate(*stmt.condition, env).truthy()) {
        count_step(stmt.line);
        auto scope = std::make_shared<Environment>(env);
        auto flow = execute_block(stmt.body, scope);
        if (flow.kind == Flow::Kind::kBreak) break;
        if (flow.kind == Flow::Kind::kReturn) return flow;
      }
      return {};
    }
    case StmtKind::kRepeat: {
      while (true) {
        count_step(stmt.line);
        auto scope = std::make_shared<Environment>(env);
        auto flow = execute_block(stmt.body, scope);
        if (flow.kind == Flow::Kind::kBreak) break;
        if (flow.kind == Flow::Kind::kReturn) return flow;
        // `until` sees the loop body's locals (Lua scoping rule).
        if (evaluate(*stmt.condition, scope).truthy()) break;
      }
      return {};
    }
    case StmtKind::kNumericFor: {
      const double start = evaluate(*stmt.for_start, env).as_number();
      const double stop = evaluate(*stmt.for_stop, env).as_number();
      const double step = stmt.for_step ? evaluate(*stmt.for_step, env).as_number() : 1.0;
      if (step == 0) throw ScriptError("for step must not be zero", stmt.line);
      for (double i = start; step > 0 ? i <= stop : i >= stop; i += step) {
        count_step(stmt.line);
        auto scope = std::make_shared<Environment>(env);
        scope->declare(stmt.loop_var, Value(i));
        auto flow = execute_block(stmt.body, scope);
        if (flow.kind == Flow::Kind::kBreak) break;
        if (flow.kind == Flow::Kind::kReturn) return flow;
      }
      return {};
    }
    case StmtKind::kGenericFor: {
      // for n1, n2 in explist do ... end — the Lua iterator protocol:
      // explist evaluates to (f, s, ctrl); each round calls f(s, ctrl).
      auto iter = evaluate_list(stmt.exprs, env);
      iter.resize(3);
      const Value f = iter[0];
      const Value s = iter[1];
      Value ctrl = iter[2];
      while (true) {
        count_step(stmt.line);
        auto results = call(f, {s, ctrl}, stmt.line);
        if (results.empty() || results[0].is_nil()) break;
        ctrl = results[0];
        auto scope = std::make_shared<Environment>(env);
        for (std::size_t i = 0; i < stmt.names.size(); ++i) {
          scope->declare(stmt.names[i], i < results.size() ? results[i] : Value());
        }
        auto flow = execute_block(stmt.body, scope);
        if (flow.kind == Flow::Kind::kBreak) break;
        if (flow.kind == Flow::Kind::kReturn) return flow;
      }
      return {};
    }
    case StmtKind::kFunctionDecl: {
      const Value fn_value = make_closure(*stmt.function, env);
      if (stmt.is_local_function || stmt.func_path.size() == 1) {
        if (stmt.is_local_function) {
          env->declare(stmt.func_path[0], fn_value);
        } else if (!env->assign(stmt.func_path[0], fn_value)) {
          globals_->declare(stmt.func_path[0], fn_value);
        }
      } else {
        // function a.b.c(...) — walk the table path.
        Value container = env->get(stmt.func_path[0]);
        for (std::size_t i = 1; i + 1 < stmt.func_path.size(); ++i) {
          if (!container.is_table())
            throw ScriptError("cannot declare function in non-table", stmt.line);
          container = container.as_table()->get(Table::Key{stmt.func_path[i]});
        }
        if (!container.is_table())
          throw ScriptError("cannot declare function in non-table", stmt.line);
        container.as_table()->set(Table::Key{stmt.func_path.back()}, fn_value);
      }
      return {};
    }
    case StmtKind::kReturn: {
      Flow flow;
      flow.kind = Flow::Kind::kReturn;
      flow.values = evaluate_list(stmt.exprs, env);
      return flow;
    }
    case StmtKind::kBreak: {
      Flow flow;
      flow.kind = Flow::Kind::kBreak;
      return flow;
    }
    case StmtKind::kDo: {
      auto scope = std::make_shared<Environment>(env);
      return execute_block(stmt.body, scope);
    }
  }
  return {};
}

// --- expressions -------------------------------------------------------------

std::vector<Value> Interpreter::evaluate_list(const std::vector<ExprPtr>& exprs,
                                              const std::shared_ptr<Environment>& env) {
  std::vector<Value> values;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    if (i + 1 == exprs.size()) {
      // The last expression expands all of its results.
      auto multi = evaluate_multi(*exprs[i], env);
      for (auto& v : multi) values.push_back(std::move(v));
    } else {
      values.push_back(evaluate(*exprs[i], env));
    }
  }
  return values;
}

std::vector<Value> Interpreter::evaluate_multi(const Expr& expr,
                                               const std::shared_ptr<Environment>& env) {
  if (expr.kind == ExprKind::kCall) {
    const Value callee = evaluate(*expr.callee, env);
    auto args = evaluate_list(expr.args, env);
    return call(callee, std::move(args), expr.line);
  }
  if (expr.kind == ExprKind::kMethodCall) {
    const Value object = evaluate(*expr.object, env);
    auto args = evaluate_list(expr.args, env);
    if (object.is_userdata()) {
      auto& ud = *object.as_userdata();
      const auto it = ud.methods()->methods.find(expr.method);
      if (it == ud.methods()->methods.end())
        throw ScriptError("no method '" + expr.method + "' on " + ud.type_name(), expr.line);
      return it->second(*this, ud, args);
    }
    if (object.is_table()) {
      const Value fn = object.as_table()->get(Table::Key{expr.method});
      args.insert(args.begin(), object);  // self
      return call(fn, std::move(args), expr.line);
    }
    throw ScriptError("attempt to call method '" + expr.method + "' on a " +
                          object.type_name() + " value",
                      expr.line);
  }
  return {evaluate(expr, env)};
}

Value Interpreter::evaluate(const Expr& expr, const std::shared_ptr<Environment>& env) {
  switch (expr.kind) {
    case ExprKind::kNil: return Value();
    case ExprKind::kTrue: return Value(true);
    case ExprKind::kFalse: return Value(false);
    case ExprKind::kNumber: return Value(expr.number);
    case ExprKind::kString: return Value(expr.string);
    case ExprKind::kName: return env->get(expr.name);
    case ExprKind::kIndex: {
      const Value object = evaluate(*expr.object, env);
      const Value key = evaluate(*expr.key, env);
      return index_value(object, key, expr.line);
    }
    case ExprKind::kCall:
    case ExprKind::kMethodCall: {
      auto results = evaluate_multi(expr, env);
      return results.empty() ? Value() : results[0];
    }
    case ExprKind::kFunction: return make_closure(*expr.function, env);
    case ExprKind::kUnary: {
      if (expr.op == static_cast<int>(TokenType::kNot))
        return Value(!evaluate(*expr.rhs, env).truthy());
      const Value v = evaluate(*expr.rhs, env);
      if (expr.op == static_cast<int>(TokenType::kMinus)) {
        if (!v.is_number()) throw ScriptError("attempt to negate a " + v.type_name(), expr.line);
        return Value(-v.as_number());
      }
      // '#': length of table array part or string.
      if (v.is_string()) return Value(static_cast<double>(v.as_string().size()));
      if (v.is_table()) return Value(static_cast<double>(v.as_table()->array_size()));
      if (v.is_userdata()) {
        auto& ud = *v.as_userdata();
        const auto it = ud.methods()->methods.find("__len");
        if (it != ud.methods()->methods.end()) {
          std::vector<Value> no_args;
          auto r = it->second(*this, ud, no_args);
          return r.empty() ? Value() : r[0];
        }
      }
      throw ScriptError("attempt to get length of a " + v.type_name(), expr.line);
    }
    case ExprKind::kBinary:
      return binary_op(expr.op, *expr.lhs, *expr.rhs, env, expr.line);
    case ExprKind::kTable: {
      auto table = std::make_shared<Table>();
      double next_index = 1;
      for (const auto& item : expr.items) {
        if (item.name_key.has_value()) {
          table->set(Table::Key{*item.name_key}, evaluate(*item.value, env));
        } else if (item.expr_key) {
          const Value key = evaluate(*item.expr_key, env);
          if (key.is_number()) {
            table->set(Table::Key{key.as_number()}, evaluate(*item.value, env));
          } else if (key.is_string()) {
            table->set(Table::Key{key.as_string()}, evaluate(*item.value, env));
          } else {
            throw ScriptError("table key must be a number or string", expr.line);
          }
        } else {
          table->set(Table::Key{next_index}, evaluate(*item.value, env));
          next_index += 1;
        }
      }
      return Value(std::move(table));
    }
  }
  return Value();
}

Value Interpreter::binary_op(int op, const Expr& lhs_expr, const Expr& rhs_expr,
                             const std::shared_ptr<Environment>& env, int line) {
  const auto type = static_cast<TokenType>(op);
  // Short-circuit logic returns the operand value (Lua semantics).
  if (type == TokenType::kAnd) {
    Value lhs = evaluate(lhs_expr, env);
    return lhs.truthy() ? evaluate(rhs_expr, env) : lhs;
  }
  if (type == TokenType::kOr) {
    Value lhs = evaluate(lhs_expr, env);
    return lhs.truthy() ? lhs : evaluate(rhs_expr, env);
  }

  const Value lhs = evaluate(lhs_expr, env);
  const Value rhs = evaluate(rhs_expr, env);
  return apply_binary_op(op, lhs, rhs, line);
}

Value apply_binary_op(int op, const Value& lhs, const Value& rhs, int line) {
  const auto type = static_cast<TokenType>(op);
  if (type == TokenType::kEq) return Value(lhs.equals(rhs));
  if (type == TokenType::kNe) return Value(!lhs.equals(rhs));
  if (type == TokenType::kConcat) {
    if ((lhs.is_string() || lhs.is_number()) && (rhs.is_string() || rhs.is_number()))
      return Value(lhs.to_display_string() + rhs.to_display_string());
    throw ScriptError("attempt to concatenate a " +
                          (lhs.is_string() || lhs.is_number() ? rhs : lhs).type_name(),
                      line);
  }

  if (lhs.is_string() && rhs.is_string()) {
    switch (type) {
      case TokenType::kLt: return Value(lhs.as_string() < rhs.as_string());
      case TokenType::kLe: return Value(lhs.as_string() <= rhs.as_string());
      case TokenType::kGt: return Value(lhs.as_string() > rhs.as_string());
      case TokenType::kGe: return Value(lhs.as_string() >= rhs.as_string());
      default: break;
    }
  }

  if (!lhs.is_number() || !rhs.is_number()) {
    throw ScriptError("attempt to perform arithmetic/comparison on a " +
                          (lhs.is_number() ? rhs : lhs).type_name() + " value",
                      line);
  }
  const double a = lhs.as_number();
  const double b = rhs.as_number();
  switch (type) {
    case TokenType::kPlus: return Value(a + b);
    case TokenType::kMinus: return Value(a - b);
    case TokenType::kStar: return Value(a * b);
    case TokenType::kSlash: return Value(a / b);
    case TokenType::kPercent: return Value(a - std::floor(a / b) * b);  // Lua modulo
    case TokenType::kCaret: return Value(std::pow(a, b));
    case TokenType::kLt: return Value(a < b);
    case TokenType::kLe: return Value(a <= b);
    case TokenType::kGt: return Value(a > b);
    case TokenType::kGe: return Value(a >= b);
    default: throw ScriptError("bad binary operator", line);
  }
}

Value Interpreter::index_value(const Value& object, const Value& key, int line) {
  if (object.is_table()) {
    if (key.is_number()) return object.as_table()->get(Table::Key{key.as_number()});
    if (key.is_string()) return object.as_table()->get(Table::Key{key.as_string()});
    return Value();
  }
  if (object.is_userdata()) {
    auto& ud = *object.as_userdata();
    if (key.is_number() && ud.methods()->index_number) {
      return ud.methods()->index_number(*this, ud, key.as_number());
    }
    if (key.is_string()) {
      // Methods are visible as fields too (f = obj.method).
      const auto it = ud.methods()->methods.find(key.as_string());
      if (it != ud.methods()->methods.end()) {
        const Method method = it->second;
        auto self = object.as_userdata();
        return make_native(key.as_string(),
                           [method, self](Interpreter& interp, std::vector<Value>& args) {
                             return method(interp, *self, args);
                           });
      }
    }
    if (ud.methods()->index) {
      const std::string field = key.is_string() ? key.as_string() : key.to_display_string();
      return ud.methods()->index(*this, ud, field);
    }
    throw ScriptError("cannot index " + ud.type_name() + " with '" + key.to_display_string() +
                          "'",
                      line);
  }
  throw ScriptError("attempt to index a " + object.type_name() + " value", line);
}

void Interpreter::assign_target(const Expr& target, const Value& value,
                                const std::shared_ptr<Environment>& env) {
  if (target.kind == ExprKind::kName) {
    if (!env->assign(target.name, value)) globals_->declare(target.name, value);
    return;
  }
  // Index assignment: obj.key = v / obj[k] = v.
  const Value object = evaluate(*target.object, env);
  const Value key = evaluate(*target.key, env);
  if (object.is_table()) {
    if (key.is_number()) {
      object.as_table()->set(Table::Key{key.as_number()}, value);
    } else if (key.is_string()) {
      object.as_table()->set(Table::Key{key.as_string()}, value);
    } else {
      throw ScriptError("invalid table key", target.line);
    }
    return;
  }
  throw ScriptError("attempt to index a " + object.type_name() + " value", target.line);
}

// ---------------------------------------------------------------------------
// Base library
// ---------------------------------------------------------------------------

void Interpreter::install_base_library() {
  set_global("print", make_native("print", [](Interpreter&, std::vector<Value>& args) {
               std::string line;
               for (std::size_t i = 0; i < args.size(); ++i) {
                 if (i > 0) line += "\t";
                 line += args[i].to_display_string();
               }
               std::cout << line << "\n";
               return std::vector<Value>{};
             }));

  set_global("tostring", make_native("tostring", [](Interpreter&, std::vector<Value>& args) {
               return std::vector<Value>{
                   Value(args.empty() ? "nil" : args[0].to_display_string())};
             }));

  set_global("tonumber", make_native("tonumber", [](Interpreter&, std::vector<Value>& args) {
               if (!args.empty() && args[0].is_number()) return std::vector<Value>{args[0]};
               if (!args.empty() && args[0].is_string()) {
                 char* end = nullptr;
                 const double v = std::strtod(args[0].as_string().c_str(), &end);
                 if (end != args[0].as_string().c_str() && *end == '\0')
                   return std::vector<Value>{Value(v)};
               }
               return std::vector<Value>{Value()};
             }));

  set_global("type", make_native("type", [](Interpreter&, std::vector<Value>& args) {
               return std::vector<Value>{
                   Value(args.empty() ? "nil" : args[0].type_name())};
             }));

  set_global("error", make_native("error", [](Interpreter&, std::vector<Value>& args) {
               throw ScriptError(args.empty() ? "error" : args[0].to_display_string());
               return std::vector<Value>{};  // unreachable
             }));

  set_global("assert", make_native("assert", [](Interpreter&, std::vector<Value>& args) {
               if (args.empty() || !args[0].truthy()) {
                 throw ScriptError(args.size() > 1 ? args[1].to_display_string()
                                                   : "assertion failed!");
               }
               return args;
             }));

  // ipairs: stateless array iterator. Works on tables and on userdata
  // exposing __len / __index_number (bufArray).
  set_global("ipairs", make_native("ipairs", [](Interpreter& interp, std::vector<Value>& args) {
               if (args.empty()) throw ScriptError("ipairs: missing argument");
               Value target = args[0];
               auto iter = make_native(
                   "ipairs_iter", [](Interpreter& in, std::vector<Value>& iter_args) {
                     const Value& container = iter_args[0];
                     const double next = iter_args[1].is_number()
                                             ? iter_args[1].as_number() + 1
                                             : 1;
                     const Value element =
                         in.index_for_iteration(container, next);
                     if (element.is_nil()) return std::vector<Value>{Value()};
                     return std::vector<Value>{Value(next), element};
                   });
               // Let the VM open-code calls to this iterator (same
               // semantics, no argument/result vectors per element).
               (*iter.native())->builtin = NativeFunction::Builtin::kIpairsIter;
               (void)interp;
               return std::vector<Value>{iter, target, Value(0.0)};
             }));

  // pairs over tables: snapshot iteration (sufficient for scripts that
  // accumulate results; mirrors typical usage in the paper's listings).
  set_global("pairs", make_native("pairs", [](Interpreter&, std::vector<Value>& args) {
               auto table = arg_table(args, 0, "pairs");
               auto keys = std::make_shared<std::vector<Table::Key>>();
               for (const auto& [key, value] : table->entries()) keys->push_back(key);
               auto index = std::make_shared<std::size_t>(0);
               auto iter = make_native(
                   "pairs_iter", [table, keys, index](Interpreter&, std::vector<Value>&) {
                     while (*index < keys->size()) {
                       const auto key = (*keys)[(*index)++];
                       const Value value = table->get(key);
                       if (value.is_nil()) continue;  // removed meanwhile
                       const Value key_value = std::holds_alternative<double>(key)
                                                   ? Value(std::get<double>(key))
                                                   : Value(std::get<std::string>(key));
                       return std::vector<Value>{key_value, value};
                     }
                     return std::vector<Value>{Value()};
                   });
               return std::vector<Value>{iter, Value(table), Value()};
             }));

  // math.*
  auto math = std::make_shared<Table>();
  auto rng = std::make_shared<std::mt19937_64>(0x5eed);
  // math.random always yields exactly one number, so the single-result
  // protocol is registered alongside the vector one (same core lambda —
  // identical behaviour by construction; the VM uses fn1 on the hot path).
  const NativeFn1 random1 = [rng](Interpreter&, std::vector<Value>& args) -> Value {
    if (args.empty()) {
      return Value(static_cast<double>((*rng)() >> 11) / 9007199254740992.0);
    }
    const auto m = static_cast<std::uint64_t>(arg_number(args, 0, "math.random"));
    if (args.size() >= 2) {
      const auto lo = static_cast<std::int64_t>(m);
      const auto hi = static_cast<std::int64_t>(arg_number(args, 1, "math.random"));
      return Value(static_cast<double>(
          lo + static_cast<std::int64_t>((*rng)() %
                                         static_cast<std::uint64_t>(hi - lo + 1))));
    }
    return Value(static_cast<double>(1 + (*rng)() % m));
  };
  Value random_fn =
      make_native("math.random", [random1](Interpreter& interp, std::vector<Value>& args) {
        return std::vector<Value>{random1(interp, args)};
      });
  (*random_fn.native())->fn1 = random1;
  // Identity + engine exposed for the trace specializer: kernels that fold
  // math.random(m) draws must pull from this exact engine and verify the
  // call site still resolves to this exact native.
  (*random_fn.native())->builtin = NativeFunction::Builtin::kMathRandom;
  math_rng_ = rng;
  math_random_ = *random_fn.native();
  math->set(Table::Key{"random"}, std::move(random_fn));
  math->set(Table::Key{"randomseed"},
            make_native("math.randomseed", [rng](Interpreter&, std::vector<Value>& args) {
              rng->seed(static_cast<std::uint64_t>(arg_number(args, 0, "math.randomseed")));
              return std::vector<Value>{};
            }));
  math->set(Table::Key{"floor"}, make_native("math.floor", [](Interpreter&, std::vector<Value>& a) {
              return std::vector<Value>{Value(std::floor(arg_number(a, 0, "math.floor")))};
            }));
  math->set(Table::Key{"ceil"}, make_native("math.ceil", [](Interpreter&, std::vector<Value>& a) {
              return std::vector<Value>{Value(std::ceil(arg_number(a, 0, "math.ceil")))};
            }));
  math->set(Table::Key{"abs"}, make_native("math.abs", [](Interpreter&, std::vector<Value>& a) {
              return std::vector<Value>{Value(std::abs(arg_number(a, 0, "math.abs")))};
            }));
  math->set(Table::Key{"min"}, make_native("math.min", [](Interpreter&, std::vector<Value>& a) {
              double best = arg_number(a, 0, "math.min");
              for (std::size_t i = 1; i < a.size(); ++i)
                best = std::min(best, arg_number(a, i, "math.min"));
              return std::vector<Value>{Value(best)};
            }));
  math->set(Table::Key{"max"}, make_native("math.max", [](Interpreter&, std::vector<Value>& a) {
              double best = arg_number(a, 0, "math.max");
              for (std::size_t i = 1; i < a.size(); ++i)
                best = std::max(best, arg_number(a, i, "math.max"));
              return std::vector<Value>{Value(best)};
            }));
  math->set(Table::Key{"huge"}, Value(std::numeric_limits<double>::infinity()));
  set_global("math", Value(math));

  // string.format (the subset scripts use for reporting).
  auto string_lib = std::make_shared<Table>();
  string_lib->set(
      Table::Key{"format"},
      make_native("string.format", [](Interpreter&, std::vector<Value>& args) {
        const std::string fmt = arg_string(args, 0, "string.format");
        std::string out;
        std::size_t arg_index = 1;
        for (std::size_t i = 0; i < fmt.size(); ++i) {
          if (fmt[i] != '%') {
            out.push_back(fmt[i]);
            continue;
          }
          // Collect the specifier.
          std::string spec = "%";
          ++i;
          while (i < fmt.size() && std::string("-+ #0123456789.").find(fmt[i]) != std::string::npos)
            spec.push_back(fmt[i++]);
          if (i >= fmt.size()) throw ScriptError("string.format: bad format");
          const char conv = fmt[i];
          spec.push_back(conv);
          char buf[128];
          switch (conv) {
            case '%': out.push_back('%'); break;
            case 'd': case 'i': {
              std::string s2 = spec.substr(0, spec.size() - 1) + "lld";
              std::snprintf(buf, sizeof(buf), s2.c_str(),
                            static_cast<long long>(arg_number(args, arg_index++, "format")));
              out += buf;
              break;
            }
            case 'f': case 'g': case 'e': {
              std::snprintf(buf, sizeof(buf), spec.c_str(),
                            arg_number(args, arg_index++, "format"));
              out += buf;
              break;
            }
            case 'x': case 'X': {
              const std::string s2 =
                  spec.substr(0, spec.size() - 1) + (conv == 'x' ? "llx" : "llX");
              std::snprintf(buf, sizeof(buf), s2.c_str(),
                            static_cast<unsigned long long>(arg_number(args, arg_index++, "format")));
              out += buf;
              break;
            }
            case 's': {
              if (arg_index >= args.size()) throw ScriptError("string.format: missing argument");
              out += args[arg_index++].to_display_string();
              break;
            }
            default: throw ScriptError(std::string("string.format: unsupported %") + conv);
          }
        }
        return std::vector<Value>{Value(out)};
      }));
  set_global("string", Value(string_lib));

  // string.sub / rep / upper / lower / len / byte.
  string_lib->set(Table::Key{"sub"},
                  make_native("string.sub", [](Interpreter&, std::vector<Value>& args) {
                    const std::string s = arg_string(args, 0, "string.sub");
                    auto norm = [&](double idx) -> std::ptrdiff_t {
                      auto i = static_cast<std::ptrdiff_t>(idx);
                      if (i < 0) i = static_cast<std::ptrdiff_t>(s.size()) + i + 1;
                      return i;
                    };
                    std::ptrdiff_t from = args.size() > 1 ? norm(arg_number(args, 1, "sub")) : 1;
                    std::ptrdiff_t to = args.size() > 2
                                            ? norm(arg_number(args, 2, "sub"))
                                            : static_cast<std::ptrdiff_t>(s.size());
                    from = std::max<std::ptrdiff_t>(from, 1);
                    to = std::min<std::ptrdiff_t>(to, static_cast<std::ptrdiff_t>(s.size()));
                    if (from > to) return std::vector<Value>{Value(std::string())};
                    return std::vector<Value>{Value(s.substr(
                        static_cast<std::size_t>(from - 1), static_cast<std::size_t>(to - from + 1)))};
                  }));
  string_lib->set(Table::Key{"rep"},
                  make_native("string.rep", [](Interpreter&, std::vector<Value>& args) {
                    const std::string s = arg_string(args, 0, "string.rep");
                    const auto n = static_cast<long>(arg_number(args, 1, "string.rep"));
                    std::string out;
                    for (long i = 0; i < n; ++i) out += s;
                    return std::vector<Value>{Value(out)};
                  }));
  string_lib->set(Table::Key{"len"},
                  make_native("string.len", [](Interpreter&, std::vector<Value>& args) {
                    return std::vector<Value>{Value(
                        static_cast<double>(arg_string(args, 0, "string.len").size()))};
                  }));
  string_lib->set(Table::Key{"byte"},
                  make_native("string.byte", [](Interpreter&, std::vector<Value>& args) {
                    const std::string s = arg_string(args, 0, "string.byte");
                    const auto i = args.size() > 1
                                       ? static_cast<std::size_t>(arg_number(args, 1, "byte"))
                                       : 1;
                    if (i < 1 || i > s.size()) return std::vector<Value>{Value()};
                    return std::vector<Value>{
                        Value(static_cast<double>(static_cast<unsigned char>(s[i - 1])))};
                  }));

  // table.insert / remove / concat — the trio the example scripts use.
  auto table_lib = std::make_shared<Table>();
  table_lib->set(Table::Key{"insert"},
                 make_native("table.insert", [](Interpreter&, std::vector<Value>& args) {
                   auto t = arg_table(args, 0, "table.insert");
                   if (args.size() >= 3) {
                     // insert at position: shift the dense suffix up.
                     const auto pos = static_cast<std::size_t>(arg_number(args, 1, "insert"));
                     const std::size_t n = t->array_size();
                     for (std::size_t i = n; i >= pos && i >= 1; --i) {
                       t->set(Table::Key{static_cast<double>(i + 1)},
                              t->get(Table::Key{static_cast<double>(i)}));
                       if (i == pos) break;
                     }
                     t->set(Table::Key{static_cast<double>(pos)}, args[2]);
                   } else if (args.size() == 2) {
                     t->set(Table::Key{static_cast<double>(t->array_size() + 1)}, args[1]);
                   } else {
                     throw ScriptError("table.insert: wrong number of arguments");
                   }
                   return std::vector<Value>{};
                 }));
  table_lib->set(Table::Key{"remove"},
                 make_native("table.remove", [](Interpreter&, std::vector<Value>& args) {
                   auto t = arg_table(args, 0, "table.remove");
                   const std::size_t n = t->array_size();
                   if (n == 0) return std::vector<Value>{Value()};
                   const auto pos = args.size() > 1
                                        ? static_cast<std::size_t>(arg_number(args, 1, "remove"))
                                        : n;
                   const Value removed = t->get(Table::Key{static_cast<double>(pos)});
                   for (std::size_t i = pos; i < n; ++i) {
                     t->set(Table::Key{static_cast<double>(i)},
                            t->get(Table::Key{static_cast<double>(i + 1)}));
                   }
                   t->set(Table::Key{static_cast<double>(n)}, Value());
                   return std::vector<Value>{removed};
                 }));
  table_lib->set(Table::Key{"concat"},
                 make_native("table.concat", [](Interpreter&, std::vector<Value>& args) {
                   auto t = arg_table(args, 0, "table.concat");
                   const std::string sep =
                       args.size() > 1 && args[1].is_string() ? args[1].as_string() : "";
                   std::string out;
                   const std::size_t n = t->array_size();
                   for (std::size_t i = 1; i <= n; ++i) {
                     if (i > 1) out += sep;
                     out += t->get(Table::Key{static_cast<double>(i)}).to_display_string();
                   }
                   return std::vector<Value>{Value(out)};
                 }));
  set_global("table", Value(table_lib));

  // os.clock / sleep helpers used by scripts.
  auto os_lib = std::make_shared<Table>();
  os_lib->set(Table::Key{"clock"}, make_native("os.clock", [](Interpreter&, std::vector<Value>&) {
                const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now().time_since_epoch())
                                    .count();
                return std::vector<Value>{Value(static_cast<double>(ns) / 1e9)};
              }));
  set_global("os", Value(os_lib));
}

}  // namespace moongen::script
