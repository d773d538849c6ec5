#include "oracle/tree_walker.hpp"

#include <algorithm>
#include <map>

#include "script/lexer.hpp"

namespace moongen::script::oracle {

/// Locals of one scope plus the enclosing scope; the outermost scope's
/// parent is null, which stands for the host's global table.
class Environment {
 public:
  explicit Environment(std::shared_ptr<Environment> parent) : parent_(std::move(parent)) {}

  /// Declares a local in this scope (shadows outer scopes).
  void declare(const std::string& name, Value value) { values_[name] = std::move(value); }

  /// The entry for `name` in the nearest scope declaring it, or nullptr
  /// when only the globals can hold it.
  Value* find(const std::string& name) {
    for (Environment* env = this; env != nullptr; env = env->parent_.get()) {
      const auto it = env->values_.find(name);
      if (it != env->values_.end()) return &it->second;
    }
    return nullptr;
  }

  /// Drops every local and the parent link (breaks closure cycles).
  void clear() {
    std::map<std::string, Value> doomed;
    doomed.swap(values_);
    parent_.reset();
  }

 private:
  std::map<std::string, Value> values_;
  std::shared_ptr<Environment> parent_;
};

TreeWalker::~TreeWalker() {
  for (const auto& weak : captured_envs_) {
    if (const auto env = weak.lock()) env->clear();
  }
}

void TreeWalker::run() { (void)execute_block(host_.program()->block, nullptr); }

Value TreeWalker::lookup(const Scope& env, const std::string& name) const {
  if (env != nullptr) {
    if (const Value* local = env->find(name)) return *local;
  }
  return host_.get_global(name);
}

void TreeWalker::declare(const Scope& env, const std::string& name, Value value) {
  if (env != nullptr) {
    env->declare(name, std::move(value));
  } else {
    host_.set_global(name, std::move(value));
  }
}

void TreeWalker::assign(const Scope& env, const std::string& name, const Value& value) {
  Value* local = env != nullptr ? env->find(name) : nullptr;
  if (local != nullptr) {
    *local = value;
  } else {
    host_.set_global(name, value);
  }
}

Value TreeWalker::make_closure(const FunctionDecl& decl, const Scope& env) {
  if (env != nullptr) {
    if (captured_envs_.size() >= prune_captured_at_) {
      std::erase_if(captured_envs_, [](const auto& weak) { return weak.expired(); });
      prune_captured_at_ = std::max<std::size_t>(64, 2 * captured_envs_.size());
    }
    captured_envs_.push_back(env);
  }
  return make_native(decl.name, [this, &decl, env](Interpreter&, std::vector<Value>& args) {
    return call_closure(decl, env, args);
  });
}

std::vector<Value> TreeWalker::call_closure(const FunctionDecl& decl, const Scope& closure,
                                            std::vector<Value>& args) {
  auto env = std::make_shared<Environment>(closure);
  for (std::size_t i = 0; i < decl.params.size(); ++i) {
    env->declare(decl.params[i], i < args.size() ? args[i] : Value());
  }
  auto flow = execute_block(decl.body, env);
  if (flow.kind == Flow::Kind::kReturn) return std::move(flow.values);
  return {};
}

// --- statements -------------------------------------------------------------

TreeWalker::Flow TreeWalker::execute_block(const Block& block, const Scope& env) {
  for (const auto& stmt : block) {
    auto flow = execute(*stmt, env);
    if (flow.kind != Flow::Kind::kNormal) return flow;
  }
  return {};
}

TreeWalker::Flow TreeWalker::execute(const Stmt& stmt, const Scope& env) {
  host_.count_step(stmt.line);
  switch (stmt.kind) {
    case StmtKind::kLocal: {
      auto values = evaluate_list(stmt.exprs, env);
      for (std::size_t i = 0; i < stmt.names.size(); ++i) {
        declare(env, stmt.names[i], i < values.size() ? values[i] : Value());
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
          return execute_block(branch.body, std::make_shared<Environment>(env));
        }
      }
      if (stmt.has_else) return execute_block(stmt.else_body, std::make_shared<Environment>(env));
      return {};
    }
    case StmtKind::kWhile: {
      while (evaluate(*stmt.condition, env).truthy()) {
        host_.count_step(stmt.line);
        auto flow = execute_block(stmt.body, std::make_shared<Environment>(env));
        if (flow.kind == Flow::Kind::kBreak) break;
        if (flow.kind == Flow::Kind::kReturn) return flow;
      }
      return {};
    }
    case StmtKind::kRepeat: {
      while (true) {
        host_.count_step(stmt.line);
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
        host_.count_step(stmt.line);
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
        host_.count_step(stmt.line);
        auto results = host_.call(f, {s, ctrl}, stmt.line);
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
      if (stmt.is_local_function) {
        declare(env, stmt.func_path[0], fn_value);
      } else if (stmt.func_path.size() == 1) {
        assign(env, stmt.func_path[0], fn_value);
      } else {
        // function a.b.c(...) — walk the table path.
        Value container = lookup(env, stmt.func_path[0]);
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
    case StmtKind::kReturn: return {Flow::Kind::kReturn, evaluate_list(stmt.exprs, env)};
    case StmtKind::kBreak: return {Flow::Kind::kBreak, {}};
    case StmtKind::kDo: return execute_block(stmt.body, std::make_shared<Environment>(env));
  }
  return {};
}

// --- expressions -------------------------------------------------------------

std::vector<Value> TreeWalker::evaluate_list(const std::vector<ExprPtr>& exprs,
                                             const Scope& env) {
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

std::vector<Value> TreeWalker::evaluate_multi(const Expr& expr, const Scope& env) {
  if (expr.kind == ExprKind::kCall) {
    const Value callee = evaluate(*expr.callee, env);
    auto args = evaluate_list(expr.args, env);
    return host_.call(callee, std::move(args), expr.line);
  }
  if (expr.kind == ExprKind::kMethodCall) {
    const Value object = evaluate(*expr.object, env);
    auto args = evaluate_list(expr.args, env);
    if (object.is_userdata()) {
      auto& ud = *object.as_userdata();
      const auto it = ud.methods()->methods.find(expr.method);
      if (it == ud.methods()->methods.end())
        throw ScriptError("no method '" + expr.method + "' on " + ud.type_name(), expr.line);
      return it->second(host_, ud, args);
    }
    if (object.is_table()) {
      const Value fn = object.as_table()->get(Table::Key{expr.method});
      args.insert(args.begin(), object);  // self
      return host_.call(fn, std::move(args), expr.line);
    }
    throw ScriptError("attempt to call method '" + expr.method + "' on a " +
                          object.type_name() + " value",
                      expr.line);
  }
  return {evaluate(expr, env)};
}

Value TreeWalker::evaluate(const Expr& expr, const Scope& env) {
  switch (expr.kind) {
    case ExprKind::kNil: return Value();
    case ExprKind::kTrue: return Value(true);
    case ExprKind::kFalse: return Value(false);
    case ExprKind::kNumber: return Value(expr.number);
    case ExprKind::kString: return Value(expr.string);
    case ExprKind::kName: return lookup(env, expr.name);
    case ExprKind::kIndex: {
      const Value object = evaluate(*expr.object, env);
      const Value key = evaluate(*expr.key, env);
      return host_.index_value(object, key, expr.line);
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
          auto r = it->second(host_, ud, no_args);
          return r.empty() ? Value() : r[0];
        }
      }
      throw ScriptError("attempt to get length of a " + v.type_name(), expr.line);
    }
    case ExprKind::kBinary: return binary_op(expr.op, *expr.lhs, *expr.rhs, env, expr.line);
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

Value TreeWalker::binary_op(int op, const Expr& lhs_expr, const Expr& rhs_expr, const Scope& env,
                            int line) {
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

void TreeWalker::assign_target(const Expr& target, const Value& value, const Scope& env) {
  if (target.kind == ExprKind::kName) {
    assign(env, target.name, value);
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

}  // namespace moongen::script::oracle
