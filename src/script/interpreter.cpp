#include "script/interpreter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "script/compiler.hpp"
#include "script/lexer.hpp"
#include "script/vm.hpp"

namespace moongen::script {

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
  auto native = std::make_shared<NativeFunction>();
  native->name = std::move(name);
  native->fn = std::move(fn);
  return Value(std::move(native));
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter(std::shared_ptr<const Program> program)
    : program_(std::move(program)) {
  install_base_library();
}

Interpreter::~Interpreter() {
  if (vm_) vm_->release_captured_cells();
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
  globals_[name] = std::move(value);
}

Value Interpreter::get_global(const std::string& name) const {
  const auto it = globals_.find(name);
  return it != globals_.end() ? it->second : Value();
}

void Interpreter::run() {
  ensure_compiled();
  vm().run_toplevel(chunk_);
}

std::vector<Value> Interpreter::call_global(const std::string& name, std::vector<Value> args) {
  const Value fn = get_global(name);
  if (!fn.is_callable()) throw ScriptError("global '" + name + "' is not a function");
  return call(fn, std::move(args));
}

std::vector<Value> Interpreter::call(const Value& callee, std::vector<Value> args, int line) {
  if (const auto* nf = callee.native()) return (*nf)->fn(*this, args);
  throw ScriptError("attempt to call a " + callee.type_name() + " value", line);
}

void Interpreter::step_budget_exceeded(int line) {
  throw ScriptError("script exceeded its execution budget", line);
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
  // exposing __len / __index_number (bufArray). Like Lua's, every call
  // returns the same iterator function, installed once here.
  ipairs_iter_ = make_native("ipairs_iter", [](Interpreter& in, std::vector<Value>& iter_args) {
    const Value& container = iter_args[0];
    const double next = iter_args[1].is_number() ? iter_args[1].as_number() + 1 : 1;
    const Value element = in.index_for_iteration(container, next);
    if (element.is_nil()) return std::vector<Value>{Value()};
    return std::vector<Value>{Value(next), element};
  });
  // Let the VM open-code ipairs() and calls to its iterator (same
  // semantics, no argument/result vectors per call or element).
  (*ipairs_iter_.native())->builtin = NativeFunction::Builtin::kIpairsIter;
  Value ipairs = make_native("ipairs", [](Interpreter& interp, std::vector<Value>& args) {
    if (args.empty()) throw ScriptError("ipairs: missing argument");
    return std::vector<Value>{interp.ipairs_iter(), args[0], Value(0.0)};
  });
  (*ipairs.native())->builtin = NativeFunction::Builtin::kIpairs;
  set_global("ipairs", std::move(ipairs));

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
  auto rng = std::make_shared<stats::Mt19937_64>(0x5eed);
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
