// Value model of the embedded scripting language.
//
// MoonGen's defining feature is that the *whole* packet generation logic
// lives in user-controlled Lua scripts (paper Sections 1, 3.2). This module
// reproduces that architecture with an embedded Lua-subset runtime:
// dynamically typed values, tables, first-class functions and host-bound
// userdata objects. (The original uses LuaJIT for speed; a bytecode VM
// with a trace tier runs the same programming model, and
// bench/ablation_scripting quantifies the gap to compiled code.)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace moongen::script {

class Value;
class Interpreter;

/// Host function: receives evaluated arguments, returns results.
using NativeFn = std::function<std::vector<Value>(Interpreter&, std::vector<Value>&)>;

/// Single-result variant: returns the call's first result (nil when the
/// call yields none). The VM uses it at call sites with a fixed result
/// count — where truncation/nil-padding makes it exactly equivalent to the
/// vector protocol — to skip the per-call result-vector allocation.
using NativeFn1 = std::function<Value(Interpreter&, std::vector<Value>&)>;

struct NativeFunction {
  /// Well-known natives the VM is allowed to open-code at call sites
  /// ("direct-call sites for known bindings"). The open-coded path must be
  /// behaviourally identical to `fn`. kMathRandom additionally lets the
  /// trace specializer fold `math.random(m)` draws into field-modifier
  /// kernels that pull from the interpreter's own engine (same stream).
  enum class Builtin : std::uint8_t { kNone, kIpairs, kIpairsIter, kMathRandom };

  std::string name;
  NativeFn fn;
  /// Set when this function wraps a compiled VM closure (a VmClosure); the
  /// VM uses it to call compiled code directly instead of through `fn`.
  std::shared_ptr<void> compiled;
  Builtin builtin = Builtin::kNone;
  /// Optional single-result fast path; when set, it must be behaviourally
  /// identical to `fn` truncated to one result.
  NativeFn1 fn1;
};

/// Table: Lua-style associative container. Keys are strings or numbers.
class Table {
 public:
  using Key = std::variant<double, std::string>;

  Value get(const Key& key) const;
  void set(const Key& key, Value value);
  [[nodiscard]] std::size_t array_size() const;  ///< # operator: 1..n dense prefix

  std::map<Key, Value>& entries() { return entries_; }
  [[nodiscard]] const std::map<Key, Value>& entries() const { return entries_; }

  /// Pointer to the entry for `key`, or nullptr when absent. std::map nodes
  /// are stable under insertion and in-place assignment, so the VM's field
  /// inline caches may hold this pointer as long as version() is unchanged.
  [[nodiscard]] const Value* find_slot(const Key& key) const;

  /// Process-unique cache token: freshly drawn at construction and after
  /// every erasure (assigning nil). Values never repeat across Table
  /// instances, so (Table*, version) pairs cannot collide even when the
  /// allocator reuses a freed table's address.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  static std::uint64_t next_version();

  std::map<Key, Value> entries_;
  std::uint64_t version_ = next_version();
};

class UserData;

/// Method on a userdata object.
using Method = std::function<std::vector<Value>(Interpreter&, UserData&, std::vector<Value>&)>;

/// Single-result method variant (see NativeFn1): first result or nil.
/// A raw function pointer: registrations are capture-less lambdas, and the
/// per-packet call sites shouldn't pay std::function indirection.
/// Implementations must not mutate the argument vector — the VM passes a
/// shared empty vector at zero-arg call sites.
using Method1 = Value (*)(Interpreter&, UserData&, std::vector<Value>&);

/// Static effect summary of a userdata method or field, declared by the
/// binding that installs the method table. The trace specializer uses these
/// to prove that a recorded loop body is a straight-line sequence of packet
/// field writes: kDeref names accessors that return a view over the same
/// packet bytes (optionally narrowing to a field), kWrite names methods
/// that store their single numeric argument into a header field. A method
/// without a tag is opaque and blocks specialization of traces that call it.
struct TraceTag {
  enum class Kind : std::uint8_t {
    kNone,   ///< opaque (default)
    kDeref,  ///< returns a view/ref into the receiver's packet bytes
    kWrite,  ///< writes its numeric argument to a packet field
  };

  Kind kind = Kind::kNone;
  /// kDeref: the result carries this field as its write target (e.g.
  /// ip.src yields an address ref whose set() writes offset 26 width 4).
  bool carries_field = false;
  /// kWrite: offset is relative to the field carried by the receiver view
  /// (true for addr:set) rather than an absolute packet offset.
  bool relative = false;
  std::uint16_t offset = 0;  ///< byte offset into the packet (or carried base)
  std::uint8_t width = 0;    ///< field width in bytes (1, 2 or 4)
};

/// Behaviour table of a userdata type: named methods plus an optional
/// field-access hook (`obj.field`), like a Lua metatable's __index.
struct MethodTable {
  std::string type_name;
  std::map<std::string, Method> methods;
  /// Single-result fast paths for hot methods; each entry must match the
  /// same-named `methods` entry truncated to one result. The VM's method
  /// inline caches prefer these at fixed-result-count call sites.
  std::map<std::string, Method1> methods1;
  /// Field access hook: `obj.field` for fields that are not methods.
  /// Raw pointers (like Method1): these run per packet-field access.
  Value (*index)(Interpreter&, UserData&, const std::string&) = nullptr;
  /// Numeric indexing hook: `obj[i]` (1-based) — also drives ipairs().
  Value (*index_number)(Interpreter&, UserData&, double) = nullptr;
  /// True for array-of-packets types (BufArray): ipairs over such an object
  /// yields packet wrappers whose tagged methods write into the element's
  /// buffer, so a recorded trace generalizes from one element to all.
  bool packet_array = false;
  /// Effect summaries for methods/index fields, keyed by name. Absent names
  /// are opaque.
  std::map<std::string, TraceTag> trace_tags;
};

/// Host object exposed to scripts. `handle` keeps the underlying object
/// alive; `ptr` is the typed pointer used by methods.
class UserData {
 public:
  UserData(const MethodTable* methods, std::shared_ptr<void> handle, void* ptr)
      : methods_(methods), handle_(std::move(handle)), ptr_(ptr) {}

  [[nodiscard]] const MethodTable* methods() const { return methods_; }
  [[nodiscard]] void* ptr() const { return ptr_; }
  /// The owning handle. `ptr` may point INTO the held object (e.g. a cache
  /// struct whose first concern is the exposed object), so bindings that
  /// need the full holder use this instead of `as<T>()`.
  [[nodiscard]] const std::shared_ptr<void>& handle() const { return handle_; }
  template <typename T>
  [[nodiscard]] T* as() const {
    return static_cast<T*>(ptr_);
  }
  [[nodiscard]] const std::string& type_name() const { return methods_->type_name; }

 private:
  const MethodTable* methods_;
  std::shared_ptr<void> handle_;
  void* ptr_;
};

class Value {
 public:
  using Storage = std::variant<std::monostate, bool, double, std::string,
                               std::shared_ptr<Table>, std::shared_ptr<NativeFunction>,
                               std::shared_ptr<UserData>>;

  Value() = default;
  Value(bool b) : storage_(b) {}                      // NOLINT(google-explicit-constructor)
  Value(double d) : storage_(d) {}                    // NOLINT
  Value(int i) : storage_(static_cast<double>(i)) {}  // NOLINT
  Value(const char* s) : storage_(std::string(s)) {}  // NOLINT
  Value(std::string s) : storage_(std::move(s)) {}    // NOLINT
  Value(std::shared_ptr<Table> t) : storage_(std::move(t)) {}             // NOLINT
  Value(std::shared_ptr<NativeFunction> f) : storage_(std::move(f)) {}    // NOLINT
  Value(std::shared_ptr<UserData> u) : storage_(std::move(u)) {}          // NOLINT

  [[nodiscard]] bool is_nil() const { return std::holds_alternative<std::monostate>(storage_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(storage_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  [[nodiscard]] bool is_table() const {
    return std::holds_alternative<std::shared_ptr<Table>>(storage_);
  }
  [[nodiscard]] bool is_userdata() const {
    return std::holds_alternative<std::shared_ptr<UserData>>(storage_);
  }
  [[nodiscard]] bool is_callable() const {
    return std::holds_alternative<std::shared_ptr<NativeFunction>>(storage_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }
  [[nodiscard]] double as_number() const { return std::get<double>(storage_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(storage_); }
  [[nodiscard]] const std::shared_ptr<Table>& as_table() const {
    return std::get<std::shared_ptr<Table>>(storage_);
  }
  [[nodiscard]] const std::shared_ptr<UserData>& as_userdata() const {
    return std::get<std::shared_ptr<UserData>>(storage_);
  }
  [[nodiscard]] const std::shared_ptr<NativeFunction>* native() const {
    return std::get_if<std::shared_ptr<NativeFunction>>(&storage_);
  }

  /// Lua truthiness: only nil and false are falsy.
  [[nodiscard]] bool truthy() const {
    if (is_nil()) return false;
    if (is_bool()) return as_bool();
    return true;
  }

  /// Lua equality semantics (==).
  [[nodiscard]] bool equals(const Value& other) const;

  /// Human-readable rendering (print / tostring).
  [[nodiscard]] std::string to_display_string() const;

  /// Type name for error messages ("nil", "number", ...).
  [[nodiscard]] std::string type_name() const;

  [[nodiscard]] const Storage& storage() const { return storage_; }

 private:
  Storage storage_;
};

/// Raised for script runtime errors (with source location when available).
class ScriptError : public std::runtime_error {
 public:
  explicit ScriptError(const std::string& message, int line = 0)
      : std::runtime_error(line > 0 ? "line " + std::to_string(line) + ": " + message
                                    : message) {}
};

}  // namespace moongen::script
