#include "script/value.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

namespace moongen::script {

std::uint64_t Table::next_version() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Value Table::get(const Key& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? it->second : Value();
}

const Value* Table::find_slot(const Key& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

void Table::set(const Key& key, Value value) {
  if (value.is_nil()) {
    // Erasure invalidates cached slot pointers; draw a fresh token so every
    // inline cache referencing this table misses and re-resolves.
    if (entries_.erase(key) > 0) version_ = next_version();
  } else {
    entries_[key] = std::move(value);
  }
}

std::size_t Table::array_size() const {
  std::size_t n = 0;
  while (entries_.contains(Key{static_cast<double>(n + 1)})) ++n;
  return n;
}

bool Value::equals(const Value& other) const {
  if (storage_.index() != other.storage_.index()) return false;
  if (is_nil()) return true;
  if (is_bool()) return as_bool() == other.as_bool();
  if (is_number()) return as_number() == other.as_number();
  if (is_string()) return as_string() == other.as_string();
  if (is_table()) return as_table() == other.as_table();  // identity
  if (is_userdata()) return as_userdata() == other.as_userdata();
  if (const auto* nf = native()) return *nf == *other.native();
  return false;
}

std::string Value::to_display_string() const {
  if (is_nil()) return "nil";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_number()) {
    const double d = as_number();
    if (std::floor(d) == d && std::abs(d) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", d);
      return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", d);
    return buf;
  }
  if (is_string()) return as_string();
  if (is_table()) return "table";
  if (is_userdata()) return as_userdata()->type_name();
  if (native() != nullptr) return "function:" + (*native())->name;
  return "?";
}

std::string Value::type_name() const {
  if (is_nil()) return "nil";
  if (is_bool()) return "boolean";
  if (is_number()) return "number";
  if (is_string()) return "string";
  if (is_table()) return "table";
  if (is_userdata()) return "userdata(" + as_userdata()->type_name() + ")";
  return "function";
}

}  // namespace moongen::script
