// Dynamically typed value tree.
//
// `Value` is the lingua franca of the runtime: message payloads, component
// attributes, state snapshots and ADL literals are all Value trees.  It is a
// JSON-like sum type with value semantics.
//
// Containers are copy-on-write: list and map nodes are held through
// shared_ptr, so copying a Value (and therefore a Message through an
// interceptor chain) is O(1) refcount traffic regardless of tree size.
// Mutation detaches: every non-const accessor clones the node first when it
// is shared (`use_count() > 1`), so writers never disturb readers holding
// other copies, and a copy that is never written never allocates.  Detach
// is per-node and shallow — a cloned map's entries still share their own
// children until those are written in turn.
//
// A map node is a flat array of (key, value) entries sorted by key, held
// through the same copy-on-write shared_ptr, not a tree: a map of n
// entries costs two allocations (the node and its array) instead of
// 1 + n.  The price is reference lifetime: a reference into a map, such as
// the one `operator[]` returns, lasts only until the next insertion into
// that same map.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/errors.h"

namespace aars::util {

class Value;

using ValueList = std::vector<Value>;

/// The map node of a Value: entries sorted by key, keys unique.  Keys probe
/// as string_view, so a lookup materialises no temporary std::string
/// (header lookups run per relayed message).  Members are defined after
/// Value, which the entries need complete.
class ValueMap {
 public:
  using Entry = std::pair<std::string, Value>;
  /// Iteration is read-only: a key written in place would break the order
  /// that find, operator[] and erase rely on.
  using const_iterator = std::vector<Entry>::const_iterator;

  ValueMap() = default;
  /// Bulk build from unsorted entries: sorts once and, of equal keys, keeps
  /// the last, as repeated `operator[]` assignment would.
  explicit ValueMap(std::vector<Entry> entries);

  const_iterator begin() const;
  const_iterator end() const;
  std::size_t size() const;
  bool empty() const;

  const_iterator find(std::string_view key) const;
  /// Inserts a null value at the key's sorted position when absent.  The
  /// reference lasts until the next insertion into this map.
  Value& operator[](const std::string& key);
  /// Returns the number of entries erased (0 or 1).
  std::size_t erase(std::string_view key);

  friend bool operator==(const ValueMap& a, const ValueMap& b);

 private:
  // Value::object fills the entries directly; Value::deep_detach writes
  // their values in place.
  friend class Value;

  /// Index of the first entry whose key is not less than `key`.
  std::size_t lower_bound(std::string_view key) const;

  std::vector<Entry> entries_;
};

/// Discriminator for the runtime type of a Value.
enum class ValueType { kNull, kBool, kInt, kDouble, kString, kList, kMap };

constexpr const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kList: return "list";
    case ValueType::kMap: return "map";
  }
  return "unknown";
}

/// JSON-like variant with value semantics. Numeric access is checked: asking
/// for the wrong type throws InvariantViolation (it indicates a runtime bug
/// or an unvalidated configuration reaching execution).
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(std::nullptr_t) : data_(std::monostate{}) {}     // NOLINT implicit
  Value(bool b) : data_(b) {}                            // NOLINT implicit
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}  // NOLINT implicit
  Value(std::int64_t i) : data_(i) {}                    // NOLINT implicit
  Value(double d) : data_(d) {}                          // NOLINT implicit
  Value(const char* s) : data_(std::string(s)) {}        // NOLINT implicit
  Value(std::string s) : data_(std::move(s)) {}          // NOLINT implicit
  Value(ValueList l)                                     // NOLINT implicit
      : data_(std::make_shared<ValueList>(std::move(l))) {}
  Value(ValueMap m)                                      // NOLINT implicit
      : data_(std::make_shared<ValueMap>(std::move(m))) {}

  /// Builds a map value from key/value pairs.
  static Value object(std::initializer_list<std::pair<std::string, Value>> kv);
  /// Builds a list value.
  static Value list(std::initializer_list<Value> items);

  ValueType type() const {
    // ValueType enumerators mirror the Storage alternative order; see the
    // static_asserts below the class.
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_list() const { return type() == ValueType::kList; }
  bool is_map() const { return type() == ValueType::kMap; }

  bool as_bool() const;
  std::int64_t as_int() const;
  /// Numeric coercion: int promotes to double.
  double as_double() const;
  const std::string& as_string() const;
  const ValueList& as_list() const;
  /// Mutable access detaches (clones the node) when the list is shared.
  ValueList& as_list();
  const ValueMap& as_map() const;
  /// Mutable access detaches (clones the node) when the map is shared.
  ValueMap& as_map();

  /// Map field access; returns null Value when absent or not a map.
  const Value& at(std::string_view key) const;
  /// Map field access with default.
  Value get_or(std::string_view key, Value fallback) const;
  /// Mutable map access; converts a null value into an empty map and
  /// detaches when the map is shared.
  Value& operator[](const std::string& key);
  bool contains(std::string_view key) const;

  /// List element access; precondition: is_list() && index < size().
  const Value& item(std::size_t index) const;
  std::size_t size() const;

  /// True when this value and `other` share the same container node (both
  /// are lists or maps and no copy-on-write detach has separated them).
  /// Diagnostic hook for the COW tests; scalars never share.
  bool shares_storage_with(const Value& other) const;

  /// Makes every container node in this tree exclusively owned (clones any
  /// node another Value still references, recursively).  Required before a
  /// Value crosses a shard/thread boundary: the copy-on-write detach
  /// heuristic reads shared_ptr use_count(), which is unreliable as a
  /// uniqueness test across concurrent threads — a deep-detached tree has
  /// no node shared with any other Value, so the receiving shard can read
  /// and mutate it without touching the sender's copies.
  void deep_detach();

  /// Deep structural equality.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Compact JSON-ish rendering (for logs, tests and golden output).
  std::string to_string() const;

  /// Approximate heap footprint in bytes; used by the simulator to charge
  /// bandwidth for message payloads. Scalars resolve inline (the common
  /// case on relay paths); containers recurse out of line.
  std::size_t byte_size() const {
    switch (type()) {
      case ValueType::kNull:
      case ValueType::kBool: return 1;
      case ValueType::kInt:
      case ValueType::kDouble: return 8;
      default: return deep_byte_size();
    }
  }

 private:
  using ListPtr = std::shared_ptr<ValueList>;
  using MapPtr = std::shared_ptr<ValueMap>;
  using Storage = std::variant<std::monostate, bool, std::int64_t, double,
                               std::string, ListPtr, MapPtr>;

  ValueList& mutable_list();
  ValueMap& mutable_map();
  std::size_t deep_byte_size() const;

  Storage data_;
};

// type() casts the variant index directly; keep the enum and the Storage
// alternatives in lockstep.
static_assert(static_cast<int>(ValueType::kNull) == 0 &&
                  static_cast<int>(ValueType::kBool) == 1 &&
                  static_cast<int>(ValueType::kInt) == 2 &&
                  static_cast<int>(ValueType::kDouble) == 3 &&
                  static_cast<int>(ValueType::kString) == 4 &&
                  static_cast<int>(ValueType::kList) == 5 &&
                  static_cast<int>(ValueType::kMap) == 6,
              "ValueType enumerators must mirror Value::Storage order");

/// The canonical null value (used for absent map fields).
const Value& null_value();

inline ValueMap::const_iterator ValueMap::begin() const {
  return entries_.begin();
}
inline ValueMap::const_iterator ValueMap::end() const {
  return entries_.end();
}
inline std::size_t ValueMap::size() const { return entries_.size(); }
inline bool ValueMap::empty() const { return entries_.empty(); }

}  // namespace aars::util
