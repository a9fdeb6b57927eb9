#include "util/value.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace aars::util {

// --- ValueMap ----------------------------------------------------------------

ValueMap::ValueMap(std::vector<Entry> entries) : entries_(std::move(entries)) {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.first < b.first;
                   });
  // Of each run of equal keys keep the last written: unique over the
  // reversed range keeps each run's last entry and packs the survivors at
  // the back.
  const auto kept = std::unique(
      entries_.rbegin(), entries_.rend(),
      [](const Entry& a, const Entry& b) { return a.first == b.first; });
  entries_.erase(entries_.begin(), kept.base());
}

std::size_t ValueMap::lower_bound(std::string_view key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::string_view k) { return e.first < k; });
  return static_cast<std::size_t>(it - entries_.begin());
}

ValueMap::const_iterator ValueMap::find(std::string_view key) const {
  const std::size_t i = lower_bound(key);
  if (i == entries_.size() || entries_[i].first != key) return end();
  return entries_.begin() + static_cast<std::ptrdiff_t>(i);
}

Value& ValueMap::operator[](const std::string& key) {
  auto at = entries_.begin() + static_cast<std::ptrdiff_t>(lower_bound(key));
  if (at == entries_.end() || at->first != key) {
    at = entries_.emplace(at, key, Value{});
  }
  return at->second;
}

std::size_t ValueMap::erase(std::string_view key) {
  const auto it = find(key);
  if (it == end()) return 0;
  entries_.erase(it);
  return 1;
}

bool operator==(const ValueMap& a, const ValueMap& b) {
  return a.entries_ == b.entries_;
}

// --- Value -------------------------------------------------------------------

Value Value::object(std::initializer_list<std::pair<std::string, Value>> kv) {
  // Sort pointers to the entries, not the entries, so each entry is copied
  // once, straight into its slot (frame maps are built per message).  The
  // insertion sort is stable: of equal keys the first listed wins, as
  // std::map::emplace keeps it.  The lists are literals of a few entries.
  std::array<const ValueMap::Entry*, 16> small{};
  std::vector<const ValueMap::Entry*> large;
  const ValueMap::Entry** order = small.data();
  if (kv.size() > small.size()) {
    large.resize(kv.size());
    order = large.data();
  }
  std::size_t n = 0;
  for (const ValueMap::Entry& entry : kv) {
    std::size_t j = n++;
    for (; j > 0 && entry.first < order[j - 1]->first; --j) {
      order[j] = order[j - 1];
    }
    order[j] = &entry;
  }
  ValueMap m;
  m.entries_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && order[i]->first == order[i - 1]->first) continue;
    m.entries_.push_back(*order[i]);
  }
  return Value{std::move(m)};
}

Value Value::list(std::initializer_list<Value> items) {
  return Value{ValueList(items)};
}

namespace {
[[noreturn]] void type_error(ValueType want, ValueType got) {
  throw InvariantViolation(std::string("Value type mismatch: wanted ") +
                           to_string(want) + ", got " + to_string(got));
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error(ValueType::kBool, type());
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  if (!is_int()) type_error(ValueType::kInt, type());
  return std::get<std::int64_t>(data_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  if (!is_double()) type_error(ValueType::kDouble, type());
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error(ValueType::kString, type());
  return std::get<std::string>(data_);
}

const ValueList& Value::as_list() const {
  if (!is_list()) type_error(ValueType::kList, type());
  return *std::get<ListPtr>(data_);
}

/// Copy-on-write detach point: clone the node iff another Value still
/// references it, then hand out a reference into the now-unique copy.
ValueList& Value::mutable_list() {
  ListPtr& p = std::get<ListPtr>(data_);
  if (p.use_count() > 1) p = std::make_shared<ValueList>(*p);
  return *p;
}

ValueList& Value::as_list() {
  if (!is_list()) type_error(ValueType::kList, type());
  return mutable_list();
}

const ValueMap& Value::as_map() const {
  if (!is_map()) type_error(ValueType::kMap, type());
  return *std::get<MapPtr>(data_);
}

ValueMap& Value::mutable_map() {
  MapPtr& p = std::get<MapPtr>(data_);
  if (p.use_count() > 1) p = std::make_shared<ValueMap>(*p);
  return *p;
}

ValueMap& Value::as_map() {
  if (!is_map()) type_error(ValueType::kMap, type());
  return mutable_map();
}

const Value& null_value() {
  static const Value kNull{};
  return kNull;
}

const Value& Value::at(std::string_view key) const {
  if (!is_map()) return null_value();
  const ValueMap& m = *std::get<MapPtr>(data_);
  auto it = m.find(key);
  return it == m.end() ? null_value() : it->second;
}

Value Value::get_or(std::string_view key, Value fallback) const {
  const Value& v = at(key);
  return v.is_null() ? std::move(fallback) : v;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = std::make_shared<ValueMap>();
  if (!is_map()) type_error(ValueType::kMap, type());
  return mutable_map()[key];
}

bool Value::contains(std::string_view key) const {
  if (!is_map()) return false;
  const ValueMap& m = *std::get<MapPtr>(data_);
  return m.find(key) != m.end();
}

const Value& Value::item(std::size_t index) const {
  const auto& l = as_list();
  require(index < l.size(), "Value::item index out of range");
  return l[index];
}

std::size_t Value::size() const {
  if (is_list()) return as_list().size();
  if (is_map()) return std::get<MapPtr>(data_)->size();
  if (is_string()) return std::get<std::string>(data_).size();
  return 0;
}

bool Value::shares_storage_with(const Value& other) const {
  if (is_list() && other.is_list()) {
    return std::get<ListPtr>(data_) == std::get<ListPtr>(other.data_);
  }
  if (is_map() && other.is_map()) {
    return std::get<MapPtr>(data_) == std::get<MapPtr>(other.data_);
  }
  return false;
}

void Value::deep_detach() {
  if (is_list()) {
    // mutable_list() detaches this node when shared; then detach children
    // unconditionally — a uniquely-held node may still hold shared children.
    for (Value& v : mutable_list()) v.deep_detach();
  } else if (is_map()) {
    for (auto& [k, v] : mutable_map().entries_) v.deep_detach();
  }
}

bool operator==(const Value& a, const Value& b) {
  if (a.data_.index() != b.data_.index()) return false;
  switch (a.type()) {
    case ValueType::kNull: return true;
    case ValueType::kBool: return a.as_bool() == b.as_bool();
    case ValueType::kInt: return a.as_int() == b.as_int();
    case ValueType::kDouble: return a.as_double() == b.as_double();
    case ValueType::kString: return a.as_string() == b.as_string();
    case ValueType::kList: {
      // Shared node => structurally equal without walking the tree.
      if (a.shares_storage_with(b)) return true;
      return a.as_list() == b.as_list();
    }
    case ValueType::kMap: {
      if (a.shares_storage_with(b)) return true;
      return a.as_map() == b.as_map();
    }
  }
  return false;
}

namespace {
void render(const Value& v, std::ostringstream& os) {
  switch (v.type()) {
    case ValueType::kNull: os << "null"; break;
    case ValueType::kBool: os << (v.as_bool() ? "true" : "false"); break;
    case ValueType::kInt: os << v.as_int(); break;
    case ValueType::kDouble: os << v.as_double(); break;
    case ValueType::kString: os << '"' << v.as_string() << '"'; break;
    case ValueType::kList: {
      os << '[';
      bool first = true;
      for (const auto& item : v.as_list()) {
        if (!first) os << ',';
        first = false;
        render(item, os);
      }
      os << ']';
      break;
    }
    case ValueType::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, item] : v.as_map()) {
        if (!first) os << ',';
        first = false;
        os << '"' << k << "\":";
        render(item, os);
      }
      os << '}';
      break;
    }
  }
}
}  // namespace

std::string Value::to_string() const {
  std::ostringstream os;
  render(*this, os);
  return os.str();
}

std::size_t Value::deep_byte_size() const {
  switch (type()) {
    case ValueType::kNull: return 1;
    case ValueType::kBool: return 1;
    case ValueType::kInt: return 8;
    case ValueType::kDouble: return 8;
    case ValueType::kString: return 8 + as_string().size();
    case ValueType::kList: {
      std::size_t total = 8;
      for (const auto& v : as_list()) total += v.byte_size();
      return total;
    }
    case ValueType::kMap: {
      std::size_t total = 8;
      for (const auto& [k, v] : as_map()) total += k.size() + v.byte_size();
      return total;
    }
  }
  return 0;
}

}  // namespace aars::util
