#include "util/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace aars::util {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, ScalarConstruction) {
  EXPECT_TRUE(Value{true}.is_bool());
  EXPECT_TRUE(Value{42}.is_int());
  EXPECT_TRUE(Value{3.5}.is_double());
  EXPECT_TRUE(Value{"hi"}.is_string());
  EXPECT_EQ(Value{42}.as_int(), 42);
  EXPECT_DOUBLE_EQ(Value{3.5}.as_double(), 3.5);
  EXPECT_EQ(Value{"hi"}.as_string(), "hi");
  EXPECT_TRUE(Value{true}.as_bool());
}

TEST(ValueTest, IntPromotesToDouble) {
  EXPECT_DOUBLE_EQ(Value{7}.as_double(), 7.0);
}

TEST(ValueTest, WrongTypeAccessThrows) {
  EXPECT_THROW(Value{42}.as_string(), InvariantViolation);
  EXPECT_THROW(Value{"x"}.as_int(), InvariantViolation);
  EXPECT_THROW(Value{1.5}.as_int(), InvariantViolation);
  EXPECT_THROW(Value{}.as_bool(), InvariantViolation);
}

TEST(ValueTest, ObjectBuilderAndAccess) {
  Value v = Value::object({{"a", 1}, {"b", "two"}});
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").as_string(), "two");
  EXPECT_TRUE(v.at("missing").is_null());
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
}

TEST(ValueTest, GetOrReturnsFallback) {
  Value v = Value::object({{"a", 1}});
  EXPECT_EQ(v.get_or("a", Value{9}).as_int(), 1);
  EXPECT_EQ(v.get_or("b", Value{9}).as_int(), 9);
}

TEST(ValueTest, IndexingCreatesMapFromNull) {
  Value v;
  v["x"] = 5;
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("x").as_int(), 5);
}

TEST(ValueTest, ListBuilderAndItem) {
  Value v = Value::list({1, "two", 3.0});
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.item(0).as_int(), 1);
  EXPECT_EQ(v.item(1).as_string(), "two");
  EXPECT_THROW(v.item(3), InvariantViolation);
}

TEST(ValueTest, DeepEquality) {
  Value a = Value::object({{"x", Value::list({1, 2})}, {"y", "s"}});
  Value b = Value::object({{"x", Value::list({1, 2})}, {"y", "s"}});
  Value c = Value::object({{"x", Value::list({1, 3})}, {"y", "s"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ValueTest, ToStringRendersJsonLike) {
  Value v = Value::object({{"n", 1}, {"s", "x"}});
  EXPECT_EQ(v.to_string(), "{\"n\":1,\"s\":\"x\"}");
  EXPECT_EQ(Value::list({1, true}).to_string(), "[1,true]");
  EXPECT_EQ(Value{}.to_string(), "null");
}

TEST(ValueTest, ByteSizeGrowsWithContent) {
  const Value small = Value::object({{"a", 1}});
  const Value big = Value::object({{"a", std::string(1000, 'x')}});
  EXPECT_GT(big.byte_size(), small.byte_size());
  EXPECT_GE(big.byte_size(), 1000u);
}

TEST(ValueTest, NestedMutationThroughIndexing) {
  Value v;
  v["outer"] = Value::object({{"inner", 1}});
  v["outer"]["inner"] = 2;
  EXPECT_EQ(v.at("outer").at("inner").as_int(), 2);
}

TEST(ValueTest, SizeOfScalarsIsZero) {
  EXPECT_EQ(Value{5}.size(), 0u);
  EXPECT_EQ(Value{}.size(), 0u);
  EXPECT_EQ(Value{"abc"}.size(), 3u);
}

TEST(ValueTest, CopyIsDeep) {
  Value a = Value::object({{"k", Value::list({1})}});
  Value b = a;
  b["k"].as_list().push_back(2);
  EXPECT_EQ(a.at("k").size(), 1u);
  EXPECT_EQ(b.at("k").size(), 2u);
}

// --- copy-on-write semantics -----------------------------------------------

TEST(ValueTest, CopySharesStorageUntilWritten) {
  Value a = Value::object({{"k", Value{std::int64_t{1}}}});
  Value b = a;
  EXPECT_TRUE(a.shares_storage_with(b));
  b["k"] = Value{std::int64_t{2}};  // first write detaches
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a.at("k").as_int(), 1);
  EXPECT_EQ(b.at("k").as_int(), 2);
}

TEST(ValueTest, ConstReadsNeverDetach) {
  const Value a = Value::list({1, 2, 3});
  Value b = a;
  EXPECT_EQ(b.item(1).as_int(), 2);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.to_string(), a.to_string());
  // Reading through either alias leaves the node shared.
  EXPECT_TRUE(a.shares_storage_with(b));
}

TEST(ValueTest, ByteSizeUnchangedByCopyAndDetach) {
  Value a = Value::object(
      {{"name", Value{"abc"}}, {"list", Value::list({1, 2})}});
  const std::size_t original = a.byte_size();
  Value b = a;
  EXPECT_EQ(b.byte_size(), original);  // sharing is invisible to accounting
  b["name"] = Value{"abc"};            // detach without changing content
  EXPECT_EQ(b.byte_size(), original);
  EXPECT_EQ(a.byte_size(), original);
}

TEST(ValueTest, DetachIsShallowPerNode) {
  Value a = Value::object({{"inner", Value::list({1, 2})}});
  Value b = a;
  b["other"] = Value{true};  // detaches the top map only
  EXPECT_FALSE(a.shares_storage_with(b));
  // The untouched child list is still shared between the two trees.
  EXPECT_TRUE(a.at("inner").shares_storage_with(b.at("inner")));
}

TEST(ValueTest, UniqueOwnerMutatesInPlaceWithoutClone) {
  Value a = Value::list({1});
  const Value snapshot = a;      // shared now
  a.as_list().push_back(2);      // detaches away from snapshot
  EXPECT_FALSE(a.shares_storage_with(snapshot));
  EXPECT_EQ(snapshot.size(), 1u);
  a.as_list().push_back(3);      // sole owner: no further clone needed
  EXPECT_EQ(a.size(), 3u);
}

// deep_detach is the shard-boundary contract: after the call, *no* node of
// the tree — including nested children the plain COW copy still shares —
// may be referenced by any other Value.
TEST(ValueTest, DeepDetachSeparatesEveryNestedNode) {
  Value a = Value::object(
      {{"inner", Value::list({1, 2})},
       {"deep", Value::object({{"leaf", Value::list({"x"})}})}});
  Value b = a;  // whole tree shared
  b.deep_detach();
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_FALSE(a.at("inner").shares_storage_with(b.at("inner")));
  EXPECT_FALSE(a.at("deep").shares_storage_with(b.at("deep")));
  EXPECT_FALSE(
      a.at("deep").at("leaf").shares_storage_with(b.at("deep").at("leaf")));
  EXPECT_EQ(a, b);  // structurally identical, storage fully disjoint
  // Mutating the detached tree never reaches the original.
  b["deep"]["leaf"].as_list().push_back("y");
  EXPECT_EQ(a.at("deep").at("leaf").size(), 1u);
  EXPECT_EQ(b.at("deep").at("leaf").size(), 2u);
}

TEST(ValueTest, DeepDetachOnScalarsAndSoleOwnersIsANoOp) {
  Value scalar{42};
  scalar.deep_detach();
  EXPECT_EQ(scalar.as_int(), 42);
  Value sole = Value::list({1, 2, 3});
  sole.deep_detach();  // nothing shared: must not disturb contents
  EXPECT_EQ(sole.size(), 3u);
  EXPECT_EQ(sole.item(2).as_int(), 3);
}

// --- the flat map against std::map -------------------------------------------

using ReferenceMap = std::map<std::string, Value, std::less<>>;

std::string render_reference(const ReferenceMap& ref) {
  std::string out = "{";
  for (const auto& [k, v] : ref) {
    if (out.size() > 1) out += ',';
    out += '"' + k + "\":" + v.to_string();
  }
  return out + "}";
}

std::size_t reference_byte_size(const ReferenceMap& ref) {
  std::size_t total = 8;
  for (const auto& [k, v] : ref) total += k.size() + v.byte_size();
  return total;
}

// Random writes, erases and lookups run on a map Value and on a
// std::map; after every step the two must agree on everything a caller can
// observe.
TEST(ValueMapTest, FlatMapMatchesStdMapUnderRandomEdits) {
  // Shared prefixes, the empty key and keys past the 15-byte inline string
  // buffer; the last three are never written, so they probe absent keys.
  const std::vector<std::string> keys = {
      "", "a", "ab", "abc", "abd", "b", "ba", "session", "sessions",
      "a_key_longer_than_fifteen", "a_key_longer_than_fifteen_too",
      "absent", "ab\x7f", "zzzzzzzzzzzzzzzzzzzz"};
  const std::size_t writable = keys.size() - 3;
  std::mt19937 rng(20260419);
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  auto random_value = [&]() -> Value {
    switch (pick(4)) {
      case 0: return Value{static_cast<std::int64_t>(pick(100))};
      case 1: return Value{std::string(pick(20), 'v')};
      case 2:
        return Value::object({{"n", static_cast<std::int64_t>(pick(3))}});
      default: return Value{};
    }
  };

  Value flat{ValueMap{}};
  ReferenceMap ref;
  Value prev_flat = flat;
  ReferenceMap prev_ref;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t k = pick(keys.size());
    const std::string& key = keys[k];
    const bool writable_key = k < writable;
    switch (pick(4)) {
      case 0: {  // operator[] write
        if (!writable_key) break;
        const Value v = random_value();
        flat[key] = v;
        ref[key] = v;
        break;
      }
      case 1:  // erase, present or not
        EXPECT_EQ(flat.as_map().erase(key), ref.erase(key)) << key;
        break;
      default: {  // lookups, which must not insert
        const ValueMap& m = std::as_const(flat).as_map();
        const auto it = m.find(key);
        ASSERT_EQ(it != m.end(), ref.count(key) == 1) << key;
        if (it != m.end()) {
          EXPECT_EQ(it->second, ref.at(key));
        }
        break;
      }
    }

    const ValueMap& m = std::as_const(flat).as_map();
    ASSERT_EQ(m.size(), ref.size()) << "step " << step;
    ASSERT_EQ(flat.size(), ref.size());
    auto r = ref.begin();
    for (const auto& [entry_key, entry_value] : m) {
      ASSERT_EQ(entry_key, r->first) << "step " << step;
      ASSERT_EQ(entry_value, r->second) << "step " << step;
      ++r;
    }
    for (const std::string& probe : keys) {
      const auto found = ref.find(probe);
      ASSERT_EQ(flat.contains(probe), found != ref.end()) << probe;
      ASSERT_EQ(flat.at(probe),
                found == ref.end() ? null_value() : found->second);
    }
    ASSERT_EQ(flat.to_string(), render_reference(ref)) << "step " << step;
    ASSERT_EQ(flat.byte_size(), reference_byte_size(ref));
    // Equality against a storage-disjoint copy of the previous step's map.
    ASSERT_EQ(flat == prev_flat, ref == prev_ref) << "step " << step;
    prev_flat = flat;
    prev_flat.deep_detach();
    prev_ref = ref;
  }
}

TEST(ValueMapTest, InsertingIntoACopyLeavesTheOriginal) {
  const Value original = Value::object({{"b", 2}, {"d", 4}});
  Value copy = original;
  ASSERT_TRUE(copy.shares_storage_with(original));
  copy["c"] = 3;
  EXPECT_FALSE(copy.shares_storage_with(original));
  EXPECT_EQ(original.to_string(), "{\"b\":2,\"d\":4}");
  EXPECT_EQ(copy.to_string(), "{\"b\":2,\"c\":3,\"d\":4}");
}

TEST(ValueMapTest, BulkBuildSortsAndKeepsTheLastOfEqualKeys) {
  const ValueMap m({{"zeta", 1},
                    {"alpha", 2},
                    {"mid", 3},
                    {"alpha", 4},
                    {"zeta", 5},
                    {"alpha", 6},
                    {"", 7}});
  std::vector<std::string> order;
  for (const auto& [k, v] : m) order.push_back(k);
  EXPECT_EQ(order, (std::vector<std::string>{"", "alpha", "mid", "zeta"}));
  EXPECT_EQ(m.find("alpha")->second.as_int(), 6);
  EXPECT_EQ(m.find("zeta")->second.as_int(), 5);
  EXPECT_EQ(m.find("")->second.as_int(), 7);
  EXPECT_EQ(m.find("absent"), m.end());
}

TEST(ValueMapTest, ObjectSortsAndKeepsTheFirstOfEqualKeys) {
  const Value v = Value::object({{"k", 1}, {"j", 2}, {"k", 3}});
  EXPECT_EQ(v.to_string(), "{\"j\":2,\"k\":1}");
  // A list longer than the builder sorts on the stack.
  const Value long_list = Value::object(
      {{"r", 1},  {"q", 2},  {"p", 3},  {"o", 4},  {"n", 5},
       {"m", 6},  {"l", 7},  {"k", 8},  {"j", 9},  {"i", 10},
       {"h", 11}, {"g", 12}, {"f", 13}, {"e", 14}, {"d", 15},
       {"c", 16}, {"b", 17}, {"a", 18}, {"k", 19}});
  std::string keys;
  for (const auto& [k, value] : long_list.as_map()) keys += k;
  EXPECT_EQ(keys, "abcdefghijklmnopqr");
  EXPECT_EQ(long_list.at("k").as_int(), 8);
  EXPECT_EQ(long_list.at("a").as_int(), 18);
}

}  // namespace
}  // namespace aars::util
