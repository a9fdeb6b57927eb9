#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <type_traits>
#include <vector>

namespace aars::sim {
namespace {

// The route table points into the link map, so a copy would alias it.
static_assert(!std::is_copy_constructible_v<Network>);
static_assert(!std::is_copy_assignable_v<Network>);

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : rng_(42) {}
  Network net_;
  util::Rng rng_;
};

TEST_F(NetworkTest, AddAndFindNodes) {
  Node& a = net_.add_node("a", 1000);
  EXPECT_EQ(a.name(), "a");
  EXPECT_TRUE(a.id().valid());
  EXPECT_EQ(net_.node_count(), 1u);
  EXPECT_EQ(net_.find_node("a"), &a);
  EXPECT_EQ(net_.find_node("zz"), nullptr);
  EXPECT_EQ(net_.node_id("a"), a.id());
  EXPECT_FALSE(net_.node_id("zz").valid());
}

TEST_F(NetworkTest, DuplicateNodeNameThrows) {
  net_.add_node("a", 1000);
  EXPECT_THROW(net_.add_node("a", 2000), util::InvariantViolation);
}

TEST_F(NetworkTest, LinksRequireExistingDistinctNodes) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  EXPECT_THROW(net_.add_link(a, a, LinkSpec{}), util::InvariantViolation);
  EXPECT_THROW(net_.add_link(a, util::NodeId{99}, LinkSpec{}),
               util::InvariantViolation);
  net_.add_link(a, b, LinkSpec{});
  EXPECT_TRUE(net_.has_link(a, b));
  EXPECT_FALSE(net_.has_link(b, a));  // directed
}

TEST_F(NetworkTest, DuplexLinkAddsBothDirections) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  net_.add_duplex_link(a, b, LinkSpec{});
  EXPECT_TRUE(net_.has_link(a, b));
  EXPECT_TRUE(net_.has_link(b, a));
}

TEST_F(NetworkTest, SameNodeTransferIsFree) {
  const auto a = net_.add_node("a", 1000).id();
  const TransferOutcome out = net_.transfer(a, a, 1 << 20, rng_);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.delay, 0);
  EXPECT_EQ(out.hops, 0);
}

TEST_F(NetworkTest, UnreachableIsNotDelivered) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  const TransferOutcome out = net_.transfer(a, b, 100, rng_);
  EXPECT_FALSE(out.delivered);
}

TEST_F(NetworkTest, DelayIncludesLatencyAndSerialisation) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  LinkSpec spec;
  spec.latency = util::milliseconds(5);
  spec.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  net_.add_link(a, b, spec);
  // 100000 bytes at 1 MB/s = 0.1 s = 100000 us; + 5000 us latency.
  const TransferOutcome out = net_.transfer(a, b, 100000, rng_);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.delay, 105000);
  EXPECT_EQ(out.hops, 1);
}

TEST_F(NetworkTest, MultiHopRouting) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  const auto c = net_.add_node("c", 1000).id();
  LinkSpec spec;
  spec.latency = util::milliseconds(1);
  net_.add_link(a, b, spec);
  net_.add_link(b, c, spec);
  const auto route = net_.route(a, c);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route.front(), a);
  EXPECT_EQ(route.back(), c);
  const TransferOutcome out = net_.transfer(a, c, 0, rng_);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.hops, 2);
  EXPECT_GE(out.delay, 2000);
}

TEST_F(NetworkTest, RoutePrefersFewestHops) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  const auto c = net_.add_node("c", 1000).id();
  LinkSpec spec;
  net_.add_link(a, b, spec);
  net_.add_link(b, c, spec);
  net_.add_link(a, c, spec);  // direct shortcut
  EXPECT_EQ(net_.route(a, c).size(), 2u);
}

TEST_F(NetworkTest, LossyLinkDropsEventually) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  LinkSpec spec;
  spec.loss_probability = 0.5;
  net_.add_link(a, b, spec);
  int dropped = 0;
  for (int i = 0; i < 200; ++i) {
    if (!net_.transfer(a, b, 10, rng_).delivered) ++dropped;
  }
  EXPECT_GT(dropped, 50);
  EXPECT_LT(dropped, 150);
}

TEST_F(NetworkTest, JitterVariesDelay) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  LinkSpec spec;
  spec.latency = util::milliseconds(10);
  spec.jitter = util::milliseconds(2);
  net_.add_link(a, b, spec);
  bool varied = false;
  const auto base = net_.transfer(a, b, 0, rng_).delay;
  for (int i = 0; i < 50; ++i) {
    if (net_.transfer(a, b, 0, rng_).delay != base) {
      varied = true;
      break;
    }
  }
  EXPECT_TRUE(varied);
}

TEST_F(NetworkTest, FindLinkAllowsDynamicDegradation) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  net_.add_link(a, b, LinkSpec{});
  LinkSpec* link = net_.find_link(a, b);
  ASSERT_NE(link, nullptr);
  link->loss_probability = 1.0;
  EXPECT_FALSE(net_.transfer(a, b, 10, rng_).delivered);
  EXPECT_EQ(net_.find_link(b, a), nullptr);
}

TEST_F(NetworkTest, RemoveLinkUnroutesAndAddLinkRestores) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  net_.add_link(a, b, LinkSpec{});
  ASSERT_TRUE(net_.transfer(a, b, 10, rng_).delivered);  // fills the table
  ASSERT_TRUE(net_.remove_link(a, b).has_value());
  EXPECT_TRUE(net_.route(a, b).empty());
  EXPECT_FALSE(net_.transfer(a, b, 10, rng_).delivered);
  net_.add_link(a, b, LinkSpec{});
  EXPECT_EQ(net_.route(a, b), (std::vector<util::NodeId>{a, b}));
  EXPECT_TRUE(net_.transfer(a, b, 10, rng_).delivered);
}

TEST_F(NetworkTest, FindLinkEditsApplyWithoutTopologyChange) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  const auto c = net_.add_node("c", 1000).id();
  net_.add_link(a, b, LinkSpec{});
  net_.add_link(b, c, LinkSpec{});
  const Duration before = net_.transfer(a, c, 0, rng_).delay;
  net_.find_link(b, c)->latency += util::milliseconds(5);
  EXPECT_EQ(net_.transfer(a, c, 0, rng_).delay,
            before + util::milliseconds(5));
  net_.find_link(a, b)->loss_probability = 1.0;
  EXPECT_FALSE(net_.transfer(a, c, 0, rng_).delivered);
  net_.find_link(a, b)->loss_probability = 0.0;
  EXPECT_TRUE(net_.transfer(a, c, 0, rng_).delivered);
}

TEST_F(NetworkTest, DiamondRoutesViaLowerIdAndFollowsTopology) {
  const auto a = net_.add_node("a", 1000).id();
  const auto b = net_.add_node("b", 1000).id();
  const auto c = net_.add_node("c", 1000).id();
  const auto d = net_.add_node("d", 1000).id();
  net_.add_link(a, c, LinkSpec{});
  net_.add_link(c, d, LinkSpec{});
  net_.add_link(a, b, LinkSpec{});
  net_.add_link(b, d, LinkSpec{});
  using Path = std::vector<util::NodeId>;
  EXPECT_EQ(net_.route(a, d), (Path{a, b, d}));
  const LinkSpec saved = *net_.remove_link(a, b);
  EXPECT_EQ(net_.route(a, d), (Path{a, c, d}));
  net_.add_link(a, b, saved);
  EXPECT_EQ(net_.route(a, d), (Path{a, b, d}));
}

// The per-pair BFS that Network::route ran before the route table: out-links
// in (from, to) order, first parent found wins.
std::vector<util::NodeId> reference_route(
    const std::map<std::pair<util::NodeId, util::NodeId>, LinkSpec>& links,
    util::NodeId from, util::NodeId to) {
  if (from == to) return {from};
  std::map<util::NodeId, util::NodeId> parent;
  std::deque<util::NodeId> frontier{from};
  parent[from] = from;
  while (!frontier.empty()) {
    const util::NodeId current = frontier.front();
    frontier.pop_front();
    for (const auto& [key, spec] : links) {
      if (key.first != current) continue;
      const util::NodeId next = key.second;
      if (parent.count(next)) continue;
      parent[next] = current;
      if (next == to) {
        std::vector<util::NodeId> path{to};
        for (util::NodeId at = to; at != from;) {
          at = parent[at];
          path.push_back(at);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return {};
}

TransferOutcome reference_transfer(
    const std::map<std::pair<util::NodeId, util::NodeId>, LinkSpec>& links,
    util::NodeId from, util::NodeId to, std::size_t bytes, util::Rng& rng) {
  TransferOutcome out;
  if (from == to) return out;
  const std::vector<util::NodeId> path = reference_route(links, from, to);
  if (path.empty()) {
    out.delivered = false;
    return out;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkSpec& link = links.at({path[i], path[i + 1]});
    if (link.loss_probability > 0.0 && rng.chance(link.loss_probability)) {
      out.delivered = false;
      return out;
    }
    Duration hop = link.latency;
    hop += static_cast<Duration>(static_cast<double>(bytes) /
                                 link.bandwidth_bytes_per_sec *
                                 util::kSecond);
    if (link.jitter > 0) hop += rng.uniform_int(-link.jitter, link.jitter);
    out.delay += std::max<Duration>(hop, 0);
    ++out.hops;
  }
  return out;
}

// Random topologies of up to 12 nodes through random add/remove/degrade
// sequences: after every step the route table must answer exactly as the
// per-pair BFS does, draw for draw.
TEST(NetworkRouteTableTest, MatchesPerPairBfsUnderRandomTopologyChanges) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng script(seed);
    Network net;
    std::map<std::pair<util::NodeId, util::NodeId>, LinkSpec> mirror;
    const auto n = static_cast<std::size_t>(script.uniform_int(2, 12));
    std::vector<util::NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.add_node("n" + std::to_string(i), 1000).id());
    }
    const auto pick = [&] {
      return ids[static_cast<std::size_t>(
          script.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
    };
    util::Rng live(seed * 7919);
    util::Rng reference(seed * 7919);
    for (int step = 0; step < 150; ++step) {
      const util::NodeId from = pick();
      const util::NodeId to = pick();
      const double op = script.uniform();
      if (from != to && op < 0.45) {
        LinkSpec spec;
        spec.latency = script.uniform_int(0, 5000);
        spec.bandwidth_bytes_per_sec = script.uniform(1e5, 1e7);
        spec.jitter = script.chance(0.3) ? script.uniform_int(1, 500) : 0;
        spec.loss_probability = script.chance(0.2) ? script.uniform() : 0.0;
        net.add_link(from, to, spec);
        mirror[{from, to}] = spec;
      } else if (op < 0.7) {
        EXPECT_EQ(net.remove_link(from, to).has_value(),
                  mirror.erase({from, to}) > 0);
      } else if (LinkSpec* link = net.find_link(from, to)) {
        LinkSpec& shadow = mirror.at({from, to});
        link->latency += script.uniform_int(0, 2000);
        link->loss_probability = script.chance(0.5) ? 0.0 : 1.0;
        shadow = *link;
      }
      for (util::NodeId src : ids) {
        for (util::NodeId dst : ids) {
          ASSERT_EQ(net.route(src, dst), reference_route(mirror, src, dst))
              << "seed " << seed << " step " << step;
          const auto bytes = static_cast<std::size_t>(step * 97);
          const TransferOutcome got = net.transfer(src, dst, bytes, live);
          const TransferOutcome want =
              reference_transfer(mirror, src, dst, bytes, reference);
          ASSERT_EQ(got.delivered, want.delivered) << "seed " << seed;
          ASSERT_EQ(got.delay, want.delay) << "seed " << seed;
          ASSERT_EQ(got.hops, want.hops) << "seed " << seed;
        }
      }
      ASSERT_EQ(live.uniform_int(0, 1 << 30),
                reference.uniform_int(0, 1 << 30));
    }
  }
}

TEST_F(NetworkTest, NodeIdsEnumeratesAll) {
  net_.add_node("a", 1);
  net_.add_node("b", 1);
  net_.add_node("c", 1);
  EXPECT_EQ(net_.node_ids().size(), 3u);
}

}  // namespace
}  // namespace aars::sim
