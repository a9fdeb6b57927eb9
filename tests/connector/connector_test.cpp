#include "connector/connector.h"

#include <gtest/gtest.h>

namespace aars::connector {
namespace {

using component::Message;
using util::ComponentId;
using util::ConnectorId;
using util::ErrorCode;
using util::Result;
using util::Value;

Connector make(RoutingPolicy routing = RoutingPolicy::kDirect) {
  ConnectorSpec spec;
  spec.name = "c";
  spec.routing = routing;
  return Connector(ConnectorId{1}, std::move(spec));
}

/// Interceptor recording its traversal order.
class Probe final : public Interceptor {
 public:
  Probe(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}
  Verdict before(Message&, Result<Value>*) override {
    log_.push_back(name_ + ":before");
    return Verdict::kPass;
  }
  void after(const Message&, Result<Value>&) override {
    log_.push_back(name_ + ":after");
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

class Blocker final : public Interceptor {
 public:
  Verdict before(Message&, Result<Value>* reply) override {
    if (reply != nullptr) {
      *reply = Result<Value>(
          util::Error{ErrorCode::kRejected, "blocked"});
    }
    return Verdict::kBlock;
  }
  void after(const Message&, Result<Value>&) override {}
  std::string name() const override { return "blocker"; }
};

class Responder final : public Interceptor {
 public:
  Verdict before(Message&, Result<Value>* reply) override {
    if (reply != nullptr) *reply = Result<Value>(Value{"cached"});
    return Verdict::kHandled;
  }
  void after(const Message&, Result<Value>&) override {}
  std::string name() const override { return "responder"; }
};

TEST(ConnectorTest, NameRequired) {
  EXPECT_THROW(Connector(ConnectorId{1}, ConnectorSpec{}),
               util::InvariantViolation);
}

TEST(ConnectorTest, DirectAllowsSingleProvider) {
  Connector conn = make();
  EXPECT_TRUE(conn.add_provider(ComponentId{1}).ok());
  const auto second = conn.add_provider(ComponentId{2});
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), ErrorCode::kInvalidArgument);
}

TEST(ConnectorTest, DuplicateProviderRejected) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  EXPECT_TRUE(conn.add_provider(ComponentId{1}).ok());
  EXPECT_EQ(conn.add_provider(ComponentId{1}).code(),
            ErrorCode::kAlreadyExists);
}

TEST(ConnectorTest, RemoveProvider) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  EXPECT_TRUE(conn.remove_provider(ComponentId{1}).ok());
  EXPECT_FALSE(conn.has_provider(ComponentId{1}));
  EXPECT_EQ(conn.remove_provider(ComponentId{1}).code(),
            ErrorCode::kNotFound);
}

TEST(ConnectorTest, SelectWithNoProviderFails) {
  Connector conn = make();
  Message m;
  const auto target = conn.select_target(m, nullptr);
  EXPECT_FALSE(target.ok());
  EXPECT_EQ(target.code(), ErrorCode::kUnavailable);
}

TEST(ConnectorTest, RoundRobinRotates) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  (void)conn.add_provider(ComponentId{3});
  Message m;
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    order.push_back(conn.select_target(m, nullptr).value().raw());
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 1, 2, 3}));
}

TEST(ConnectorTest, RoundRobinSurvivesRemoval) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  Message m;
  (void)conn.select_target(m, nullptr);  // 1
  (void)conn.remove_provider(ComponentId{1});
  const auto target = conn.select_target(m, nullptr);
  EXPECT_EQ(target.value(), ComponentId{2});
}

TEST(ConnectorTest, LeastBacklogPicksCalmest) {
  Connector conn = make(RoutingPolicy::kLeastBacklog);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  Message m;
  const LoadProbe probe = [](ComponentId id) -> std::int64_t {
    return id == ComponentId{2} ? 10 : 100;
  };
  EXPECT_EQ(conn.select_target(m, probe).value(), ComponentId{2});
}

TEST(ConnectorTest, BroadcastCannotSelectSingleTarget) {
  Connector conn = make(RoutingPolicy::kBroadcast);
  (void)conn.add_provider(ComponentId{1});
  Message m;
  EXPECT_FALSE(conn.select_target(m, nullptr).ok());
  EXPECT_EQ(conn.broadcast_targets().size(), 1u);
}

TEST(ConnectorTest, InterceptorOrderByPriorityThenAttach) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("late", log), 10);
  (void)conn.attach_interceptor(std::make_shared<Probe>("early", log), 0);
  (void)conn.attach_interceptor(std::make_shared<Probe>("mid", log), 5);
  Message m;
  Result<Value> reply = Value{};
  EXPECT_EQ(conn.run_before(m, &reply), Interceptor::Verdict::kPass);
  conn.run_after(m, reply);
  EXPECT_EQ(log, (std::vector<std::string>{"early:before", "mid:before",
                                           "late:before", "late:after",
                                           "mid:after", "early:after"}));
}

TEST(ConnectorTest, DuplicateInterceptorNameRejected) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("p", log));
  EXPECT_EQ(conn.attach_interceptor(std::make_shared<Probe>("p", log)).code(),
            ErrorCode::kAlreadyExists);
}

TEST(ConnectorTest, DetachInterceptor) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("p", log));
  EXPECT_EQ(conn.interceptor_count(), 1u);
  EXPECT_TRUE(conn.detach_interceptor("p").ok());
  EXPECT_EQ(conn.interceptor_count(), 0u);
  EXPECT_EQ(conn.detach_interceptor("p").code(), ErrorCode::kNotFound);
}

TEST(ConnectorTest, BlockingInterceptorShortCircuits) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Blocker>(), 0);
  (void)conn.attach_interceptor(std::make_shared<Probe>("after", log), 1);
  Message m;
  Result<Value> reply = Value{};
  EXPECT_EQ(conn.run_before(m, &reply), Interceptor::Verdict::kBlock);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(log.empty());  // downstream interceptor never ran
}

TEST(ConnectorTest, HandlingInterceptorProducesReply) {
  Connector conn = make();
  (void)conn.attach_interceptor(std::make_shared<Responder>());
  Message m;
  Result<Value> reply = Value{};
  EXPECT_EQ(conn.run_before(m, &reply), Interceptor::Verdict::kHandled);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().as_string(), "cached");
}

TEST(ConnectorTest, InterceptorNamesListed) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("a", log), 1);
  (void)conn.attach_interceptor(std::make_shared<Probe>("b", log), 0);
  EXPECT_EQ(conn.interceptor_names(),
            (std::vector<std::string>{"b", "a"}));
}

/// Probe variant that short-circuits with a configurable verdict.
class VetoProbe final : public Interceptor {
 public:
  VetoProbe(std::string name, Verdict verdict, std::vector<std::string>& log)
      : name_(std::move(name)), verdict_(verdict), log_(log) {}
  Verdict before(Message&, Result<Value>* reply) override {
    log_.push_back(name_ + ":before");
    if (verdict_ != Verdict::kPass && reply != nullptr) {
      *reply = verdict_ == Verdict::kHandled
                   ? Result<Value>(Value{"cached"})
                   : Result<Value>(
                         util::Error{ErrorCode::kRejected, "blocked"});
    }
    return verdict_;
  }
  void after(const Message&, Result<Value>&) override {
    log_.push_back(name_ + ":after");
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Verdict verdict_;
  std::vector<std::string>& log_;
};

// Regression: when run_before stopped early (kBlock), run_after used to
// unwind the WHOLE chain — interceptors downstream of the blocker saw a
// reply for a request their before() never observed. Only the prefix that
// ran (including the blocker) may unwind, in reverse order.
TEST(ConnectorTest, BlockedRequestUnwindsOnlySeenPrefix) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("outer", log), 0);
  (void)conn.attach_interceptor(
      std::make_shared<VetoProbe>("veto", Interceptor::Verdict::kBlock, log),
      1);
  (void)conn.attach_interceptor(std::make_shared<Probe>("inner", log), 2);
  Message m;
  Result<Value> reply = Value{};
  std::size_t seen = 0;
  EXPECT_EQ(conn.run_before(m, &reply, &seen), Interceptor::Verdict::kBlock);
  EXPECT_EQ(seen, 2u);  // outer + veto ran; inner never saw the request
  conn.run_after(m, reply, seen);
  EXPECT_EQ(log, (std::vector<std::string>{"outer:before", "veto:before",
                                           "veto:after", "outer:after"}));
}

// Same contract for kHandled: the responder and everything before it
// unwind; interceptors it short-circuited past do not.
TEST(ConnectorTest, HandledRequestUnwindsOnlySeenPrefix) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(
      std::make_shared<VetoProbe>("cache", Interceptor::Verdict::kHandled,
                                  log),
      0);
  (void)conn.attach_interceptor(std::make_shared<Probe>("inner", log), 1);
  Message m;
  Result<Value> reply = Value{};
  std::size_t seen = 0;
  EXPECT_EQ(conn.run_before(m, &reply, &seen),
            Interceptor::Verdict::kHandled);
  EXPECT_EQ(seen, 1u);
  ASSERT_TRUE(reply.ok());
  conn.run_after(m, reply, seen);
  EXPECT_EQ(log, (std::vector<std::string>{"cache:before", "cache:after"}));
}

// The default (no explicit seen count) still unwinds the full chain for
// requests that passed every interceptor.
TEST(ConnectorTest, FullChainUnwindsByDefault) {
  Connector conn = make();
  std::vector<std::string> log;
  (void)conn.attach_interceptor(std::make_shared<Probe>("a", log), 0);
  (void)conn.attach_interceptor(std::make_shared<Probe>("b", log), 1);
  Message m;
  Result<Value> reply = Value{};
  EXPECT_EQ(conn.run_before(m, &reply), Interceptor::Verdict::kPass);
  conn.run_after(m, reply);  // seen defaults to the whole chain
  EXPECT_EQ(log, (std::vector<std::string>{"a:before", "b:before", "b:after",
                                           "a:after"}));
}

TEST(ConnectorTest, RelayCounter) {
  Connector conn = make();
  conn.count_relay();
  conn.count_relay();
  EXPECT_EQ(conn.relayed(), 2u);
}

// Regression: removing a provider *before* the cursor used to leave the
// cursor pointing one past the intended next pick, so the provider that
// slid into its place lost a turn.
TEST(ConnectorTest, RoundRobinCursorSurvivesRemovalBeforeCursor) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  (void)conn.add_provider(ComponentId{3});
  Message m;
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{1});
  (void)conn.remove_provider(ComponentId{1});  // cursor was on 2
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{2});
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{3});
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{2});
}

// Removing the provider the cursor sits on (at the end of the list) must
// wrap the cursor instead of indexing out of range or skipping the front.
TEST(ConnectorTest, RoundRobinCursorClampedWhenTailRemoved) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  (void)conn.add_provider(ComponentId{3});
  Message m;
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{1});
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{2});
  (void)conn.remove_provider(ComponentId{3});  // cursor pointed at 3
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{1});
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{2});
}

// Regression: an avoid-list pick used to index the *filtered* candidate
// list with the providers_-based cursor, so a filtered call could repeat a
// provider while another lost its turn. The cursor must keep rotating over
// the full pool, skipping (not re-serving) avoided providers.
TEST(ConnectorTest, RoundRobinAvoidListKeepsRotationFair) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  (void)conn.add_provider(ComponentId{3});
  Message avoid2;
  avoid2.control.route_avoid = {ComponentId{2}};
  Message plain;
  EXPECT_EQ(conn.select_target(avoid2, nullptr).value(), ComponentId{1});
  EXPECT_EQ(conn.select_target(avoid2, nullptr).value(), ComponentId{3});
  EXPECT_EQ(conn.select_target(avoid2, nullptr).value(), ComponentId{1});
  // An unfiltered call resumes where the rotation actually stands: provider
  // 2 finally gets its turn, nobody is served twice in a row.
  EXPECT_EQ(conn.select_target(plain, nullptr).value(), ComponentId{2});
  EXPECT_EQ(conn.select_target(plain, nullptr).value(), ComponentId{3});
}

// When every provider is on the avoid list the connector falls back to
// normal rotation rather than failing the call.
TEST(ConnectorTest, RoundRobinAvoidAllFallsBackToRotation) {
  Connector conn = make(RoutingPolicy::kRoundRobin);
  (void)conn.add_provider(ComponentId{1});
  (void)conn.add_provider(ComponentId{2});
  Message m;
  m.control.route_avoid = {ComponentId{1}, ComponentId{2}};
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{1});
  EXPECT_EQ(conn.select_target(m, nullptr).value(), ComponentId{2});
}

// COW aliasing across interception: a copy taken before run_before shares
// its payload storage with the live message, and an interceptor mutating
// the live message must detach rather than disturb the alias.
TEST(ConnectorTest, InterceptorMutationLeavesAliasedCopyIntact) {
  class Tagger final : public Interceptor {
   public:
    Verdict before(Message& m, Result<Value>*) override {
      m.headers["tag"] = Value{"seen"};
      m.payload["hops"] = Value{std::int64_t{1}};
      return Verdict::kPass;
    }
    void after(const Message&, Result<Value>&) override {}
    std::string name() const override { return "tagger"; }
  };
  Connector conn = make();
  (void)conn.attach_interceptor(std::make_shared<Tagger>(), 0);
  Message m;
  m.payload = Value::object({{"k", Value{std::int64_t{7}}}});
  const Message before_copy = m;  // O(1): shares the payload node
  EXPECT_TRUE(before_copy.payload.shares_storage_with(m.payload));
  Result<Value> reply = Value{};
  EXPECT_EQ(conn.run_before(m, &reply), Interceptor::Verdict::kPass);
  // The live message changed; the pre-interception alias did not.
  EXPECT_TRUE(m.headers.contains("tag"));
  EXPECT_TRUE(m.payload.contains("hops"));
  EXPECT_FALSE(before_copy.headers.contains("tag"));
  EXPECT_FALSE(before_copy.payload.contains("hops"));
  EXPECT_EQ(before_copy.payload.at("k").as_int(), 7);
  EXPECT_FALSE(before_copy.payload.shares_storage_with(m.payload));
}

}  // namespace
}  // namespace aars::connector
