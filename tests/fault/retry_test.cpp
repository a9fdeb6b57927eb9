// Satellite coverage for the connector retry/backoff/failover/timeout path:
// budget exhaustion, backoff cap, interceptor-verdict interaction and
// cancellation while a retry is waiting out its backoff.
#include "fault/policies.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "component/message.h"
#include "obs/metrics.h"
#include "testing/test_components.h"
#include "util/time.h"

namespace aars::fault {
namespace {

using aars::testing::AppFixture;
using component::Component;
using component::Message;
using util::Duration;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Value;

/// Echo provider that fails the first `failures` calls (forever when
/// negative) with a configurable error code.
class FlakyServer : public Component {
 public:
  FlakyServer(const std::string& instance_name, std::shared_ptr<int> failures,
              ErrorCode fail_code = ErrorCode::kUnavailable)
      : Component("FlakyServer", instance_name),
        failures_(std::move(failures)) {
    set_provided(aars::testing::echo_interface());
    register_operation("echo",
                       1.0, [this, fail_code](const Value& args) -> Result<Value> {
      ++calls_;
      if (*failures_ != 0) {
        if (*failures_ > 0) --*failures_;
        return Error{fail_code, "flaky: transient failure"};
      }
      return Value{args.at("text").as_string()};
    });
    register_operation("ping", 0.1, [](const Value&) -> Result<Value> {
      return Value{std::int64_t{1}};
    });
  }

  int calls() const { return calls_; }

 private:
  std::shared_ptr<int> failures_;
  int calls_ = 0;
};

/// Interceptor that blocks every request, optionally substituting a reply.
class Blocker : public connector::Interceptor {
 public:
  explicit Blocker(Result<Value> reply) : reply_(std::move(reply)) {}
  std::string name() const override { return "blocker"; }
  Verdict before(Message&, Result<Value>* reply_out) override {
    *reply_out = reply_;
    return Verdict::kBlock;
  }
  void after(const Message&, Result<Value>&) override {}

 private:
  Result<Value> reply_;
};

class RetryTest : public AppFixture {
 protected:
  struct FlakyWorld {
    util::ConnectorId conn;
    util::ComponentId id;
    FlakyServer* server = nullptr;
    std::shared_ptr<RetryInterceptor> retry;
  };

  /// Deploys a FlakyServer on node_a and a direct connector guarded by a
  /// RetryInterceptor.
  FlakyWorld make_flaky(const std::string& name, int failures,
                        const RetryPolicy& policy,
                        ErrorCode fail_code = ErrorCode::kUnavailable) {
    FlakyWorld world;
    auto budget = std::make_shared<int>(failures);
    registry_.register_type(
        "Flaky_" + name, [budget, fail_code](const std::string& instance) {
          return std::make_unique<FlakyServer>(instance, budget, fail_code);
        });
    auto comp = app_.instantiate("Flaky_" + name, name, node_a_, Value{});
    EXPECT_TRUE(comp.ok());
    world.id = comp.value();
    world.server = dynamic_cast<FlakyServer*>(app_.find_component(world.id));
    connector::ConnectorSpec spec;
    spec.name = "svc_" + name;
    auto conn = app_.create_connector(spec);
    EXPECT_TRUE(conn.ok());
    world.conn = conn.value();
    EXPECT_TRUE(app_.add_provider(world.conn, world.id).ok());
    world.retry = std::make_shared<RetryInterceptor>(policy);
    EXPECT_TRUE(app_.find_connector(world.conn)
                    ->attach_interceptor(world.retry)
                    .ok());
    return world;
  }

  /// One async echo; returns (result, completion sim-time, #callbacks).
  struct CallProbe {
    Result<Value> result = Value{};
    util::SimTime completed_at = -1;
    int callbacks = 0;
  };

  std::shared_ptr<CallProbe> echo_async(util::ConnectorId conn) {
    auto probe = std::make_shared<CallProbe>();
    app_.invoke_async(conn, "echo", Value::object({{"text", "hi"}}), node_b_,
                      [this, probe](Result<Value> r, Duration) {
                        ++probe->callbacks;
                        probe->result = std::move(r);
                        probe->completed_at = loop_.now();
                      });
    return probe;
  }
};

TEST_F(RetryTest, TransientFailuresAreMaskedByRetries) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base = 1000;
  auto world = make_flaky("svc", /*failures=*/2, policy);

  auto probe = echo_async(world.conn);
  loop_.run();

  ASSERT_TRUE(probe->result.ok()) << probe->result.error().message();
  EXPECT_EQ(probe->result.value().as_string(), "hi");
  EXPECT_EQ(probe->callbacks, 1);
  EXPECT_EQ(world.server->calls(), 3);  // 1 attempt + 2 retries
  EXPECT_EQ(app_.retries_scheduled(), 2u);
  EXPECT_EQ(world.retry->retries_seen(), 2u);
  EXPECT_EQ(world.retry->budget_exhausted(), 0u);
  EXPECT_EQ(app_.pending_retries(), 0u);
}

TEST_F(RetryTest, BudgetExhaustionSurfacesTheFinalError) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base = 1000;
  auto world = make_flaky("svc", /*failures=*/-1, policy);

  auto probe = echo_async(world.conn);
  loop_.run();

  ASSERT_FALSE(probe->result.ok());
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(probe->callbacks, 1);
  EXPECT_EQ(world.server->calls(), 3);  // budget 2 => 3 relays total
  EXPECT_EQ(app_.retries_scheduled(), 2u);
  EXPECT_EQ(app_.retries_exhausted(), 1u);
  EXPECT_EQ(world.retry->budget_exhausted(), 1u);
}

TEST_F(RetryTest, BackoffIsClampedAtTheCap) {
  // Two identical always-failing services; the only difference is the cap.
  // Uncapped backoffs: 1000 + 2000 + 4000; capped at 2000: 1000 + 2000 +
  // 2000. Everything else (link latency, service time) is deterministic and
  // identical, so the completion times differ by exactly 2000 us.
  RetryPolicy uncapped;
  uncapped.max_retries = 3;
  uncapped.backoff_base = 1000;
  uncapped.backoff_cap = 100000;
  RetryPolicy capped = uncapped;
  capped.backoff_cap = 2000;
  auto world_u = make_flaky("uncapped", -1, uncapped);
  auto world_c = make_flaky("capped", -1, capped);

  auto probe_u = echo_async(world_u.conn);
  loop_.run();
  const Duration elapsed_u = probe_u->completed_at;

  const util::SimTime second_start = loop_.now();
  auto probe_c = echo_async(world_c.conn);
  loop_.run();
  const Duration elapsed_c = probe_c->completed_at - second_start;

  ASSERT_FALSE(probe_u->result.ok());
  ASSERT_FALSE(probe_c->result.ok());
  EXPECT_EQ(elapsed_u - elapsed_c, 2000);
  EXPECT_GE(elapsed_u, 7000);  // at least the sum of uncapped backoffs
}

TEST_F(RetryTest, BlockedCallsAreNeverRetried) {
  RetryPolicy policy;
  policy.max_retries = 3;
  auto world = make_flaky("svc", /*failures=*/0, policy);
  // An earlier interceptor blocks with a *retryable* error code; because the
  // chain stops before the retry interceptor stamps its headers, the call
  // must not be retried.
  ASSERT_TRUE(app_.find_connector(world.conn)
                  ->attach_interceptor(
                      std::make_shared<Blocker>(Result<Value>(
                          Error{ErrorCode::kUnavailable, "blocked"})),
                      /*priority=*/-10)
                  .ok());

  auto probe = echo_async(world.conn);
  loop_.run();

  ASSERT_FALSE(probe->result.ok());
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(world.server->calls(), 0);  // never reached the provider
  EXPECT_EQ(app_.retries_scheduled(), 0u);
  EXPECT_EQ(world.retry->retries_seen(), 0u);
}

TEST_F(RetryTest, RejectedErrorsAreNotRetryable) {
  RetryPolicy policy;
  policy.max_retries = 3;
  auto world =
      make_flaky("svc", /*failures=*/-1, policy, ErrorCode::kRejected);

  auto probe = echo_async(world.conn);
  loop_.run();

  ASSERT_FALSE(probe->result.ok());
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kRejected);
  EXPECT_EQ(world.server->calls(), 1);  // single attempt, no retry
  EXPECT_EQ(app_.retries_scheduled(), 0u);
}

TEST_F(RetryTest, CancelDuringBackoffCompletesExactlyOnce) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base = util::milliseconds(10);
  auto world = make_flaky("svc", /*failures=*/-1, policy);

  auto probe = echo_async(world.conn);
  // First attempt fails around t=2ms; the retry then waits out a 10 ms
  // backoff. Remove the connector in the middle of that window.
  loop_.schedule_at(util::milliseconds(5), [this, &world] {
    ASSERT_TRUE(app_.remove_connector(world.conn).ok());
  });
  loop_.run();

  EXPECT_EQ(probe->callbacks, 1);
  ASSERT_FALSE(probe->result.ok());
  // The pending retry fired into a missing connector and finished the call
  // with the original failure.
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kUnavailable);
  EXPECT_GE(probe->completed_at, util::milliseconds(10));
  EXPECT_EQ(app_.pending_retries(), 0u);
  EXPECT_EQ(app_.find_connector(world.conn), nullptr);
}

TEST_F(RetryTest, FailoverRoutesRetriesToALiveReplica) {
  // Round-robin over a dead replica (always fails) and a healthy one; the
  // first relay hits the dead provider, the retry carries it in the avoid
  // list and lands on the replica.
  auto dead_budget = std::make_shared<int>(-1);
  auto live_budget = std::make_shared<int>(0);
  registry_.register_type("FlakyDead", [dead_budget](const std::string& n) {
    return std::make_unique<FlakyServer>(n, dead_budget);
  });
  registry_.register_type("FlakyLive", [live_budget](const std::string& n) {
    return std::make_unique<FlakyServer>(n, live_budget);
  });
  auto dead = app_.instantiate("FlakyDead", "dead", node_a_, Value{}).value();
  auto live = app_.instantiate("FlakyLive", "live", node_a_, Value{}).value();
  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  auto conn = app_.create_connector(spec).value();
  ASSERT_TRUE(app_.add_provider(conn, dead).ok());
  ASSERT_TRUE(app_.add_provider(conn, live).ok());
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base = 1000;
  policy.failover = true;
  ASSERT_TRUE(app_.find_connector(conn)
                  ->attach_interceptor(
                      std::make_shared<RetryInterceptor>(policy))
                  .ok());

  auto probe = echo_async(conn);
  loop_.run();

  ASSERT_TRUE(probe->result.ok()) << probe->result.error().message();
  auto* dead_srv = dynamic_cast<FlakyServer*>(app_.find_component(dead));
  auto* live_srv = dynamic_cast<FlakyServer*>(app_.find_component(live));
  EXPECT_EQ(dead_srv->calls(), 1);
  EXPECT_EQ(live_srv->calls(), 1);
  EXPECT_EQ(app_.retries_scheduled(), 1u);
}

TEST_F(RetryTest, WholeCallDeadlineWinsTheRaceAndFiresOnce) {
  RetryPolicy policy;
  policy.max_retries = 0;
  policy.timeout = 500;  // << the ~2 ms round trip
  auto world = make_flaky("svc", /*failures=*/0, policy);

  auto probe = echo_async(world.conn);
  loop_.run();  // drains the late (suppressed) real reply too

  ASSERT_FALSE(probe->result.ok());
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(probe->completed_at, 500);
  EXPECT_EQ(probe->callbacks, 1);
  EXPECT_EQ(app_.calls_timed_out(), 1u);
}

// A budget spent on transport failures is exhausted in both ledgers: the
// interceptor's after() sees each lost attempt, as the retry driver does.
TEST_F(RetryTest, ABudgetSpentOnNetworkLossIsExhaustedInBothLedgers) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base = 1000;
  auto world = make_flaky("svc", /*failures=*/0, policy);
  network_.find_link(node_b_, node_a_)->loss_probability = 1.0;

  auto probe = echo_async(world.conn);
  loop_.run();

  ASSERT_FALSE(probe->result.ok());
  EXPECT_EQ(probe->result.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(probe->callbacks, 1);
  EXPECT_EQ(world.server->calls(), 0);
  EXPECT_EQ(app_.retries_scheduled(), 2u);
  EXPECT_EQ(app_.retries_exhausted(), 1u);
  EXPECT_EQ(world.retry->budget_exhausted(), 1u);
}

// The policy resolves "fault.retries" and "fault.retry_exhausted" at first
// use and keeps the handles: building an interceptor looks up no series,
// and the kept handles still count after the registry's values are reset.
TEST_F(RetryTest, KeptCountersStillCountAfterARegistryReset) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const std::size_t series = reg.counters().size();
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.backoff_base = 1000;
  { RetryInterceptor unused(policy); }
  EXPECT_EQ(reg.counters().size(), series);

  auto world = make_flaky("svc", /*failures=*/-1, policy);
  auto first = echo_async(world.conn);
  loop_.run();
  ASSERT_FALSE(first->result.ok());
  reg.reset_values();
  auto second = echo_async(world.conn);
  loop_.run();
  ASSERT_FALSE(second->result.ok());
  EXPECT_EQ(reg.counter("fault.retries").value(), 1u);
  EXPECT_EQ(reg.counter("fault.retry_exhausted").value(), 1u);
  EXPECT_EQ(world.retry->retries_seen(), 2u);
  EXPECT_EQ(world.retry->budget_exhausted(), 2u);
  reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace aars::fault
