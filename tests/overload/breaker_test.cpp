#include "overload/breaker.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "component/message.h"
#include "fault/policies.h"
#include "testing/test_components.h"
#include "util/errors.h"
#include "util/time.h"

namespace aars::overload {
namespace {

using component::Message;
using component::Priority;
using connector::Interceptor;
using util::ErrorCode;
using util::Result;
using util::SimTime;
using util::Value;

/// Manual-clock harness that drives request/reply pairs through the breaker.
struct BreakerHarness {
  explicit BreakerHarness(BreakerPolicy policy)
      : breaker(policy, [this] { return now; }) {}

  Message make_request(Priority priority = Priority::kNormal) {
    Message msg;
    msg.operation = "echo";
    msg.sent_at = now;
    msg.control.priority = priority;
    return msg;
  }

  /// One full request/reply cycle: before(), then (if passed) after() with
  /// an ok or failed reply. Returns the before() verdict.
  Interceptor::Verdict sample(bool ok, Priority priority = Priority::kNormal) {
    Message msg = make_request(priority);
    last_reply = Result<Value>{Value{}};
    const Interceptor::Verdict verdict = breaker.before(msg, &last_reply);
    Result<Value> reply =
        ok ? Result<Value>{Value{}}
           : Result<Value>{util::Error{ErrorCode::kUnavailable, "down"}};
    breaker.after(msg, reply);
    return verdict;
  }

  SimTime now = 0;
  Result<Value> last_reply{Value{}};
  CircuitBreakerInterceptor breaker;
};

BreakerPolicy quick_policy() {
  BreakerPolicy policy;
  policy.min_samples = 4;
  policy.failure_rate_to_open = 0.5;
  policy.window = util::milliseconds(100);
  policy.open_cooldown = util::milliseconds(500);
  policy.half_open_probes = 2;
  return policy;
}

TEST(BreakerTest, TripsOnFailureRateAfterMinSamples) {
  BreakerHarness h(quick_policy());

  // Three samples (one failure) stay under min_samples: no trip yet.
  h.sample(true);
  h.sample(true);
  h.sample(false);
  EXPECT_EQ(h.breaker.state(), BreakerState::kClosed);

  // Fourth sample makes 2/4 failures == the 0.5 threshold: open.
  h.sample(false);
  EXPECT_EQ(h.breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(h.breaker.transitions(), 1u);
}

TEST(BreakerTest, WindowTumblesSoOldFailuresExpire) {
  BreakerHarness h(quick_policy());

  h.sample(false);
  h.sample(false);
  h.sample(false);
  EXPECT_EQ(h.breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(h.breaker.window_failures(), 3u);

  // Past the window the counts reset: the next failure starts a new window
  // (1/1 is over the rate but under min_samples) and nothing trips.
  h.now += util::milliseconds(150);
  h.sample(false);
  EXPECT_EQ(h.breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(h.breaker.window_samples(), 1u);
  EXPECT_EQ(h.breaker.window_failures(), 1u);
}

TEST(BreakerTest, OpenShortCircuitsWithOverloaded) {
  BreakerHarness h(quick_policy());
  h.breaker.trip(h.now);
  ASSERT_EQ(h.breaker.state(), BreakerState::kOpen);

  Message msg = h.make_request();
  Result<Value> reply{Value{}};
  EXPECT_EQ(h.breaker.before(msg, &reply), Interceptor::Verdict::kBlock);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code(), ErrorCode::kOverloaded);
  EXPECT_TRUE(msg.control.breaker_rejected);
  EXPECT_EQ(h.breaker.short_circuits(), 1u);

  // The breaker's own rejection must not feed the failure window.
  h.breaker.after(msg, reply);
  EXPECT_EQ(h.breaker.window_samples(), 0u);
}

TEST(BreakerTest, CooldownAdmitsExactlyTheProbeQuota) {
  BreakerHarness h(quick_policy());
  h.breaker.trip(h.now);

  // Before the cooldown: still rejecting.
  h.now += util::milliseconds(499);
  {
    Message msg = h.make_request();
    EXPECT_EQ(h.breaker.before(msg, nullptr), Interceptor::Verdict::kBlock);
  }

  // At the cooldown: half-open, exactly half_open_probes (2) pass.
  h.now += util::milliseconds(1);
  Message probe1 = h.make_request();
  Message probe2 = h.make_request();
  Message extra = h.make_request();
  EXPECT_EQ(h.breaker.before(probe1, nullptr), Interceptor::Verdict::kPass);
  EXPECT_EQ(h.breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(h.breaker.before(probe2, nullptr), Interceptor::Verdict::kPass);
  EXPECT_TRUE(probe1.control.breaker_probe);
  EXPECT_TRUE(probe2.control.breaker_probe);

  Result<Value> reply{Value{}};
  EXPECT_EQ(h.breaker.before(extra, &reply), Interceptor::Verdict::kBlock);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code(), ErrorCode::kOverloaded);

  // All probes succeed: closed, with a fresh window.
  Result<Value> ok{Value{}};
  h.breaker.after(probe1, ok);
  EXPECT_EQ(h.breaker.state(), BreakerState::kHalfOpen);
  h.breaker.after(probe2, ok);
  EXPECT_EQ(h.breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(h.breaker.window_samples(), 0u);
}

TEST(BreakerTest, ProbeFailureReopens) {
  BreakerHarness h(quick_policy());
  h.breaker.trip(h.now);
  h.now += util::milliseconds(500);

  Message probe = h.make_request();
  ASSERT_EQ(h.breaker.before(probe, nullptr), Interceptor::Verdict::kPass);
  Result<Value> fail{util::Error{ErrorCode::kUnavailable, "still down"}};
  h.breaker.after(probe, fail);
  EXPECT_EQ(h.breaker.state(), BreakerState::kOpen);

  // The new open period restarts the cooldown from the failed probe.
  Message msg = h.make_request();
  EXPECT_EQ(h.breaker.before(msg, nullptr), Interceptor::Verdict::kBlock);
}

TEST(BreakerTest, StaleProbeRepliesAreIgnored) {
  BreakerHarness h(quick_policy());
  h.breaker.trip(h.now);
  h.now += util::milliseconds(500);

  Message probe = h.make_request();
  ASSERT_EQ(h.breaker.before(probe, nullptr), Interceptor::Verdict::kPass);
  // The breaker re-opens (e.g. RAML intercession) while the probe is in
  // flight; its late success must not close the new open period.
  h.breaker.trip(h.now);
  Result<Value> ok{Value{}};
  h.breaker.after(probe, ok);
  EXPECT_EQ(h.breaker.state(), BreakerState::kOpen);
}

TEST(BreakerTest, SlowRepliesCountAsFailures) {
  BreakerPolicy policy = quick_policy();
  policy.min_samples = 2;
  policy.latency_to_open = util::milliseconds(1);
  BreakerHarness h(policy);

  // Replies arrive 2 ms after sending: over the latency bound, so two
  // "successful" samples still open the breaker.
  for (int i = 0; i < 2; ++i) {
    Message msg = h.make_request();
    ASSERT_EQ(h.breaker.before(msg, nullptr), Interceptor::Verdict::kPass);
    h.now += util::milliseconds(2);
    Result<Value> ok{Value{}};
    h.breaker.after(msg, ok);
  }
  EXPECT_EQ(h.breaker.state(), BreakerState::kOpen);
}

TEST(BreakerTest, ControlTrafficPassesAnOpenBreaker) {
  BreakerHarness h(quick_policy());
  h.breaker.trip(h.now);

  Message ctrl = h.make_request(Priority::kControl);
  EXPECT_EQ(h.breaker.before(ctrl, nullptr), Interceptor::Verdict::kPass);
  EXPECT_TRUE(ctrl.control.breaker_exempt);

  // Exempt replies are not window samples.
  Result<Value> fail{util::Error{ErrorCode::kUnavailable, "x"}};
  h.breaker.after(ctrl, fail);
  EXPECT_EQ(h.breaker.window_samples(), 0u);
  EXPECT_EQ(h.breaker.short_circuits(), 0u);
}

/// Integration: breaker composed with retry on a live connector. An open
/// breaker must answer before the retry interceptor ever sees the request —
/// zero provider traffic, zero retry attempts.
class BreakerAppTest : public aars::testing::AppFixture {};

TEST_F(BreakerAppTest, OpenBreakerShortCircuitsBeforeAnyRetry) {
  const util::ConnectorId conn = direct_to("EchoServer", "svc", node_b_);
  connector::Connector* connector = app_.find_connector(conn);
  ASSERT_NE(connector, nullptr);

  auto breaker = std::make_shared<CircuitBreakerInterceptor>(
      quick_policy(), [this] { return loop_.now(); }, "to_svc");
  fault::RetryPolicy retry_policy;
  retry_policy.max_retries = 3;
  ASSERT_TRUE(connector->attach_interceptor(breaker, -10).ok());
  ASSERT_TRUE(connector
                  ->attach_interceptor(
                      std::make_shared<fault::RetryInterceptor>(retry_policy),
                      0)
                  .ok());

  breaker->trip(loop_.now());

  bool done = false;
  Result<Value> reply{Value{}};
  app_.invoke_async(conn, "echo", Value::object({{"text", "hi"}}), node_a_,
                    [&](Result<Value> r, util::Duration) {
                      done = true;
                      reply = std::move(r);
                    });
  loop_.run();

  ASSERT_TRUE(done);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code(), ErrorCode::kOverloaded);
  EXPECT_EQ(app_.retries_scheduled(), 0u);
  EXPECT_EQ(breaker->short_circuits(), 1u);
  const component::Component* svc =
      app_.find_component(app_.component_id("svc"));
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->handled_count(), 0u);
}

// Probes lost on the network are samples too: each fails its half-open
// probe and re-opens the breaker, so once the link heals the breaker probes
// again and closes instead of refusing every call for want of a probe.
TEST_F(BreakerAppTest, ProbesLostOnTheNetworkDoNotWedgeAHalfOpenBreaker) {
  const util::ConnectorId conn = direct_to("EchoServer", "svc", node_b_);
  auto breaker = std::make_shared<CircuitBreakerInterceptor>(
      quick_policy(), [this] { return loop_.now(); }, "to_svc");
  ASSERT_TRUE(app_.find_connector(conn)->attach_interceptor(breaker).ok());
  sim::LinkSpec* link = network_.find_link(node_a_, node_b_);
  ASSERT_NE(link, nullptr);

  int served = 0;
  int failed = 0;
  const auto call = [&] {
    app_.invoke_async(conn, "echo", Value::object({{"text", "hi"}}), node_a_,
                      [&](Result<Value> r, util::Duration) {
                        ++(r.ok() ? served : failed);
                      });
  };
  breaker->trip(loop_.now());
  link->loss_probability = 1.0;
  // Past the cooldown the breaker lets its two probes through; the cut
  // link drops both.
  loop_.run_until(util::milliseconds(600));
  call();
  call();
  loop_.run();
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(breaker->state(), BreakerState::kOpen);

  link->loss_probability = 0.0;
  loop_.run_for(util::seconds(1));
  served = 0;
  failed = 0;
  for (int i = 0; i < 10; ++i) {
    call();
    loop_.run();
  }
  EXPECT_EQ(served, 10);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(breaker->state(), BreakerState::kClosed);
}

}  // namespace
}  // namespace aars::overload
