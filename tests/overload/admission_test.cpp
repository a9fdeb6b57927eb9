#include "overload/admission.h"

#include <gtest/gtest.h>

#include "component/message.h"
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

Message request(Priority priority, const std::string& op = "echo") {
  Message msg;
  msg.operation = op;
  msg.control.priority = priority;
  return msg;
}

/// Test harness: manual clock + manual depth, both driven by the test.
struct AdmissionHarness {
  explicit AdmissionHarness(AdmissionPolicy policy)
      : gate(policy, [this] { return now; }, [this] { return depth; }) {}

  /// Runs one request through before(); returns the verdict and captures
  /// the reply (if any) into `last_reply`.
  Interceptor::Verdict offer(Priority priority) {
    Message msg = request(priority);
    last_reply = Result<Value>{Value{}};
    return gate.before(msg, &last_reply);
  }

  SimTime now = 0;
  std::size_t depth = 0;
  Result<Value> last_reply{Value{}};
  AdmissionInterceptor gate;
};

TEST(AdmissionTest, ControlAlwaysAdmitted) {
  AdmissionPolicy policy;
  policy.rate_per_sec = 100.0;
  policy.burst = 1.0;
  AdmissionHarness h(policy);

  // Drain the (single-token) bucket.
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass);
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);

  // Control traffic still passes — and indefinitely so.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(h.offer(Priority::kControl), Interceptor::Verdict::kPass);
  }
  EXPECT_EQ(h.gate.shed(Priority::kControl), 0u);
}

TEST(AdmissionTest, TokenBucketDrainsAndRefillsDeterministically) {
  AdmissionPolicy policy;
  policy.rate_per_sec = 1000.0;
  policy.burst = 10.0;
  policy.reserve_fraction = 0.0;
  AdmissionHarness h(policy);

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass) << i;
  }
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  ASSERT_FALSE(h.last_reply.ok());
  EXPECT_EQ(h.last_reply.error().code(), ErrorCode::kOverloaded);
  EXPECT_EQ(h.gate.admitted(), 10u);
  EXPECT_EQ(h.gate.shed(Priority::kNormal), 1u);

  // 5.1 ms at 1000/s refills ~5.1 tokens: exactly five more admits.
  h.now += util::microseconds(5100);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass) << i;
  }
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  EXPECT_EQ(h.gate.shed_total(), 2u);
}

TEST(AdmissionTest, BestEffortCannotDrainTheReserve) {
  AdmissionPolicy policy;
  policy.rate_per_sec = 100.0;
  policy.burst = 10.0;
  policy.reserve_fraction = 0.5;  // bottom 5 tokens are off-limits
  AdmissionHarness h(policy);

  // Best-effort admits only while the bucket stays above the reserve.
  int admitted = 0;
  while (h.offer(Priority::kBestEffort) == Interceptor::Verdict::kPass) {
    ++admitted;
    ASSERT_LT(admitted, 100);
  }
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(h.gate.shed(Priority::kBestEffort), 1u);

  // Normal traffic may spend the reserved tokens.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass) << i;
  }
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
}

TEST(AdmissionTest, QueueDepthGateHasHysteresis) {
  AdmissionPolicy policy;
  policy.queue_high = 10;
  policy.queue_low = 4;
  policy.shed_below = Priority::kHigh;
  AdmissionHarness h(policy);

  h.depth = 9;
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass);
  EXPECT_FALSE(h.gate.overloaded());

  h.depth = 10;  // crosses high watermark
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  EXPECT_TRUE(h.gate.overloaded());
  ASSERT_FALSE(h.last_reply.ok());
  EXPECT_EQ(h.last_reply.error().code(), ErrorCode::kOverloaded);

  h.depth = 5;  // between low and high: still shedding
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  EXPECT_EQ(h.offer(Priority::kBestEffort), Interceptor::Verdict::kBlock);
  // kHigh is at the shed_below boundary and passes.
  EXPECT_EQ(h.offer(Priority::kHigh), Interceptor::Verdict::kPass);

  h.depth = 4;  // back at the low watermark: pressure released
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass);
  EXPECT_FALSE(h.gate.overloaded());
  EXPECT_EQ(h.gate.pressure_transitions(), 2u);
  EXPECT_EQ(h.gate.shed(Priority::kNormal), 2u);
  EXPECT_EQ(h.gate.shed(Priority::kBestEffort), 1u);
}

TEST(AdmissionTest, HighPriorityBypassesTheBucket) {
  AdmissionPolicy policy;
  policy.rate_per_sec = 100.0;
  policy.burst = 1.0;
  AdmissionHarness h(policy);

  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass);
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(h.offer(Priority::kHigh), Interceptor::Verdict::kPass) << i;
  }
  EXPECT_EQ(h.gate.shed(Priority::kHigh), 0u);
}

TEST(AdmissionTest, ShedRepliesCarryOverloadedNotRejected) {
  AdmissionPolicy policy;
  policy.rate_per_sec = 100.0;
  policy.burst = 1.0;
  AdmissionHarness h(policy);

  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kPass);
  EXPECT_EQ(h.offer(Priority::kNormal), Interceptor::Verdict::kBlock);
  ASSERT_FALSE(h.last_reply.ok());
  EXPECT_EQ(h.last_reply.error().code(), ErrorCode::kOverloaded);
  EXPECT_NE(h.last_reply.error().message().find("shed"), std::string::npos);
}

}  // namespace
}  // namespace aars::overload
