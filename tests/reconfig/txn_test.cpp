// Transactional enactment: multi-step plans that either commit whole or
// roll back to the previous configuration — on a failed step, an injected
// `fail-step` fault, or an expired whole-plan deadline.  Every post-abort
// world must pass the whole-architecture verifier clean.
#include "reconfig/txn.h"

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "fault/injector.h"
#include "fault/scenario.h"
#include "testing/test_components.h"
#include "util/time.h"

namespace aars::reconfig {
namespace {

using aars::testing::AppFixture;
using aars::testing::CounterServer;
using util::ErrorCode;
using util::Value;

class TxnTest : public AppFixture {
 protected:
  TxnTest() : engine_(app_) {
    server_ = app_.instantiate("EchoServer", "server", node_a_, Value{})
                  .value();
    client_ = app_.instantiate("EchoClient", "client", node_b_, Value{})
                  .value();
    connector::ConnectorSpec spec;
    spec.name = "main";
    main_ = app_.create_connector(spec).value();
    EXPECT_TRUE(app_.add_provider(main_, server_).ok());
    EXPECT_TRUE(app_.bind(client_, "out", main_).ok());
  }

  /// Runs `txn`, drives the loop to completion and returns the report.
  ReconfigReport run(const std::shared_ptr<Txn>& txn) {
    ReconfigReport report;
    txn->run([&](const ReconfigReport& r) { report = r; });
    loop_.run();
    return report;
  }

  std::size_t verifier_errors() {
    return analysis::verify_architecture(analysis::model_from(app_)).errors();
  }

  ReconfigurationEngine engine_;
  util::ComponentId server_;
  util::ComponentId client_;
  util::ConnectorId main_;
};

TEST_F(TxnTest, CommitsAMultiStepPlan) {
  const std::size_t baseline = verifier_errors();
  auto txn = Txn::create(app_, engine_, "scale_out");
  txn->add_component("EchoServer", "server2", "node_a")
      .reroute("server", "server2");
  const ReconfigReport report = run(txn);

  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report.verdict, TxnVerdict::kCommitted);
  ASSERT_EQ(report.steps.size(), 2u);
  for (const StepOutcome& step : report.steps) {
    EXPECT_TRUE(step.attempted);
    EXPECT_TRUE(step.status.ok());
  }
  // The reroute retired the old server in favour of the fresh replica.
  const auto replica = app_.component_id("server2");
  ASSERT_TRUE(replica.valid());
  EXPECT_FALSE(app_.component_id("server").valid());
  EXPECT_TRUE(app_.find_connector(main_)->has_provider(replica));
  EXPECT_EQ(verifier_errors(), baseline);
}

TEST_F(TxnTest, InjectedStepFaultRollsTheAppliedPrefixBack) {
  // Arm a deterministic mid-plan fault: step 2 of any 2-step plan fails
  // while the window is open.
  fault::FaultInjector injector(app_);
  fault::FaultScenario scenario;
  scenario.fail_step(2, util::milliseconds(1), util::seconds(1), 2);
  ASSERT_TRUE(injector.arm(scenario).ok());
  const std::size_t baseline = verifier_errors();

  Txn::Options options;
  options.injector = &injector;
  auto txn = Txn::create(app_, engine_, "scale_out", options);
  txn->add_component("EchoServer", "server2", "node_a")
      .reroute("server", "server2");

  ReconfigReport report;
  loop_.schedule_after(util::milliseconds(2),
                       [&] { txn->run([&](const ReconfigReport& r) {
                               report = r;
                             }); });
  loop_.run();

  ASSERT_TRUE(txn->finished());
  EXPECT_EQ(report.verdict, TxnVerdict::kRolledBack);
  EXPECT_EQ(report.status.code(), ErrorCode::kUnavailable);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.steps[0].status.ok());
  EXPECT_TRUE(report.steps[1].attempted);
  EXPECT_FALSE(report.steps[1].status.ok());
  EXPECT_EQ(report.rollback_steps, 1u);
  EXPECT_EQ(report.rollback_failures, 0u);
  // The added replica was destroyed again; the old topology is intact.
  EXPECT_FALSE(app_.component_id("server2").valid());
  EXPECT_TRUE(app_.find_connector(main_)->has_provider(server_));
  EXPECT_EQ(verifier_errors(), baseline);
}

TEST_F(TxnTest, DeadlineExpiryRollsBackCompletedSteps) {
  // The server is mid-activity until 5ms, so step 1's replace spends well
  // over the 1ms whole-plan budget waiting for quiescence; the deadline
  // check between steps 1 and 2 aborts the txn even though step 1 itself
  // succeeded.
  auto* comp = app_.find_component(server_);
  ASSERT_NE(comp, nullptr);
  comp->begin_activity();
  loop_.schedule_after(util::milliseconds(5), [comp] { comp->end_activity(); });

  const std::size_t baseline = verifier_errors();
  Txn::Options options;
  options.deadline = util::milliseconds(1);
  auto txn = Txn::create(app_, engine_, "upgrade", options);
  txn->replace_component("server", "EchoServer", "server_v2")
      .add_component("EchoServer", "extra", "node_a");
  const ReconfigReport report = run(txn);

  EXPECT_EQ(report.verdict, TxnVerdict::kRolledBack);
  EXPECT_EQ(report.status.code(), ErrorCode::kTimeout);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.steps[0].attempted);
  EXPECT_TRUE(report.steps[0].status.ok());
  EXPECT_FALSE(report.steps[1].attempted);
  EXPECT_EQ(report.rollback_steps, 1u);
  // The replacement was unwound: the original instance name is live again
  // (with a fresh id), the replacement and the never-attempted add are not.
  EXPECT_TRUE(app_.component_id("server").valid());
  EXPECT_FALSE(app_.component_id("server_v2").valid());
  EXPECT_FALSE(app_.component_id("extra").valid());
  EXPECT_TRUE(app_.find_connector(main_)
                  ->has_provider(app_.component_id("server")));
  EXPECT_EQ(verifier_errors(), baseline);
}

TEST_F(TxnTest, RemoveRollbackResurrectsStateFromTheSnapshot) {
  const auto jobs = direct_to("CounterServer", "counter", node_a_);
  auto* counter = dynamic_cast<CounterServer*>(
      app_.find_component(app_.component_id("counter")));
  ASSERT_NE(counter, nullptr);
  counter->set_total(42);
  const std::size_t baseline = verifier_errors();

  // Step 1 removes the counter (protocol succeeds); step 2 targets a node
  // that does not exist, failing the plan after the remove already landed.
  auto txn = Txn::create(app_, engine_, "shrink");
  txn->remove_component("counter")
      .add_component("EchoServer", "extra", "nowhere");
  const ReconfigReport report = run(txn);

  EXPECT_EQ(report.verdict, TxnVerdict::kRolledBack);
  EXPECT_EQ(report.status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(report.rollback_steps, 1u);
  EXPECT_EQ(report.rollback_failures, 0u);
  // The counter was resurrected from its boundary snapshot: same name, same
  // state, same connector membership.
  const auto resurrected = app_.component_id("counter");
  ASSERT_TRUE(resurrected.valid());
  auto* restored = dynamic_cast<CounterServer*>(
      app_.find_component(resurrected));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->total(), 42);
  EXPECT_TRUE(app_.find_connector(jobs)->has_provider(resurrected));
  EXPECT_EQ(verifier_errors(), baseline);
}

TEST_F(TxnTest, ReportReadsUnfinishedUntilTheTxnSettles) {
  // Keep the server busy briefly so the remove protocol genuinely spans
  // simulated time instead of quiescing inline.
  auto* comp = app_.find_component(server_);
  ASSERT_NE(comp, nullptr);
  comp->begin_activity();
  loop_.schedule_after(util::milliseconds(1), [comp] { comp->end_activity(); });

  auto txn = Txn::create(app_, engine_, "slow");
  txn->remove_component("server");

  // Before and during the run, the aggregated report must never read as ok
  // — the "protocol did not complete" guarantee extends to txns.
  EXPECT_FALSE(txn->report().ok());
  EXPECT_EQ(txn->report().error_message(), "protocol did not complete");

  bool settled = false;
  txn->run([&](const ReconfigReport&) { settled = true; });
  EXPECT_FALSE(txn->finished());  // remove is asynchronous
  EXPECT_FALSE(txn->report().ok());
  loop_.run();
  ASSERT_TRUE(settled);
  EXPECT_TRUE(txn->finished());
  EXPECT_TRUE(txn->report().ok());
  EXPECT_EQ(txn->report().verdict, TxnVerdict::kCommitted);
}

}  // namespace
}  // namespace aars::reconfig
