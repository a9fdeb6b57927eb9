// Transactional enactment: multi-step plans that either commit whole or
// roll back to the previous configuration — on a failed step, an injected
// `fail-step` fault, or an expired whole-plan deadline.  Every post-abort
// world must pass the whole-architecture verifier clean.
#include "reconfig/txn.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "adl/compiler.h"
#include "analysis/explorer.h"
#include "analysis/path_props.h"
#include "analysis/verifier.h"
#include "fault/injector.h"
#include "fault/scenario.h"
#include "reconfig/rules.h"
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

TEST_F(TxnTest, AddUndoLeavesNoTimeoutBehind) {
  // The undo destroys `x` as soon as it drains, at once since it has no
  // channels.  The quiescence timeout armed beside the drain must go with
  // it instead of holding the Txn and the loop for another 10 s.
  auto txn = Txn::create(app_, engine_, "add_then_fail");
  txn->add_component("EchoServer", "x", "node_a")
      .add_component("EchoServer", "y", "nowhere");
  const std::weak_ptr<Txn> weak = txn;
  std::optional<ReconfigReport> report;
  txn->run([&](const ReconfigReport& r) { report = r; });
  txn.reset();
  loop_.run_until(0);

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->verdict, TxnVerdict::kRolledBack);
  EXPECT_EQ(report->rollback_failures, 0u);
  EXPECT_FALSE(app_.component_id("x").valid());
  EXPECT_EQ(loop_.pending(), 0u);
  EXPECT_TRUE(weak.expired());
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

// A reroute onto a replica that already serves one of the target's
// connectors: Application::redirect refuses it (`provider already
// attached`), because each channel keeps its own sequence and audit state
// and two channels cannot be merged.  The explorer's plan model refuses it
// too, so the two agree: no edge, and the live firing (verification off)
// rolls back to the configuration it started from.
TEST_F(TxnTest, RerouteOntoAnAttachedReplicaIsNoEdgeAndRollsBack) {
  const auto spare =
      app_.instantiate("EchoServer", "spare", node_a_, Value{}).value();
  connector::ConnectorSpec spec;
  spec.name = "pool";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  const auto pool = app_.create_connector(spec).value();
  ASSERT_TRUE(app_.add_provider(pool, server_).ok());
  ASSERT_TRUE(app_.add_provider(pool, spare).ok());

  const adl::CompilationResult compiled =
      adl::compile(std::string(aars::testing::kFixtureAdl) +
                   R"(instance server: EchoServer on node_a;
instance spare: EchoServer on node_a;
connector pool { routing round_robin; delivery sync; }
when queue_depth(pool) >= 0 reconfigure fold {
  reroute server to spare;
}
)");
  ASSERT_TRUE(compiled.ok());

  const analysis::ExplorationResult explored =
      analysis::explore(analysis::model_from(app_), compiled.program);
  EXPECT_EQ(explored.graph.edges.size(), 0u);
  EXPECT_EQ(explored.graph.states.size(), 1u);
  EXPECT_EQ(explored.aborted_firings, 0u);

  const std::string before =
      analysis::canonical_config_key(analysis::model_from(app_));
  auto rules =
      RuleSet::install(compiled.program, app_, engine_).value();
  ReconfigReport report;
  rules->set_firing_observer(
      [&report](util::Symbol, const ReconfigReport& r) { report = r; });
  rules->evaluate(loop_.now());
  loop_.run();

  EXPECT_EQ(rules->stats().fired, 1u);
  EXPECT_EQ(report.verdict, TxnVerdict::kRolledBack);
  EXPECT_EQ(report.status.code(), ErrorCode::kAlreadyExists)
      << report.error_message();
  EXPECT_EQ(analysis::canonical_config_key(analysis::model_from(app_)),
            before);
}

// Every undo kind restores the pre-firing configuration, as the explorer
// models a rollback.  `server` serves two direct connectors and `server2`
// is an idle replica; step 1 applies the op, step 2 targets a node that
// does not exist, so the rollback runs step 1's undo.
class TxnRoundTripTest
    : public TxnTest,
      public ::testing::WithParamInterface<analysis::PlanOp> {
 protected:
  TxnRoundTripTest() {
    connector::ConnectorSpec spec;
    spec.name = "alt";
    alt_ = app_.create_connector(spec).value();
    EXPECT_TRUE(app_.add_provider(alt_, server_).ok());
    EXPECT_TRUE(
        app_.instantiate("EchoServer", "server2", node_b_, Value{}).ok());
  }

  void apply(Txn& txn) {
    switch (GetParam()) {
      case analysis::PlanOp::kAdd:
        txn.add_component("EchoServer", "extra", "node_a");
        return;
      case analysis::PlanOp::kRemove:
        txn.remove_component("server");
        return;
      case analysis::PlanOp::kRebind:
        txn.rebind("client", "out", "alt");
        return;
      case analysis::PlanOp::kReplace:
        txn.replace_component("server", "EchoServer", "server_v2");
        return;
      case analysis::PlanOp::kMigrate:
        txn.migrate_component("server", "node_b");
        return;
      case analysis::PlanOp::kRedeploy: {
        TxnAction action;
        action.op = analysis::PlanOp::kRedeploy;
        action.instance_name = util::Symbol("server");
        action.node_name = util::Symbol("node_b");
        txn.enqueue(std::move(action));
        return;
      }
      case analysis::PlanOp::kReroute:
        txn.reroute("server", "server2");
        return;
    }
  }

  util::ConnectorId alt_;
};

TEST_P(TxnRoundTripTest, RollbackRestoresThePreFiringConfiguration) {
  const std::string before =
      analysis::canonical_config_key(analysis::model_from(app_));
  const std::size_t baseline = verifier_errors();

  auto txn = Txn::create(app_, engine_, "round_trip");
  apply(*txn);
  txn->add_component("EchoServer", "doomed", "nowhere");
  const ReconfigReport report = run(txn);

  EXPECT_EQ(report.verdict, TxnVerdict::kRolledBack);
  ASSERT_TRUE(report.steps[0].status.ok()) << report.error_message();
  EXPECT_EQ(report.rollback_steps, 1u);
  EXPECT_EQ(report.rollback_failures, 0u);
  EXPECT_EQ(analysis::canonical_config_key(analysis::model_from(app_)),
            before);
  EXPECT_EQ(verifier_errors(), baseline);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPlanOp, TxnRoundTripTest,
    ::testing::Values(analysis::PlanOp::kAdd, analysis::PlanOp::kRemove,
                      analysis::PlanOp::kRebind, analysis::PlanOp::kReplace,
                      analysis::PlanOp::kMigrate, analysis::PlanOp::kRedeploy,
                      analysis::PlanOp::kReroute),
    [](const ::testing::TestParamInfo<analysis::PlanOp>& info) {
      return std::string(adl::to_string(info.param));
    });

}  // namespace
}  // namespace aars::reconfig
