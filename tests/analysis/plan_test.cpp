#include "analysis/plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/architecture.h"
#include "analysis/verifier.h"
#include "util/rng.h"

namespace aars::analysis {
namespace {

ModelInstance make_instance(const std::string& name, const std::string& type,
                            const std::string& node,
                            std::vector<std::string> ports = {}) {
  ModelInstance inst;
  inst.name = name;
  inst.type = type;
  inst.node = node;
  for (std::string& p : ports) inst.required.push_back({std::move(p), ""});
  return inst;
}

/// client -> server over connector `c`, nodes n1 <-> n2.
ArchitectureModel base_model() {
  ArchitectureModel model;
  model.nodes = {"n1", "n2"};
  model.links = {{"n1", "n2", 1000}, {"n2", "n1", 1000}};
  model.instances.push_back(make_instance("server", "EchoServer", "n1"));
  model.instances.push_back(make_instance("client", "Client", "n2", {"out"}));
  ModelConnector conn;
  conn.name = "c";
  conn.providers = {"server"};
  model.connectors.push_back(std::move(conn));
  ModelBinding bind;
  bind.caller = "client";
  bind.port = "out";
  bind.connector = "c";
  bind.providers = {"server"};
  model.bindings.push_back(std::move(bind));
  return model;
}

PlanStep make_step(PlanOp op, const std::string& instance) {
  PlanStep step;
  step.op = op;
  step.instance = instance;
  return step;
}

bool has_plan_error(const PlanReview& review) {
  return review.report.has("plan-invalid");
}

// ---------------------------------------------------------------------------
// kAdd.

TEST(PlanTest, AddNewInstanceVerifies) {
  PlanStep step = make_step(PlanOp::kAdd, "server2");
  step.type = "EchoServer";
  step.node = "n1";
  const PlanReview review = verify_plan(base_model(), {step});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_NE(review.post_state.find_instance("server2"), nullptr);
}

TEST(PlanTest, AddExistingInstanceRejected) {
  PlanStep step = make_step(PlanOp::kAdd, "server");
  step.type = "EchoServer";
  step.node = "n1";
  const PlanReview review = verify_plan(base_model(), {step});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(has_plan_error(review));
}

TEST(PlanTest, AddToUnknownNodeRejected) {
  PlanStep step = make_step(PlanOp::kAdd, "server2");
  step.type = "EchoServer";
  step.node = "nowhere";
  EXPECT_TRUE(has_plan_error(verify_plan(base_model(), {step})));
}

// ---------------------------------------------------------------------------
// kRemove.

TEST(PlanTest, RemoveNonexistentInstanceRejected) {
  const PlanReview review =
      verify_plan(base_model(), {make_step(PlanOp::kRemove, "ghost")});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(has_plan_error(review));
}

TEST(PlanTest, RemovingSoleProviderFailsPostStateVerification) {
  const PlanReview review =
      verify_plan(base_model(), {make_step(PlanOp::kRemove, "server")});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(review.report.has("dangling-binding"));
  EXPECT_EQ(review.post_state.find_instance("server"), nullptr);
}

TEST(PlanTest, RemovingWholeCollaborationVerifies) {
  // Taking out the client *and* the server leaves nothing dangling (the
  // now-unused connector is only a warning).
  const PlanReview review =
      verify_plan(base_model(), {make_step(PlanOp::kRemove, "client"),
                                 make_step(PlanOp::kRemove, "server")});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_TRUE(review.report.has("connector-unused"));
}

TEST(PlanTest, QuiescenceGateBlocksRemoveInsideSyncCycle) {
  ArchitectureModel model = base_model();
  // server also calls client back synchronously: a <-> b sync cycle.
  model.instances[0].required.push_back({"back", ""});
  ModelConnector back;
  back.name = "back";
  back.providers = {"client"};
  model.connectors.push_back(std::move(back));
  ModelBinding bind;
  bind.caller = "server";
  bind.port = "back";
  bind.connector = "back";
  bind.providers = {"client"};
  model.bindings.push_back(std::move(bind));

  const PlanReview review =
      verify_plan(model, {make_step(PlanOp::kRemove, "server")});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(review.report.has("quiescence-unreachable"));
  // The gate refused the step, so the target is still in the post-state.
  EXPECT_NE(review.post_state.find_instance("server"), nullptr);
}

// ---------------------------------------------------------------------------
// kReplace / kMigrate / kRedeploy.

TEST(PlanTest, ReplaceSwapsTypeInPlace) {
  PlanStep step = make_step(PlanOp::kReplace, "server");
  step.type = "FastEchoServer";
  const PlanReview review = verify_plan(base_model(), {step});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_EQ(review.post_state.find_instance("server")->type,
            "FastEchoServer");
}

TEST(PlanTest, MigrateMovesInstance) {
  PlanStep step = make_step(PlanOp::kMigrate, "server");
  step.node = "n2";
  const PlanReview review = verify_plan(base_model(), {step});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_EQ(review.post_state.find_instance("server")->node, "n2");
}

TEST(PlanTest, MigrateToUnknownNodeRejected) {
  PlanStep step = make_step(PlanOp::kMigrate, "server");
  step.node = "nowhere";
  EXPECT_TRUE(has_plan_error(verify_plan(base_model(), {step})));
}

TEST(PlanTest, RedeployToIslandNodeFailsRouteCheck) {
  ArchitectureModel model = base_model();
  model.nodes.push_back("island");  // no links to anything
  PlanStep step = make_step(PlanOp::kRedeploy, "server");
  step.node = "island";
  const PlanReview review = verify_plan(model, {step});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(review.report.has("no-route"));
}

// ---------------------------------------------------------------------------
// kRebind / kReroute.

TEST(PlanTest, RebindRepointsExistingBinding) {
  ArchitectureModel model = base_model();
  model.instances.push_back(make_instance("server2", "EchoServer", "n1"));
  ModelConnector c2;
  c2.name = "c2";
  c2.providers = {"server2"};
  model.connectors.push_back(std::move(c2));

  PlanStep step = make_step(PlanOp::kRebind, "client");
  step.port = "out";
  step.connector = "c2";
  const PlanReview review = verify_plan(model, {step});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  const ModelBinding& bind = review.post_state.bindings.front();
  EXPECT_EQ(bind.connector, "c2");
  EXPECT_EQ(bind.providers, (std::vector<std::string>{"server2"}));
}

TEST(PlanTest, RebindToUnknownConnectorRejected) {
  PlanStep step = make_step(PlanOp::kRebind, "client");
  step.port = "out";
  step.connector = "nowhere";
  EXPECT_TRUE(has_plan_error(verify_plan(base_model(), {step})));
}

TEST(PlanTest, RerouteSubstitutesReplicaEverywhere) {
  ArchitectureModel model = base_model();
  model.instances.push_back(make_instance("server2", "EchoServer", "n1"));
  PlanStep step = make_step(PlanOp::kReroute, "server");
  step.replica = "server2";
  const PlanReview review = verify_plan(model, {step});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_EQ(review.post_state.find_instance("server"), nullptr);
  EXPECT_EQ(review.post_state.bindings.front().providers,
            (std::vector<std::string>{"server2"}));
  EXPECT_EQ(review.post_state.find_connector("c")->providers,
            (std::vector<std::string>{"server2"}));
}

TEST(PlanTest, RerouteToDifferentTypeRejected) {
  ArchitectureModel model = base_model();
  model.instances.push_back(make_instance("cache", "CacheServer", "n1"));
  PlanStep step = make_step(PlanOp::kReroute, "server");
  step.replica = "cache";
  const PlanReview review = verify_plan(model, {step});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(has_plan_error(review));
}

TEST(PlanTest, RerouteToMissingReplicaRejected) {
  PlanStep step = make_step(PlanOp::kReroute, "server");
  step.replica = "ghost";
  EXPECT_TRUE(has_plan_error(verify_plan(base_model(), {step})));
}

// ---------------------------------------------------------------------------
// Multi-step plans.

TEST(PlanTest, LaterStepsSeeEarlierEffects) {
  // Add a replacement provider first, then the reroute away from the old
  // one verifies because the replica now exists.
  PlanStep add = make_step(PlanOp::kAdd, "server2");
  add.type = "EchoServer";
  add.node = "n1";
  PlanStep reroute = make_step(PlanOp::kReroute, "server");
  reroute.replica = "server2";
  const PlanReview review = verify_plan(base_model(), {add, reroute});
  EXPECT_TRUE(review.ok()) << review.report.summary();
  EXPECT_EQ(review.post_state.find_instance("server"), nullptr);
  EXPECT_NE(review.post_state.find_instance("server2"), nullptr);
}

TEST(PlanTest, FailedStepIsSkippedButLaterStepsStillChecked) {
  PlanStep bad = make_step(PlanOp::kRemove, "ghost");
  PlanStep good = make_step(PlanOp::kMigrate, "server");
  good.node = "n2";
  const PlanReview review = verify_plan(base_model(), {bad, good});
  EXPECT_FALSE(review.ok());
  EXPECT_TRUE(has_plan_error(review));
  // The valid step still applied to the hypothetical post-state.
  EXPECT_EQ(review.post_state.find_instance("server")->node, "n2");
}

// ---------------------------------------------------------------------------
// The explorer's probe (no report) against the reporting path.

/// A name from `pool`, or "" when `pool` is empty.
std::string pick(util::Rng& rng, const std::vector<std::string>& pool) {
  if (pool.empty()) return "";
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

/// Up to `most` names drawn from `pool`, repeats allowed.
std::vector<std::string> some(util::Rng& rng,
                              const std::vector<std::string>& pool, int most) {
  std::vector<std::string> out(
      static_cast<std::size_t>(rng.uniform_int(0, most)));
  for (std::string& name : out) name = pick(rng, pool);
  return out;
}

// Instance, node and connector names each include one the model may lack,
// so every precondition fails now and then.
const std::vector<std::string> kInstances = {"a", "b", "c", "d", "ghost"};
const std::vector<std::string> kNodes = {"n0", "n1", "n2", "void"};
const std::vector<std::string> kConnectors = {"k0", "k1", "k2", "none"};
const std::vector<std::string> kTypes = {"T", "U"};
const std::vector<std::string> kPorts = {"p", "q"};

/// A small model with instances, connectors and bindings drawn from the
/// pools above: dangling names, duplicate providers and call cycles over
/// sync and queued connectors all occur.
ArchitectureModel random_model(util::Rng& rng) {
  ArchitectureModel model;
  model.nodes = {"n0", "n1", "n2"};
  model.nodes.resize(static_cast<std::size_t>(rng.uniform_int(1, 3)));
  for (const char* name : {"a", "b", "c", "d"}) {
    if (rng.chance(0.7)) {
      model.instances.push_back(
          make_instance(name, pick(rng, kTypes), pick(rng, kNodes)));
    }
  }
  for (const char* name : {"k0", "k1", "k2"}) {
    if (!rng.chance(0.8)) continue;
    ModelConnector conn;
    conn.name = name;
    conn.sync_delivery = rng.chance(0.7);
    conn.providers = some(rng, kInstances, 2);
    model.connectors.push_back(std::move(conn));
  }
  const int bindings = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < bindings; ++i) {
    ModelBinding bind;
    bind.caller = pick(rng, kInstances);
    bind.port = pick(rng, kPorts);
    bind.connector = pick(rng, kConnectors);
    bind.providers = some(rng, kInstances, 2);
    model.bindings.push_back(std::move(bind));
  }
  return model;
}

PlanStep random_step(util::Rng& rng, PlanOp op) {
  PlanStep step = make_step(op, pick(rng, kInstances));
  step.type = pick(rng, kTypes);
  step.node = rng.chance(0.2) ? "" : pick(rng, kNodes);
  step.port = pick(rng, kPorts);
  step.connector = pick(rng, kConnectors);
  step.replica = pick(rng, kInstances);
  return step;
}

TEST(PlanTest, ProbeWithoutAReportMatchesTheReportingPath) {
  const std::vector<PlanOp> ops = {PlanOp::kAdd,     PlanOp::kRemove,
                                   PlanOp::kRebind,  PlanOp::kReplace,
                                   PlanOp::kMigrate, PlanOp::kRedeploy,
                                   PlanOp::kReroute};
  util::Rng rng(29);
  std::map<std::string, int> refusals;  // by finding code
  int applicable = 0;
  for (int round = 0; round < 400; ++round) {
    const ArchitectureModel model = random_model(rng);
    std::vector<std::string> from_verifier;
    (void)verify_architecture(model, {}, &from_verifier);
    const std::vector<std::string> stuck = quiescence_unreachable(model);
    ASSERT_EQ(from_verifier, stuck) << "round " << round;
    for (const PlanOp op : ops) {
      for (int probe = 0; probe < 4; ++probe) {
        const PlanStep step = random_step(rng, op);
        const std::size_t index = static_cast<std::size_t>(probe);
        adl::Diagnostics report;
        const bool reported =
            plan_step_applicable(model, step, index, &report);
        SCOPED_TRACE(::testing::Message()
                     << "round " << round << ": " << to_string(op) << " "
                     << step.instance << " type=" << step.type
                     << " node=" << step.node << " connector="
                     << step.connector << " replica=" << step.replica);
        EXPECT_EQ(plan_step_applicable(model, step, index), reported);
        EXPECT_EQ(plan_step_applicable(model, step, index, nullptr, &stuck),
                  reported);
        if (reported) {
          EXPECT_EQ(report.errors(), 0u);
          ++applicable;
        } else {
          ASSERT_GE(report.errors(), 1u);
          for (const adl::Diagnostic& d : report.items) ++refusals[d.code];
        }
      }
    }
  }
  // The draws reach both verdicts and both kinds of refusal.
  EXPECT_GT(applicable, 0);
  EXPECT_GT(refusals["plan-invalid"], 0);
  EXPECT_GT(refusals["quiescence-unreachable"], 0);
}

TEST(PlanTest, StepsThatDifferInAnySingleFieldCompareUnequal) {
  PlanStep base = make_step(PlanOp::kRebind, "client");
  base.type = "EchoClient";
  base.node = "n1";
  base.port = "out";
  base.connector = "c";
  base.replica = "server";
  ASSERT_EQ(base, PlanStep(base));
  const std::vector<std::pair<std::string, std::function<void(PlanStep&)>>>
      edits = {
          {"op", [](PlanStep& s) { s.op = PlanOp::kRemove; }},
          {"instance", [](PlanStep& s) { s.instance = "server"; }},
          {"type", [](PlanStep& s) { s.type = "EchoServer"; }},
          {"node", [](PlanStep& s) { s.node = "n2"; }},
          {"port", [](PlanStep& s) { s.port = "in"; }},
          {"connector", [](PlanStep& s) { s.connector = "d"; }},
          {"replica", [](PlanStep& s) { s.replica = "server2"; }},
      };
  for (const auto& [what, edit] : edits) {
    PlanStep edited = base;
    edit(edited);
    EXPECT_FALSE(edited == base) << what;
  }
}

}  // namespace
}  // namespace aars::analysis
