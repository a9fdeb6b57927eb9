// Bounded configuration-graph exploration: rules-as-transitions semantics,
// explicit truncation findings, canonical state identity, reproducible
// discovery order, and path-property verdicts with counterexample paths.
#include "analysis/explorer.h"

#include <gtest/gtest.h>

#include <string>

#include "adl/compiler.h"
#include "analysis/adl_screen.h"
#include "analysis/architecture.h"

namespace aars::analysis {
namespace {

// 1 permanent worker + 2 independently removable spares => exactly four
// reachable settled configurations ({}, -s1, -s2, -s1-s2), max depth 2.
constexpr const char* kLadder = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance s1: Worker on main;
instance s2: Worker on main;
instance driver: Driver on client;
connector jobs { routing round_robin; delivery queued; capacity 64; }
bind driver.work -> worker, s1, s2 via jobs;
when queue_depth(jobs) < 4 reconfigure shed_s1 { remove s1; }
when queue_depth(jobs) < 2 reconfigure shed_s2 { remove s2; }
)";

ExplorationResult explore_source(const std::string& source,
                                 const ExplorerOptions& options = {}) {
  const adl::CompilationResult result = compile_adl(source);
  EXPECT_TRUE(result.ok()) << adl::render_text(result.diagnostics, "<input>");
  return explore(model_from(result.config), result.program, options);
}

TEST(ExplorerTest, EnumeratesExactClosureOfIndependentRemovals) {
  const ExplorationResult result = explore_source(kLadder);
  EXPECT_TRUE(result.report.ok()) << result.report.summary();
  EXPECT_FALSE(result.report.truncated);
  EXPECT_FALSE(result.report.has("exploration-truncated"));
  // {initial, -s1, -s2, -s1-s2}; -s1-s2 is reached twice but deduped, so
  // four states carry four committed edges.
  EXPECT_EQ(result.graph.states.size(), 4u);
  EXPECT_EQ(result.graph.edges.size(), 4u);
  EXPECT_EQ(result.transitions, 4u);
  EXPECT_EQ(result.aborted_firings, 0u);
  EXPECT_EQ(render_path(result.graph, 0), "(initial)");
}

TEST(ExplorerTest, ConfigCapTruncationIsAnExplicitFinding) {
  ExplorerOptions options;
  options.max_configs = 2;
  const ExplorationResult result = explore_source(kLadder, options);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_TRUE(result.report.has("exploration-truncated"));
  EXPECT_LE(result.graph.states.size(), 2u);
}

TEST(ExplorerTest, DepthCapTruncationIsAnExplicitFinding) {
  ExplorerOptions options;
  options.max_depth = 1;
  const ExplorationResult result = explore_source(kLadder, options);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_TRUE(result.report.has("exploration-truncated"));
}

TEST(ExplorerTest, ExactDepthBoundIsNotTruncation) {
  // The ladder bottoms out at depth 2: a cap of exactly 2 cuts nothing off,
  // so no truncation warning may fire (it would be a false positive).
  ExplorerOptions options;
  options.max_depth = 2;
  const ExplorationResult result = explore_source(kLadder, options);
  EXPECT_FALSE(result.report.truncated);
  EXPECT_FALSE(result.report.has("exploration-truncated"));
  EXPECT_EQ(result.graph.states.size(), 4u);
}

TEST(ExplorerTest, OrderDigestIsReproducibleAndCoverageSensitive) {
  const ExplorationResult a = explore_source(kLadder);
  const ExplorationResult b = explore_source(kLadder);
  EXPECT_NE(a.order_digest, 0u);
  EXPECT_EQ(a.order_digest, b.order_digest);

  ExplorerOptions truncated;
  truncated.max_configs = 2;
  const ExplorationResult c = explore_source(kLadder, truncated);
  EXPECT_NE(a.order_digest, c.order_digest);
}

TEST(ExplorerTest, CanonicalKeyIgnoresVectorOrder) {
  ArchitectureModel a;
  a.nodes = {"n1", "n2"};
  ModelInstance server;
  server.name = "server";
  server.type = "Echo";
  server.node = "n1";
  ModelInstance spare;
  spare.name = "spare";
  spare.type = "Echo";
  spare.node = "n2";
  ModelConnector conn;
  conn.name = "c";
  conn.providers = {"server", "spare"};
  ModelBinding bind;
  bind.caller = "client";
  bind.port = "out";
  bind.connector = "c";
  bind.providers = {"spare", "server"};
  a.instances = {server, spare};
  a.connectors = {conn};
  a.bindings = {bind};

  ArchitectureModel b = a;
  b.instances = {spare, server};
  b.connectors[0].providers = {"spare", "server"};
  b.bindings[0].providers = {"server", "spare"};
  EXPECT_EQ(canonical_config_key(a), canonical_config_key(b));

  // Content differences must change the key.
  ArchitectureModel c = a;
  c.instances[1].node = "n1";
  EXPECT_NE(canonical_config_key(a), canonical_config_key(c));
}

TEST(ExplorerTest, RolledBackFiringStillWitnessesTransientViolation) {
  // d20 shape: both rules are two-step; firing one after the other aborts
  // at step 2 and rolls back, but step 1 already dropped the last Worker.
  const std::string source = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node core2 { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
link main <-> core2 { latency 1ms; bandwidth 100mbps; }
link core2 <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance spare: Worker on main;
instance driver: Driver on client;
connector jobs { routing round_robin; delivery queued; capacity 64; }
bind driver.work -> worker, spare via jobs;
when queue_depth(jobs) < 4 reconfigure scale_in {
  remove spare;
  migrate worker to main;
}
when backlog(main) > 9000 reconfigure rotate {
  remove worker;
  migrate spare to core2;
}
property capacity_floor { always replicas(Worker) >= 1; }
)";
  const ExplorationResult result = explore_source(source);
  EXPECT_GT(result.aborted_firings, 0u);
  ASSERT_FALSE(result.transients.empty());
  for (const TransientViolation& t : result.transients) {
    EXPECT_TRUE(t.rolled_back);
  }
  EXPECT_TRUE(result.report.has("transient-violation"))
      << result.report.summary();
}

TEST(ExplorerTest, RevertsHoldsWithReliableUndoAndStarvesUnderCooldown) {
  const std::string base = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component CheapWorker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance driver: Driver on client;
connector jobs { routing direct; delivery queued; capacity 64; }
bind driver.work -> worker via jobs;
when queue_depth(jobs) > 48 reconfigure degrade {
  replace worker with CheapWorker;
}
when queue_depth(jobs) < 4 reconfigure restore {
)";
  const std::string tail = R"(  replace worker with Worker;
}
property undo { reverts degrade; }
)";
  // Cooldown-free restore reliably undoes degrade.
  const ExplorationResult ok = explore_source(base + tail);
  EXPECT_TRUE(ok.report.ok()) << ok.report.summary();
  EXPECT_FALSE(ok.report.has("revert-unreachable"));

  // A cooldown makes restore's firing droppable, so the revert is no
  // longer reliable.
  const ExplorationResult starved =
      explore_source(base + "  cooldown 2s;\n" + tail);
  EXPECT_TRUE(starved.report.has("revert-unreachable"))
      << starved.report.summary();
}

TEST(ExplorerTest, LivenessClausesAreSkippedWhenTruncated) {
  // d19 shape: `eventually` would starve — but under a configuration cap
  // the graph is partial, so reporting starvation would be unsound.
  const std::string source = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component CheapWorker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance driver: Driver on client;
connector jobs { routing direct; delivery queued; capacity 64; }
bind driver.work -> worker via jobs;
when queue_depth(jobs) > 48 reconfigure degrade {
  replace worker with CheapWorker;
}
when queue_depth(jobs) < 4 reconfigure restore {
  cooldown 2s;
  replace worker with Worker;
}
property full_strength { eventually replicas(Worker) >= 1; }
)";
  const ExplorationResult full = explore_source(source);
  EXPECT_TRUE(full.report.has("eventually-starved")) << full.report.summary();

  ExplorerOptions capped;
  capped.max_configs = 1;
  const ExplorationResult partial = explore_source(source, capped);
  EXPECT_TRUE(partial.report.truncated);
  EXPECT_FALSE(partial.report.has("eventually-starved"));
}

TEST(ExplorerTest, CounterexamplePathNamesTheFiringSequence) {
  // d18 shape: shedding the spare and then consolidating strands the
  // binding; the unsafe state's diagnostic subject is the firing path.
  const std::string source = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance spare: Worker on main;
instance driver: Driver on client;
connector jobs { routing round_robin; delivery queued; capacity 64; }
bind driver.work -> worker, spare via jobs;
when queue_depth(jobs) < 4 reconfigure shed_spare { remove spare; }
when backlog(main) > 9000 reconfigure consolidate { remove worker; }
property capacity_floor { always replicas(Worker) >= 1; }
)";
  const ExplorationResult result = explore_source(source);
  EXPECT_TRUE(result.report.has("unsafe-config")) << result.report.summary();
  EXPECT_TRUE(result.report.has("invariant-violated"));
  bool path_found = false;
  for (const adl::Diagnostic& d : result.report.items) {
    if (d.code == "invariant-violated") {
      EXPECT_EQ(d.subject, "shed_spare -> consolidate");
      path_found = true;
    }
  }
  EXPECT_TRUE(path_found);
}

TEST(ExplorerTest, QuiescenceStuckTargetDisablesOnlyItsRule) {
  // ping <-> pong is an all-synchronous cycle, so `remove ping` can never
  // quiesce its target: shed_ping is disabled in every state, while
  // shed_spare (same state, target off the cycle) is enabled.  untangle
  // first re-points ping at the queued connector, which breaks the cycle,
  // so its second step may remove ping: that step must be judged on the
  // intermediate configuration, not on the state the firing started from.
  const adl::CompilationResult compiled = adl::compile(R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Relay provides Work { requires out: Work; }
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance spare: Worker on main;
instance ping: Relay on main;
instance pong: Relay on main;
instance driver: Driver on client;
connector jobs { routing round_robin; delivery queued; capacity 64; }
connector to_pong { routing direct; delivery sync; }
connector to_ping { routing direct; delivery sync; }
bind driver.work -> worker, spare, ping via jobs;
bind ping.out -> pong via to_pong;
bind pong.out -> ping via to_ping;
when queue_depth(jobs) < 4 reconfigure shed_spare { remove spare; }
when queue_depth(jobs) < 2 reconfigure shed_ping { remove ping; }
when queue_depth(jobs) < 1 reconfigure untangle {
  rebind ping.out -> jobs;
  remove ping;
}
)");
  ASSERT_TRUE(compiled.ok())
      << adl::render_text(compiled.diagnostics, "<input>");
  const ExplorationResult result =
      explore(model_from(compiled.config), compiled.program);
  // {initial, -spare, -ping, -spare-ping}: shed_ping never fires.
  ASSERT_EQ(result.graph.states.size(), 4u);
  const std::vector<ConfigEdge> want = {
      {0, 1, 0}, {0, 2, 2}, {1, 3, 2}, {2, 3, 0}};
  ASSERT_EQ(result.graph.edges.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(result.graph.edges[e].from, want[e].from) << "edge " << e;
    EXPECT_EQ(result.graph.edges[e].to, want[e].to) << "edge " << e;
    EXPECT_EQ(result.graph.edges[e].rule, want[e].rule) << "edge " << e;
  }
  EXPECT_EQ(result.aborted_firings, 0u);
  EXPECT_EQ(result.order_digest, 0x6be099c600526c69ULL);
}

TEST(ExplorerTest, EmptyProgramExploresOnlyTheInitialState) {
  const adl::CompilationResult result = compile_adl(R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance driver: Driver on client;
connector jobs { routing direct; delivery queued; capacity 64; }
bind driver.work -> worker via jobs;
)");
  ASSERT_TRUE(result.ok()) << adl::render_text(result.diagnostics, "<input>");
  const ExplorationResult explored =
      explore(model_from(result.config), result.program);
  EXPECT_EQ(explored.graph.states.size(), 1u);
  EXPECT_EQ(explored.transitions, 0u);
  EXPECT_FALSE(explored.report.truncated);
}

}  // namespace
}  // namespace aars::analysis
