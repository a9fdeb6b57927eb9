#include "analysis/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "adl/parser.h"
#include "adl/validator.h"
#include "analysis/architecture.h"
#include "testing/test_components.h"

namespace aars::analysis {
namespace {

// ---------------------------------------------------------------------------
// Hand-built model helpers.

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

ModelConnector make_connector(const std::string& name, bool sync,
                              std::vector<std::string> providers) {
  ModelConnector conn;
  conn.name = name;
  conn.sync_delivery = sync;
  conn.providers = std::move(providers);
  return conn;
}

ModelBinding make_binding(const std::string& caller, const std::string& port,
                          const std::string& connector,
                          std::vector<std::string> providers) {
  ModelBinding bind;
  bind.caller = caller;
  bind.port = port;
  bind.connector = connector;
  bind.providers = std::move(providers);
  return bind;
}

/// Two linked nodes, client -> server over one sync connector.
ArchitectureModel base_model() {
  ArchitectureModel model;
  model.nodes = {"n1", "n2"};
  model.links = {{"n1", "n2", 1000}, {"n2", "n1", 1000}};
  model.instances.push_back(make_instance("server", "EchoServer", "n1"));
  model.instances.push_back(make_instance("client", "Client", "n2", {"out"}));
  model.connectors.push_back(make_connector("c", true, {"server"}));
  model.bindings.push_back(make_binding("client", "out", "c", {"server"}));
  return model;
}

ArchitectureModel compile_model(std::string_view src) {
  auto parsed = adl::parse(src);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message());
  auto compiled = adl::validate(std::move(parsed).value());
  EXPECT_TRUE(compiled.ok())
      << (compiled.ok() ? "" : compiled.error().message());
  return model_from(compiled.value());
}

// ---------------------------------------------------------------------------
// Structural checks.

TEST(VerifierTest, CleanModelHasNoDiagnostics) {
  const AnalysisReport report = verify_architecture(base_model());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.diagnostics.size(), 0u) << report.summary();
}

TEST(VerifierTest, DuplicateBindingDetected) {
  ArchitectureModel model = base_model();
  model.bindings.push_back(make_binding("client", "out", "c", {"server"}));
  const AnalysisReport report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("duplicate-binding"));
}

TEST(VerifierTest, BindingFromUnknownInstanceDangles) {
  ArchitectureModel model = base_model();
  model.bindings.push_back(make_binding("ghost", "out", "c", {"server"}));
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, BindingToUnknownProviderDangles) {
  ArchitectureModel model = base_model();
  model.bindings[0].providers = {"ghost"};
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.has("dangling-binding"));
  // The call-graph edge to a provider that is no instance leads nowhere: it
  // neither reaches the server nor closes a cycle.
  EXPECT_TRUE(report.has("unreachable-component"));
  EXPECT_FALSE(report.has("sync-call-cycle"));
  EXPECT_FALSE(report.has("connector-cycle"));
  EXPECT_TRUE(quiescence_unreachable(model).empty());
}

TEST(VerifierTest, BindingWithNoProvidersDangles) {
  ArchitectureModel model = base_model();
  model.bindings[0].providers.clear();
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, UndeclaredPortDetected) {
  ArchitectureModel model = base_model();
  model.bindings[0].port = "nonesuch";
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.has("unknown-port"));
}

TEST(VerifierTest, UnboundRequiredPortIsWarning) {
  ArchitectureModel model = base_model();
  model.instances[1].required.push_back({"audit", ""});
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.has("unbound-port"));
}

TEST(VerifierTest, ConnectorWithCallersButNoProviderIsError) {
  ArchitectureModel model = base_model();
  model.connectors[0].providers.clear();
  const AnalysisReport report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, UnusedConnectorIsWarning) {
  ArchitectureModel model = base_model();
  model.connectors.push_back(make_connector("stale", true, {}));
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has("connector-unused"));
}

// ---------------------------------------------------------------------------
// Reachability.

TEST(VerifierTest, OrphanInstanceIsUnreachable) {
  ArchitectureModel model = base_model();
  model.instances.push_back(make_instance("orphan", "Worker", "n1"));
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.ok());
  ASSERT_TRUE(report.has("unreachable-component"));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "unreachable-component") {
      EXPECT_EQ(d.subject, "orphan");
    }
  }
}

TEST(VerifierTest, ProviderBehindIngressConnectorIsReachable) {
  // A provider attached to a connector nobody binds into is external
  // ingress, not dead code.
  ArchitectureModel model;
  model.nodes = {"n1"};
  model.instances.push_back(make_instance("server", "EchoServer", "n1"));
  model.connectors.push_back(make_connector("front", true, {"server"}));
  const AnalysisReport report = verify_architecture(model);
  EXPECT_FALSE(report.has("unreachable-component"));
}

// ---------------------------------------------------------------------------
// Call cycles and quiescence.

ArchitectureModel cycle_model(bool sync) {
  ArchitectureModel model;
  model.nodes = {"n1"};
  model.instances.push_back(make_instance("a", "A", "n1", {"out"}));
  model.instances.push_back(make_instance("b", "B", "n1", {"out"}));
  model.instances.push_back(make_instance("probe", "Probe", "n1", {"out"}));
  model.connectors.push_back(make_connector("ca", sync, {"b"}));
  model.connectors.push_back(make_connector("cb", sync, {"a"}));
  model.connectors.push_back(make_connector("cp", true, {"a"}));
  model.bindings.push_back(make_binding("a", "out", "ca", {"b"}));
  model.bindings.push_back(make_binding("b", "out", "cb", {"a"}));
  model.bindings.push_back(make_binding("probe", "out", "cp", {"a"}));
  return model;
}

/// Subjects of the diagnostics with `code`, in emission order.
std::vector<std::string> subjects(const AnalysisReport& report,
                                  const std::string& code) {
  std::vector<std::string> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) out.push_back(d.subject);
  }
  return out;
}

TEST(VerifierTest, SynchronousCallCycleIsError) {
  // `x` is only a binding caller and a provider name, never an instance:
  // a -> x -> a still closes one synchronous cycle.
  ArchitectureModel via_caller = cycle_model(true);
  via_caller.instances.erase(via_caller.instances.begin() + 1);  // b
  via_caller.connectors[0].providers = {"x"};
  via_caller.bindings[0].providers = {"x"};
  via_caller.bindings[1].caller = "x";
  const std::pair<ArchitectureModel, std::string> cases[] = {
      {cycle_model(true), "a -> b"}, {via_caller, "a -> x"}};
  for (const auto& [model, subject] : cases) {
    const AnalysisReport report = verify_architecture(model);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(subjects(report, "sync-call-cycle"),
              std::vector<std::string>{subject});
    EXPECT_FALSE(report.has("connector-cycle"));
  }
}

TEST(VerifierTest, QueuedCycleIsOnlyAFeedbackWarning) {
  const AnalysisReport report = verify_architecture(cycle_model(false));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.has("sync-call-cycle"));
  EXPECT_TRUE(report.has("connector-cycle"));
}

/// Two synchronous cycles, `first` <-> `second` and `third` <-> `fourth`,
/// optionally joined into one larger cycle by queued edges second -> third
/// and fourth -> first.
ArchitectureModel two_cycle_model(const std::string& first,
                                  const std::string& second,
                                  const std::string& third,
                                  const std::string& fourth, bool joined) {
  ArchitectureModel model;
  model.nodes = {"n1"};
  const std::string names[] = {first, second, third, fourth};
  for (const std::string& name : names) {
    model.instances.push_back(make_instance(name, "R", "n1", {"out", "q"}));
    model.connectors.push_back(make_connector("to_" + name, true, {name}));
  }
  const auto call = [&](const std::string& from, const std::string& to) {
    model.bindings.push_back(make_binding(from, "out", "to_" + to, {to}));
  };
  call(first, second);
  call(second, first);
  call(third, fourth);
  call(fourth, third);
  if (joined) {
    model.connectors.push_back(make_connector("queue", false, {third, first}));
    model.bindings.push_back(make_binding(second, "q", "queue", {third}));
    model.bindings.push_back(make_binding(fourth, "q", "queue", {first}));
  }
  return model;
}

TEST(VerifierTest, QuiescenceUnreachableListsSyncCycleMembers) {
  const std::vector<std::string> stuck =
      quiescence_unreachable(cycle_model(true));
  EXPECT_EQ(stuck, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(quiescence_unreachable(cycle_model(false)).empty());
  EXPECT_TRUE(quiescence_unreachable(base_model()).empty());
  // Two disjoint cycles whose members interleave by name: the result is
  // every member once, sorted, not grouped by cycle.
  EXPECT_EQ(quiescence_unreachable(two_cycle_model("d", "a", "c", "b", false)),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(VerifierTest, QueuedCycleOverSyncCyclesIsNotReportedAgain) {
  // a <-> b and c <-> d are synchronous; queued edges b -> c and d -> a
  // close a -> b -> c -> d into one larger cycle.  Every member of it
  // already sits on a reported sync cycle, so it adds no connector-cycle.
  const AnalysisReport report =
      verify_architecture(two_cycle_model("a", "b", "c", "d", true));
  EXPECT_EQ(subjects(report, "sync-call-cycle"),
            (std::vector<std::string>{"a -> b", "c -> d"}));
  EXPECT_FALSE(report.has("connector-cycle"));
}

TEST(VerifierTest, SelfLoopIsACycle) {
  // The second input puts a dangling provider ahead of the self-loop edge.
  for (const std::vector<std::string>& providers :
       {std::vector<std::string>{"rec"},
        std::vector<std::string>{"ghost", "rec"}}) {
    ArchitectureModel model;
    model.nodes = {"n1"};
    model.instances.push_back(make_instance("rec", "R", "n1", {"out"}));
    model.connectors.push_back(make_connector("self", true, providers));
    model.bindings.push_back(make_binding("rec", "out", "self", providers));
    EXPECT_EQ(subjects(verify_architecture(model), "sync-call-cycle"),
              std::vector<std::string>{"rec"});
    EXPECT_EQ(quiescence_unreachable(model), std::vector<std::string>{"rec"});
  }
}

// ---------------------------------------------------------------------------
// Routes and QoS feasibility.

TEST(VerifierTest, MissingRouteDetected) {
  ArchitectureModel model = base_model();
  model.links.clear();
  const AnalysisReport report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("no-route"));
}

TEST(VerifierTest, BudgetBelowLatencyFloorIsInfeasible) {
  ArchitectureModel model = base_model();
  model.connectors[0].budget_us = 1500;  // round trip floor is 2000us
  const AnalysisReport report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("qos-infeasible"));

  // A second binding over the same node pair is its own finding, even though
  // the pair's latency is computed once per pass.
  model.instances.push_back(make_instance("client2", "Client", "n2", {"out"}));
  model.bindings.push_back(make_binding("client2", "out", "c", {"server"}));
  EXPECT_EQ(subjects(verify_architecture(model), "qos-infeasible"),
            (std::vector<std::string>{"c: client -> server",
                                      "c: client2 -> server"}));
}

TEST(VerifierTest, FeasibleBudgetPasses) {
  ArchitectureModel model = base_model();
  model.connectors[0].budget_us = 2000;  // exactly the floor: feasible
  EXPECT_FALSE(verify_architecture(model).has("qos-infeasible"));
}

TEST(VerifierTest, QosUsesCheapestPathNotFirstLink) {
  // n1 -> n2 direct is slow, but n1 -> n3 -> n2 is under budget.
  ArchitectureModel model = base_model();
  model.nodes.push_back("n3");
  model.links = {{"n1", "n2", 9000}, {"n2", "n1", 9000},
                 {"n1", "n3", 500},  {"n3", "n1", 500},
                 {"n3", "n2", 500},  {"n2", "n3", 500}};
  model.connectors[0].budget_us = 2000;
  EXPECT_FALSE(verify_architecture(model).has("qos-infeasible"));
}

// ---------------------------------------------------------------------------
// Protocol composition (through the ADL front end).

constexpr const char* kHandshakeBase = R"(
  interface Ping { service ping() -> int; }
  component Responder provides Ping {
    protocol {
      state idle final;
      state busy;
      idle -> busy on ping?;
      busy -> idle on pong!;
    }
  }
  component Caller {
    requires out: Ping;
    protocol {
      state idle final;
      state wait;
      idle -> wait on ping!;
      wait -> idle on pong?;
    }
  }
  node n1 { capacity 1000; }
  instance responder: Responder on n1;
  instance caller: Caller on n1;
  connector c { routing direct; delivery sync; }
  bind caller.out -> responder via c;
)";

TEST(VerifierTest, MatchingProtocolsComposeDeadlockFree) {
  const AnalysisReport report = verify_architecture(compile_model(kHandshakeBase));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.has("protocol-deadlock"));
  EXPECT_GT(report.states_explored, 0u);
}

TEST(VerifierTest, MismatchedProtocolOrderDeadlocks) {
  // The responder insists on answering before it listens: both roles end up
  // waiting for the other and the joint system deadlocks.
  constexpr const char* kDeadlock = R"(
    interface Ping { service ping() -> int; }
    component Responder provides Ping {
      protocol {
        state start;
        state idle final;
        start -> idle on pong!;
        idle -> start on ping?;
      }
    }
    component Caller {
      requires out: Ping;
      protocol {
        state idle final;
        state wait;
        idle -> wait on ping!;
        wait -> idle on pong?;
      }
    }
    node n1 { capacity 1000; }
    instance responder: Responder on n1;
    instance caller: Caller on n1;
    connector c { routing direct; delivery sync; }
    bind caller.out -> responder via c;
  )";
  const AnalysisReport report = verify_architecture(compile_model(kDeadlock));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("protocol-deadlock"));
}

TEST(VerifierTest, StateBoundTruncatesWithWarning) {
  VerifierOptions options;
  options.max_states = 1;
  const AnalysisReport report =
      verify_architecture(compile_model(kHandshakeBase), options);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.has("protocol-truncated"));
}

TEST(VerifierTest, ProtocolCheckCanBeDisabled) {
  VerifierOptions options;
  options.check_protocols = false;
  const AnalysisReport report =
      verify_architecture(compile_model(kHandshakeBase), options);
  EXPECT_EQ(report.states_explored, 0u);
}

// ---------------------------------------------------------------------------
// ADL-sourced diagnostics carry source line numbers.

TEST(VerifierTest, AdlDiagnosticsCarryLineNumbers) {
  constexpr const char* kUnused = R"(interface Echo {
  service echo(text: string) -> string;
}
component EchoServer provides Echo;
component Client { requires out: Echo; }
node n1 { capacity 1000; }
instance server: EchoServer on n1;
instance client: Client on n1;
connector front { routing direct; delivery sync; }
connector stale { routing direct; delivery sync; }
bind client.out -> server via front;
)";
  AnalysisReport report = verify_architecture(compile_model(kUnused));
  ASSERT_TRUE(report.has("connector-unused"));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "connector-unused") {
      EXPECT_EQ(d.subject, "stale");
      EXPECT_EQ(d.line, 10);
    }
  }
}

// ---------------------------------------------------------------------------
// Live-application model: the same checks run on a running system.

using LiveModelTest = aars::testing::AppFixture;

TEST_F(LiveModelTest, SnapshotOfRunningAppVerifies) {
  const util::ConnectorId conn = direct_to("EchoServer", "server", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_b_, util::Value{});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(app_.bind(client.value(), "out", conn).ok());

  const ArchitectureModel model = model_from(app_);
  EXPECT_TRUE(model.has_node("node_a"));
  ASSERT_NE(model.find_instance("client"), nullptr);
  ASSERT_NE(model.find_instance("server"), nullptr);
  const AnalysisReport report = verify_architecture(model);
  EXPECT_TRUE(report.ok()) << report.summary();
}

/// Provides Echo and requires Echo: lets tests wire components into rings.
class EchoRelay : public component::Component {
 public:
  explicit EchoRelay(const std::string& name) : Component("EchoRelay", name) {
    set_provided(aars::testing::echo_interface());
    add_required(
        component::RequiredPort{"out", aars::testing::echo_interface()});
    register_operation("echo",
                       1.0, [](const util::Value& args) -> util::Result<util::Value> {
                         return util::Value{args.at("text").as_string()};
                       });
    register_operation("ping", 0.1,
                       [](const util::Value&) -> util::Result<util::Value> {
                         return util::Value{std::int64_t{1}};
                       });
  }
};

TEST_F(LiveModelTest, LiveSyncCycleCaught) {
  // Two relays calling each other through sync connectors.
  registry_.register_type("EchoRelay", [](const std::string& name) {
    return std::make_unique<EchoRelay>(name);
  });
  auto a = app_.instantiate("EchoRelay", "a", node_a_, util::Value{});
  auto b = app_.instantiate("EchoRelay", "b", node_b_, util::Value{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  connector::ConnectorSpec spec;
  spec.name = "to_a";
  auto to_a = app_.create_connector(spec);
  spec.name = "to_b";
  auto to_b = app_.create_connector(spec);
  ASSERT_TRUE(to_a.ok());
  ASSERT_TRUE(to_b.ok());
  ASSERT_TRUE(app_.add_provider(to_a.value(), a.value()).ok());
  ASSERT_TRUE(app_.add_provider(to_b.value(), b.value()).ok());
  ASSERT_TRUE(app_.bind(a.value(), "out", to_b.value()).ok());
  ASSERT_TRUE(app_.bind(b.value(), "out", to_a.value()).ok());

  const AnalysisReport report = verify_architecture(model_from(app_));
  EXPECT_TRUE(report.has("sync-call-cycle"));
  const auto stuck = quiescence_unreachable(model_from(app_));
  EXPECT_EQ(stuck, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace aars::analysis
