#include "analysis/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>

#include "adl/compiler.h"
#include "analysis/architecture.h"
#include "testing/test_components.h"
#include "util/rng.h"
#include "util/strings.h"

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
  const adl::CompilationResult result = adl::compile(src);
  EXPECT_TRUE(result.ok())
      << adl::render_text(result.diagnostics, "<input>", src);
  return model_from(result.config);
}

// ---------------------------------------------------------------------------
// Structural checks.

TEST(VerifierTest, CleanModelHasNoDiagnostics) {
  const adl::Diagnostics report = verify_architecture(base_model());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.items.size(), 0u) << report.summary();
}

TEST(VerifierTest, DuplicateBindingDetected) {
  ArchitectureModel model = base_model();
  model.bindings.push_back(make_binding("client", "out", "c", {"server"}));
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("duplicate-binding"));
}

TEST(VerifierTest, BindingFromUnknownInstanceDangles) {
  ArchitectureModel model = base_model();
  model.bindings.push_back(make_binding("ghost", "out", "c", {"server"}));
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, BindingToUnknownProviderDangles) {
  ArchitectureModel model = base_model();
  model.bindings[0].providers = {"ghost"};
  const adl::Diagnostics report = verify_architecture(model);
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
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, UndeclaredPortDetected) {
  ArchitectureModel model = base_model();
  model.bindings[0].port = "nonesuch";
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.has("unknown-port"));
}

TEST(VerifierTest, UnboundRequiredPortIsWarning) {
  ArchitectureModel model = base_model();
  model.instances[1].required.push_back({"audit", ""});
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.has("unbound-port"));
}

TEST(VerifierTest, ConnectorWithCallersButNoProviderIsError) {
  ArchitectureModel model = base_model();
  model.connectors[0].providers.clear();
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dangling-binding"));
}

TEST(VerifierTest, UnusedConnectorIsWarning) {
  ArchitectureModel model = base_model();
  model.connectors.push_back(make_connector("stale", true, {}));
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has("connector-unused"));
}

// ---------------------------------------------------------------------------
// Reachability.

TEST(VerifierTest, OrphanInstanceIsUnreachable) {
  ArchitectureModel model = base_model();
  model.instances.push_back(make_instance("orphan", "Worker", "n1"));
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_TRUE(report.ok());
  ASSERT_TRUE(report.has("unreachable-component"));
  for (const adl::Diagnostic& d : report.items) {
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
  const adl::Diagnostics report = verify_architecture(model);
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
std::vector<std::string> subjects(const adl::Diagnostics& report,
                                  const std::string& code) {
  std::vector<std::string> out;
  for (const adl::Diagnostic& d : report.items) {
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
    const adl::Diagnostics report = verify_architecture(model);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(subjects(report, "sync-call-cycle"),
              std::vector<std::string>{subject});
    EXPECT_FALSE(report.has("connector-cycle"));
  }
}

TEST(VerifierTest, QueuedCycleIsOnlyAFeedbackWarning) {
  const adl::Diagnostics report = verify_architecture(cycle_model(false));
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
  const adl::Diagnostics report =
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
  const adl::Diagnostics report = verify_architecture(model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("no-route"));
}

TEST(VerifierTest, BudgetBelowLatencyFloorIsInfeasible) {
  ArchitectureModel model = base_model();
  model.connectors[0].budget_us = 1500;  // round trip floor is 2000us
  const adl::Diagnostics report = verify_architecture(model);
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
  const adl::Diagnostics report =
      verify_architecture(compile_model(kHandshakeBase));
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
  const adl::Diagnostics report = verify_architecture(compile_model(kDeadlock));
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has("protocol-deadlock"));
  for (const adl::Diagnostic& d : report.items) {
    if (d.code != "protocol-deadlock") continue;
    EXPECT_EQ(d.line, 21);   // the first instance the composition joins
    EXPECT_EQ(d.column, 0);  // structural findings locate whole lines
  }
}

TEST(VerifierTest, StateBoundTruncatesWithWarning) {
  VerifierOptions options;
  options.max_states = 1;
  const adl::Diagnostics report =
      verify_architecture(compile_model(kHandshakeBase), options);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.has("protocol-truncated"));
}

TEST(VerifierTest, ProtocolCheckCanBeDisabled) {
  VerifierOptions options;
  options.check_protocols = false;
  const adl::Diagnostics report =
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
  adl::Diagnostics report = verify_architecture(compile_model(kUnused));
  ASSERT_TRUE(report.has("connector-unused"));
  for (const adl::Diagnostic& d : report.items) {
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
  const adl::Diagnostics report = verify_architecture(model);
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

  const adl::Diagnostics report = verify_architecture(model_from(app_));
  EXPECT_TRUE(report.has("sync-call-cycle"));
  const auto stuck = quiescence_unreachable(model_from(app_));
  EXPECT_EQ(stuck, (std::vector<std::string>{"a", "b"}));
}

// RouteSearch against a name-keyed Dijkstra (a map of distances and a heap
// of names, scanning every link per pop): the same answer for every model,
// including links whose endpoints the model does not list as nodes.
std::optional<std::int64_t> name_keyed_latency(const ArchitectureModel& model,
                                               const std::string& from,
                                               const std::string& to) {
  if (from == to) return 0;
  std::map<std::string, std::int64_t> dist;
  using Entry = std::pair<std::int64_t, std::string>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[from] = 0;
  heap.push({0, from});
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (node == to) return d;
    if (dist.at(node) < d) continue;
    for (const ModelLink& link : model.links) {
      if (link.from != node) continue;
      const std::int64_t next = d + link.latency_us;
      const auto found = dist.find(link.to);
      if (found == dist.end() || next < found->second) {
        dist[link.to] = next;
        heap.push({next, link.to});
      }
    }
  }
  return std::nullopt;
}

TEST(RouteSearchTest, MatchesANameKeyedSearchOnRandomModels) {
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f", "zz"};
  util::Rng rng(17);
  const auto pick = [&] {
    return names[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 2))];
  };
  for (int trial = 0; trial < 200; ++trial) {
    ArchitectureModel model;
    for (const std::string& name : names) {
      if (rng.uniform() < 0.5) model.nodes.push_back(name);
    }
    const std::int64_t links = rng.uniform_int(0, 14);
    for (std::int64_t l = 0; l < links; ++l) {
      model.links.push_back({pick(), pick(), rng.uniform_int(0, 4)});
    }
    RouteSearch search(model);
    for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the memo
      for (const std::string& from : names) {
        for (const std::string& to : names) {
          EXPECT_EQ(search.min_latency_us(from, to),
                    name_keyed_latency(model, from, to))
              << "trial " << trial << ": " << from << " -> " << to;
        }
      }
    }
  }
}

// The snapshot's element order is part of its contract: diagnostics,
// first_error(), canonical keys and the goldens all follow it.
std::string render(const ModelLink& link) {
  return link.from + "->" + link.to + " " + std::to_string(link.latency_us);
}
std::string render(const ModelInstance& inst) {
  std::string out = inst.name + ":" + inst.type + "@" + inst.node +
                    " line " + std::to_string(inst.line) + " [";
  for (const ModelPort& port : inst.required) {
    out += port.port + ":" + port.interface + ";";
  }
  return out + "]";
}
std::string render(const ModelConnector& conn) {
  return conn.name + (conn.sync_delivery ? " sync" : " queued") +
         " budget " + std::to_string(conn.budget_us) + " line " +
         std::to_string(conn.line) + " [" + util::join(conn.providers, ",") +
         "]";
}
std::string render(const ModelBinding& bind) {
  return bind.caller + "." + bind.port + " via " + bind.connector + " line " +
         std::to_string(bind.line) + " [" + util::join(bind.providers, ",") +
         "]";
}
template <typename T>
std::vector<std::string> rendered(const std::vector<T>& items) {
  std::vector<std::string> out;
  for (const T& item : items) out.push_back(render(item));
  return out;
}

TEST(LiveModelOrderTest, SnapshotFollowsIdsAndLowerLinkEndpoints) {
  sim::EventLoop loop;
  sim::Network network;
  component::ComponentRegistry types;
  runtime::Application app(loop, network, types);
  types.register_type("EchoServer", [](const std::string& name) {
    return std::make_unique<aars::testing::EchoServer>(name);
  });
  types.register_type("EchoClient", [](const std::string& name) {
    return std::make_unique<aars::testing::EchoClient>(name);
  });
  const util::NodeId n1 = network.add_node("n1", 1000).id();
  const util::NodeId n2 = network.add_node("n2", 1000).id();
  const util::NodeId n3 = network.add_node("n3", 1000).id();
  // Added 2->3, 3->1, 1->2.  In (from, to) order that is 1->2, 2->3, 3->1;
  // taken once each at the lower endpoint it is 1->2, 3->1, 2->3.
  const auto link = [](std::int64_t latency_us) {
    sim::LinkSpec spec;
    spec.latency = util::microseconds(latency_us);
    return spec;
  };
  network.add_link(n2, n3, link(23));
  network.add_link(n3, n1, link(31));
  network.add_link(n1, n2, link(12));

  const auto instantiate = [&](const std::string& type,
                               const std::string& name, util::NodeId node) {
    auto id = app.instantiate(type, name, node, util::Value{});
    EXPECT_TRUE(id.ok()) << name;
    return id.ok() ? id.value() : util::ComponentId::invalid();
  };
  const util::ComponentId server = instantiate("EchoServer", "server", n3);
  const util::ComponentId gone = instantiate("EchoServer", "gone", n1);
  const util::ComponentId client = instantiate("EchoClient", "client", n1);
  instantiate("EchoClient", "idle", n2);  // its port stays unbound
  const util::ComponentId backup = instantiate("EchoServer", "backup", n2);
  const util::ComponentId watcher = instantiate("EchoClient", "watcher", n3);

  const auto create = [&](const std::string& name,
                          connector::RoutingPolicy routing,
                          connector::DeliveryMode delivery) {
    connector::ConnectorSpec spec;
    spec.name = name;
    spec.routing = routing;
    spec.delivery = delivery;
    auto id = app.create_connector(spec);
    EXPECT_TRUE(id.ok()) << name;
    return id.ok() ? id.value() : util::ConnectorId::invalid();
  };
  const util::ConnectorId main =
      create("main", connector::RoutingPolicy::kDirect,
             connector::DeliveryMode::kSync);
  create("spare", connector::RoutingPolicy::kDirect,
         connector::DeliveryMode::kQueued);  // no provider
  const util::ConnectorId pool =
      create("pool", connector::RoutingPolicy::kRoundRobin,
             connector::DeliveryMode::kSync);
  ASSERT_TRUE(app.add_provider(main, server).ok());
  ASSERT_TRUE(app.add_provider(pool, backup).ok());
  ASSERT_TRUE(app.add_provider(pool, gone).ok());
  ASSERT_TRUE(app.add_provider(pool, server).ok());
  // Bound in the reverse of id order.
  ASSERT_TRUE(app.bind(watcher, "out", pool).ok());
  ASSERT_TRUE(app.bind(client, "out", main).ok());
  ASSERT_TRUE(app.destroy(gone).ok());

  const ArchitectureModel model = model_from(app);
  EXPECT_EQ(model.nodes, (std::vector<std::string>{"n1", "n2", "n3"}));
  EXPECT_EQ(rendered(model.links),
            (std::vector<std::string>{"n1->n2 12", "n3->n1 31", "n2->n3 23"}));
  EXPECT_EQ(rendered(model.instances),
            (std::vector<std::string>{
                "server:EchoServer@n3 line 0 []",
                "client:EchoClient@n1 line 0 [out:Echo;]",
                "idle:EchoClient@n2 line 0 [out:Echo;]",
                "backup:EchoServer@n2 line 0 []",
                "watcher:EchoClient@n3 line 0 [out:Echo;]",
            }));
  EXPECT_EQ(rendered(model.connectors),
            (std::vector<std::string>{
                "main sync budget 0 line 0 [server]",
                "spare queued budget 0 line 0 []",
                "pool sync budget 0 line 0 [backup,server]",
            }));
  EXPECT_EQ(rendered(model.bindings),
            (std::vector<std::string>{
                "client.out via main line 0 [server]",
                "watcher.out via pool line 0 [backup,server]",
            }));
  EXPECT_TRUE(model.protocols.empty());
}

}  // namespace
}  // namespace aars::analysis
