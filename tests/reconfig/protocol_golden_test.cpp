// Reconfiguration-protocol golden: every engine protocol and every Txn undo
// kind runs on a loaded two-host world at fixed seeds, and everything they
// leave behind in simulated time is reduced to a text transcript compared
// against a committed golden file.
//
// Per case the transcript records:
//   * every ReconfigReport field (including a Txn's per-step outcomes);
//   * the engine counters started/succeeded/verify_rejected;
//   * every call record the application completed, and loop.executed();
//   * the reconfig and txn trace events, in order;
//   * the count and sum of every non-empty reconfig.* and txn.* histogram
//     series, and the value of every non-zero reconfig.*, txn.* and
//     verify.* counter.
// Only simulated time is printed, so the file is byte-stable across
// machines and build types.
//
// The cases cover each protocol once succeeding and once through every
// failure exit reachable from the public API, one Txn per plan op whose
// next step fails (so every undo kind runs), and the E17 storm world at
// smoke sizes.
//
// Regenerating the golden (only when protocol behaviour changes
// INTENTIONALLY):
//   AARS_UPDATE_GOLDEN=1 ./tests/reconfig_test
//       --gtest_filter=ProtocolGoldenTest.*
// (one command line, run from the build directory).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "api/runtime.h"
#include "fault/injector.h"
#include "fault/scenario.h"
#include "obs/metrics.h"
#include "reconfig/engine.h"
#include "reconfig/rules.h"
#include "reconfig/txn.h"
#include "testing/test_components.h"
#include "util/rng.h"
#include "util/time.h"

namespace aars::reconfig {
namespace {

using aars::testing::CounterServer;
using aars::testing::EchoClient;
using aars::testing::EchoServer;
using util::ComponentId;
using util::ConnectorId;
using util::Duration;
using util::ErrorCode;
using util::NodeId;
using util::Value;

#ifndef AARS_GOLDEN_DIR
#define AARS_GOLDEN_DIR "."
#endif

std::string golden_path() {
  return std::string(AARS_GOLDEN_DIR) + "/reconfig_transcript.txt";
}

/// A counter whose state never loads: drives a swap's restore failure.
class BrittleServer : public CounterServer {
 public:
  explicit BrittleServer(const std::string& name)
      : CounterServer(name, "BrittleServer") {}

 protected:
  util::Status load_state(const Value&) override {
    return util::Error{ErrorCode::kInvalidArgument, "state rejected"};
  }
};

/// Two hosts, `core` and `edge`, one link.  On core: `server` (a counter
/// behind the direct connector `jobs`) and `echo` (behind `main`); on
/// edge: `client` bound to `main`, and `standby`, an unattached counter
/// that reroutes can fail over to.  The pump offers `add` calls to `jobs`
/// from edge every 250us until 12ms, so protocols hold and replay traffic.
struct World {
  explicit World(std::size_t jobs_capacity)
      : app(loop, network, registry) {
    core = network.add_node("core", 10000).id();
    edge = network.add_node("edge", 10000).id();
    sim::LinkSpec link;
    link.latency = util::milliseconds(1);
    network.add_duplex_link(core, edge, link);
    registry.register_type("EchoServer", [](const std::string& name) {
      return std::make_unique<EchoServer>(name);
    });
    registry.register_type("EchoClient", [](const std::string& name) {
      return std::make_unique<EchoClient>(name);
    });
    registry.register_type("CounterServer", [](const std::string& name) {
      return std::make_unique<CounterServer>(name);
    });
    registry.register_type("BrittleServer", [](const std::string& name) {
      return std::make_unique<BrittleServer>(name);
    });
    server = app.instantiate("CounterServer", "server", core, Value{}).value();
    echo = app.instantiate("EchoServer", "echo", core, Value{}).value();
    client = app.instantiate("EchoClient", "client", edge, Value{}).value();
    standby =
        app.instantiate("CounterServer", "standby", edge, Value{}).value();
    connector::ConnectorSpec spec;
    spec.name = "jobs";
    spec.queue_capacity = jobs_capacity;
    jobs = app.create_connector(spec).value();
    spec = connector::ConnectorSpec{};
    spec.name = "main";
    main = app.create_connector(spec).value();
    EXPECT_TRUE(app.add_provider(jobs, server).ok());
    EXPECT_TRUE(app.add_provider(main, echo).ok());
    EXPECT_TRUE(app.bind(client, "out", main).ok());
    app.add_call_listener([this](const runtime::CallRecord& r) {
      calls << "call conn=" << r.connector.raw()
            << " provider=" << r.provider.raw() << " op=" << r.operation.str()
            << " latency=" << r.latency << " ok=" << r.ok
            << " at=" << r.completed_at << "\n";
    });
  }

  void pump() {
    if (loop.now() >= util::milliseconds(12)) return;
    app.invoke_async(jobs, "add", Value::object({{"amount", 1}}), edge,
                     [](util::Result<Value>, Duration) {});
    loop.schedule_after(util::microseconds(250), [this] { pump(); });
  }

  sim::EventLoop loop;
  sim::Network network;
  component::ComponentRegistry registry;
  runtime::Application app;
  NodeId core;
  NodeId edge;
  ComponentId server;
  ComponentId echo;
  ComponentId client;
  ComponentId standby;
  ConnectorId jobs;
  ConnectorId main;
  std::ostringstream calls;
};

void write_report(std::ostream& out, const ReconfigReport& r) {
  out << "report op=" << r.op << " ok=" << r.ok()
      << " code=" << util::to_string(r.status.code()) << " message='"
      << r.error_message() << "' started=" << r.started_at
      << " finished=" << r.finished_at << " held=" << r.held_messages
      << " replayed=" << r.replayed_messages
      << " new=" << r.new_component.raw()
      << " verdict=" << to_string(r.verdict)
      << " rollback_steps=" << r.rollback_steps
      << " rollback_failures=" << r.rollback_failures << "\n";
  for (const StepOutcome& s : r.steps) {
    out << "  step op=" << adl::to_string(s.op)
        << " attempted=" << s.attempted << " undone=" << s.undone
        << " code=" << util::to_string(s.status.code()) << " message='"
        << (s.status.ok() ? std::string{} : s.status.error().message())
        << "' from=" << s.swapped_from.raw() << " to=" << s.swapped_to.raw()
        << "\n";
  }
}

bool recorded(const std::string& name) {
  return name.rfind("reconfig.", 0) == 0 || name.rfind("txn.", 0) == 0;
}

std::string series(const std::string& name, const obs::Labels& labels) {
  std::string text = name + "{";
  for (const auto& [key, value] : labels) {
    if (text.back() != '{') text += ",";
    text += key + "=" + value;
  }
  return text + "}";
}

/// Trace events, histograms and counters recorded since the last reset.
void write_obs(std::ostream& out) {
  const obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.trace_buffer().dropped(), 0u);
  for (const obs::TraceEvent& e : reg.trace_buffer().snapshot()) {
    if (e.kind != obs::TraceKind::kReconfig &&
        e.kind != obs::TraceKind::kTxn) {
      continue;
    }
    out << "trace at=" << e.at << " " << obs::to_string(e.kind) << " "
        << e.name << " | " << e.detail << "\n";
  }
  for (const auto& [key, histogram] : reg.histograms()) {
    const util::Histogram& samples = histogram->samples();
    if (!recorded(key.first) || samples.count() == 0) continue;
    const double sum = samples.mean() * static_cast<double>(samples.count());
    out << "histogram " << series(key.first, key.second)
        << " count=" << samples.count() << " sum=" << std::llround(sum)
        << "\n";
  }
  for (const auto& [key, counter] : reg.counters()) {
    if (counter->value() == 0) continue;
    if (!recorded(key.first) && key.first.rfind("verify.", 0) != 0) continue;
    out << "counter " << series(key.first, key.second) << " "
        << counter->value() << "\n";
  }
}

/// Appends one case: its reports, the engine counters, the call records,
/// the loop's event count and what obs recorded.
void write_case(std::ostream& out, const std::string& title,
                const std::string& reports,
                const ReconfigurationEngine& engine, const World& w) {
  out << "== " << title << "\n"
      << reports << "engine started=" << engine.started()
      << " succeeded=" << engine.succeeded()
      << " verify_rejected=" << engine.verify_rejected() << "\n"
      << w.calls.str() << "executed=" << w.loop.executed() << "\n";
  write_obs(out);
}

void reset_obs() {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset_values();
}

/// How one protocol case departs from the plain loaded world.
struct Case {
  analysis::VerifyMode verify = analysis::VerifyMode::kOff;
  Duration quiescence_timeout = util::seconds(10);
  std::size_t jobs_capacity = 1024;
  /// When set, `core` crashes at this time for 20ms.
  Duration crash_core_at = 0;
  /// Runs at 0, before the pump starts.
  std::function<void(World&)> prepare = nullptr;
};

using Launch = std::function<void(World&, ReconfigurationEngine&, Done)>;

/// Runs one engine protocol, launched at 2ms into the pump, on a fresh
/// world and appends its transcript.
void protocol_case(std::ostream& out, const std::string& title,
                   const Launch& launch, const Case& c = {}) {
  reset_obs();
  World w(c.jobs_capacity);
  ReconfigurationEngine::Options options;
  options.verify_mode = c.verify;
  options.quiescence_timeout = c.quiescence_timeout;
  ReconfigurationEngine engine(w.app, options);
  fault::FaultInjector injector(w.app);
  if (c.crash_core_at > 0) {
    fault::FaultScenario scenario;
    scenario.crash("core", c.crash_core_at, util::milliseconds(20));
    EXPECT_TRUE(injector.arm(scenario).ok());
  }
  if (c.prepare) c.prepare(w);
  w.pump();
  std::ostringstream reports;
  w.loop.schedule_after(util::milliseconds(2), [&] {
    launch(w, engine,
           [&](const ReconfigReport& r) { write_report(reports, r); });
  });
  w.loop.run();
  write_case(out, title, reports.str(), engine, w);
}

/// `server` is mid-activity from the start and never finishes.
void stall(World& w) {
  w.app.find_component(w.server)->begin_activity();
}

/// `server` is mid-activity until 6ms, so the hold buffer fills meanwhile.
void busy_until_6ms(World& w) {
  stall(w);
  w.loop.schedule_after(util::milliseconds(6), [&w] {
    w.app.find_component(w.server)->end_activity();
  });
}

void add_island(World& w) { w.network.add_node("island", 1000); }

/// A client bound to a connector nobody serves: the architecture no longer
/// verifies, so enforce mode rejects every plan.
void add_orphan(World& w) {
  const ComponentId orphan =
      w.app.instantiate("EchoClient", "orphan", w.edge, Value{}).value();
  connector::ConnectorSpec spec;
  spec.name = "void";
  const ConnectorId none = w.app.create_connector(spec).value();
  EXPECT_TRUE(w.app.bind(orphan, "out", none).ok());
}

NodeId island(World& w) { return w.network.node_id("island"); }

const ComponentId kMissing{9999};

void remove_cases(std::ostream& out) {
  protocol_case(out, "remove ok", [](World& w, auto& e, Done d) {
    e.remove_component(w.server, d);
  });
  protocol_case(out, "remove missing", [](World&, auto& e, Done d) {
    e.remove_component(kMissing, d);
  });
  protocol_case(
      out, "remove enforce-rejected",
      [](World& w, auto& e, Done d) { e.remove_component(w.echo, d); },
      {.verify = analysis::VerifyMode::kEnforce});
  protocol_case(
      out, "remove warned",
      [](World& w, auto& e, Done d) { e.remove_component(w.echo, d); },
      {.verify = analysis::VerifyMode::kWarn});
  protocol_case(
      out, "remove quiescence-timeout",
      [](World& w, auto& e, Done d) { e.remove_component(w.server, d); },
      {.quiescence_timeout = util::milliseconds(5), .prepare = stall});
  protocol_case(
      out, "remove crash-mid-quiesce",
      [](World& w, auto& e, Done d) { e.remove_component(w.server, d); },
      {.quiescence_timeout = util::milliseconds(5),
       .crash_core_at = util::milliseconds(3),
       .prepare = stall});
}

void replace_cases(std::ostream& out) {
  const auto replace = [](const char* type) {
    return [type](World& w, ReconfigurationEngine& e, Done d) {
      e.replace_component(w.server, type, "server_v2", d);
    };
  };
  protocol_case(out, "replace ok", replace("CounterServer"));
  protocol_case(out, "replace missing", [](World&, auto& e, Done d) {
    e.replace_component(kMissing, "CounterServer", "server_v2", d);
  });
  protocol_case(out, "replace enforce-rejected", replace("CounterServer"),
                {.verify = analysis::VerifyMode::kEnforce,
                 .prepare = add_orphan});
  protocol_case(out, "replace quiescence-timeout", replace("CounterServer"),
                {.quiescence_timeout = util::milliseconds(5),
                 .prepare = stall});
  protocol_case(out, "replace hold-overflow", replace("CounterServer"),
                {.jobs_capacity = 2, .prepare = busy_until_6ms});
  protocol_case(out, "replace passivate-refused", replace("CounterServer"),
                {.prepare = [](World& w) {
                   EXPECT_TRUE(w.app.passivate_component(w.server).ok());
                 }});
  protocol_case(out, "replace unknown-type", replace("GhostType"));
  protocol_case(out, "replace name-taken", [](World& w, auto& e, Done d) {
    e.replace_component(w.server, "CounterServer", "standby", d);
  });
  protocol_case(out, "replace restore-refused", replace("BrittleServer"));
  protocol_case(out, "replace crash-mid-quiesce", replace("CounterServer"),
                {.quiescence_timeout = util::milliseconds(5),
                 .crash_core_at = util::milliseconds(3),
                 .prepare = stall});
}

void migrate_cases(std::ostream& out) {
  const auto to_edge = [](World& w, ReconfigurationEngine& e, Done d) {
    e.migrate_component(w.server, w.edge, d);
  };
  protocol_case(out, "migrate ok", to_edge);
  protocol_case(out, "migrate missing", [](World& w, auto& e, Done d) {
    e.migrate_component(kMissing, w.edge, d);
  });
  protocol_case(out, "migrate current-node", [](World& w, auto& e, Done d) {
    e.migrate_component(w.server, w.core, d);
  });
  protocol_case(
      out, "migrate enforce-rejected",
      [](World& w, auto& e, Done d) {
        e.migrate_component(w.echo, island(w), d);
      },
      {.verify = analysis::VerifyMode::kEnforce, .prepare = add_island});
  protocol_case(out, "migrate quiescence-timeout", to_edge,
                {.quiescence_timeout = util::milliseconds(5),
                 .prepare = stall});
  protocol_case(out, "migrate hold-overflow", to_edge,
                {.jobs_capacity = 2, .prepare = busy_until_6ms});
  protocol_case(out, "migrate passivate-refused", to_edge,
                {.prepare = [](World& w) {
                   EXPECT_TRUE(w.app.passivate_component(w.server).ok());
                 }});
  protocol_case(
      out, "migrate unreachable",
      [](World& w, auto& e, Done d) {
        e.migrate_component(w.server, island(w), d);
      },
      {.prepare = add_island});
  protocol_case(out, "migrate crash-mid-quiesce", to_edge,
                {.quiescence_timeout = util::milliseconds(5),
                 .crash_core_at = util::milliseconds(3),
                 .prepare = stall});
}

void redeploy_cases(std::ostream& out) {
  const auto to_edge = [](World& w, ReconfigurationEngine& e, Done d) {
    e.redeploy_component(w.server, w.edge, d);
  };
  protocol_case(out, "redeploy ok", to_edge);
  protocol_case(out, "redeploy missing", [](World& w, auto& e, Done d) {
    e.redeploy_component(kMissing, w.edge, d);
  });
  protocol_case(out, "redeploy current-node", [](World& w, auto& e, Done d) {
    e.redeploy_component(w.server, w.core, d);
  });
  protocol_case(
      out, "redeploy enforce-rejected",
      [](World& w, auto& e, Done d) {
        e.redeploy_component(w.echo, island(w), d);
      },
      {.verify = analysis::VerifyMode::kEnforce, .prepare = add_island});
  protocol_case(out, "redeploy after-crash", to_edge,
                {.crash_core_at = util::milliseconds(1)});
  protocol_case(out, "redeploy passivated", to_edge,
                {.prepare = [](World& w) {
                   EXPECT_TRUE(w.app.passivate_component(w.server).ok());
                 }});
  protocol_case(out, "redeploy name-taken", to_edge,
                {.prepare = [](World& w) {
                   EXPECT_TRUE(w.app
                                   .instantiate("CounterServer", "server_r1",
                                                w.edge, Value{})
                                   .ok());
                 }});
  protocol_case(out, "redeploy restore-refused",
                [](World& w, auto& e, Done d) {
                  e.redeploy_component(w.app.component_id("brittle"), w.edge,
                                       d);
                },
                {.prepare = [](World& w) {
                   EXPECT_TRUE(w.app
                                   .instantiate("BrittleServer", "brittle",
                                                w.core, Value{})
                                   .ok());
                 }});
}

void reroute_cases(std::ostream& out) {
  const auto to_standby = [](World& w, ReconfigurationEngine& e, Done d) {
    e.reroute_to_replica(w.server, w.standby, d);
  };
  protocol_case(out, "reroute ok", to_standby);
  protocol_case(out, "reroute missing", [](World& w, auto& e, Done d) {
    e.reroute_to_replica(kMissing, w.standby, d);
  });
  protocol_case(out, "reroute missing-replica", [](World& w, auto& e, Done d) {
    e.reroute_to_replica(w.server, kMissing, d);
  });
  protocol_case(out, "reroute self", [](World& w, auto& e, Done d) {
    e.reroute_to_replica(w.server, w.server, d);
  });
  protocol_case(
      out, "reroute enforce-rejected",
      [](World& w, auto& e, Done d) {
        e.reroute_to_replica(w.echo, w.standby, d);
      },
      {.verify = analysis::VerifyMode::kEnforce});
  // Both already serve the round-robin `pool`: the redirect refuses to
  // attach the replica twice.
  protocol_case(out, "reroute redirect-refused", to_standby,
                {.prepare = [](World& w) {
                   connector::ConnectorSpec spec;
                   spec.name = "pool";
                   spec.routing = connector::RoutingPolicy::kRoundRobin;
                   const ConnectorId pool =
                       w.app.create_connector(spec).value();
                   EXPECT_TRUE(w.app.add_provider(pool, w.server).ok());
                   EXPECT_TRUE(w.app.add_provider(pool, w.standby).ok());
                 }});
}

/// One Txn per plan op: step 1 applies the op, step 2 fails (its node does
/// not exist), so the rollback runs that op's undo.
void txn_cases(std::ostream& out) {
  const std::vector<std::pair<std::string, std::function<void(Txn&)>>> ops = {
      {"add",
       [](Txn& t) { t.add_component("CounterServer", "extra", "edge"); }},
      {"remove", [](Txn& t) { t.remove_component("server"); }},
      {"replace",
       [](Txn& t) {
         t.replace_component("server", "CounterServer", "server_v2");
       }},
      {"migrate", [](Txn& t) { t.migrate_component("server", "edge"); }},
      {"redeploy",
       [](Txn& t) {
         TxnAction action;
         action.op = analysis::PlanOp::kRedeploy;
         action.instance_name = util::Symbol("server");
         action.node_name = util::Symbol("edge");
         t.enqueue(std::move(action));
       }},
      {"rebind", [](Txn& t) { t.rebind("client", "out", "alt"); }},
      {"reroute", [](Txn& t) { t.reroute("server", "standby"); }},
  };
  for (const auto& [name, apply] : ops) {
    reset_obs();
    World w(1024);
    // A second Echo connector for the rebind case.
    const ComponentId echo2 =
        w.app.instantiate("EchoServer", "echo2", w.edge, Value{}).value();
    connector::ConnectorSpec spec;
    spec.name = "alt";
    const ConnectorId alt = w.app.create_connector(spec).value();
    EXPECT_TRUE(w.app.add_provider(alt, echo2).ok());
    ReconfigurationEngine engine(w.app);
    auto txn = Txn::create(w.app, engine, "undo_" + name);
    apply(*txn);
    txn->add_component("EchoServer", "doomed", "nowhere");
    w.pump();
    std::ostringstream reports;
    w.loop.schedule_after(util::milliseconds(2), [&] {
      txn->run([&](const ReconfigReport& r) { write_report(reports, r); });
    });
    w.loop.run();
    write_case(out, "txn undo " + name, reports.str(), engine, w);
  }
}

// E17's storm world: a shuffle rule that migrates the server back and
// forth, and a failover rule (add + reroute) fired by host crashes.
constexpr const char* kStormWorld = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node edge { capacity 10000; }
node core { capacity 10000; }
link edge <-> core { latency 1ms; bandwidth 100mbps; }
instance server: EchoServer on core;
instance client: EchoClient on edge;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;

when queue_depth(main) >= 0 reconfigure shuffle {
  cooldown 7ms;
  migrate server to edge;
  migrate server to core;
}
when event fault.host_down reconfigure failover {
  cooldown 15ms;
  add standby: EchoServer on edge;
  reroute server to standby;
}
)";

/// E17's seeded storm: host crashes, loss bursts and fail-step windows, all
/// closed 60ms before `horizon`.
fault::FaultScenario make_storm(util::Rng& rng, Duration horizon) {
  fault::FaultScenario storm;
  storm.set_name("txn_storm");
  const auto jitter = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<Duration>(rng.uniform_int(lo, hi));
  };
  const Duration quiet = util::milliseconds(60);
  for (int i = 0; i < 3; ++i) {
    const util::SimTime at = jitter(util::milliseconds(10),
                                    horizon - quiet - util::milliseconds(30));
    const char* host = rng.uniform() < 0.5 ? "core" : "edge";
    storm.crash(host, at,
                jitter(util::milliseconds(5), util::milliseconds(20)));
  }
  for (int i = 0; i < 2; ++i) {
    const util::SimTime at = jitter(util::milliseconds(10),
                                    horizon - quiet - util::milliseconds(30));
    const Duration window =
        jitter(util::milliseconds(5), util::milliseconds(15));
    storm.loss("edge", "core", at, window, rng.uniform(0.1, 0.4));
  }
  for (int i = 0; i < 5; ++i) {
    const util::SimTime at = jitter(util::milliseconds(10),
                                    horizon - quiet - util::milliseconds(40));
    const int step = static_cast<int>(rng.uniform_int(1, 2));
    storm.fail_step(step, at,
                    jitter(util::milliseconds(10), util::milliseconds(25)));
  }
  return storm;
}

void storm_cases(std::ostream& out) {
  const Duration horizon = util::milliseconds(300);
  for (const std::uint64_t seed : {1, 2}) {
    reset_obs();
    util::Rng rng(seed);
    auto built = Runtime::builder()
                     .component_class<EchoServer>("EchoServer")
                     .component_class<EchoClient>("EchoClient")
                     .adl(kStormWorld)
                     .with_fault_text(make_storm(rng, horizon).to_text())
                     .build();
    ASSERT_TRUE(built.ok()) << built.error().message();
    Runtime& rt = *built.value();
    sim::EventLoop& loop = rt.loop();
    std::ostringstream lines;
    rt.app().add_call_listener([&](const runtime::CallRecord& r) {
      lines << "call conn=" << r.connector.raw()
            << " provider=" << r.provider.raw()
            << " op=" << r.operation.str() << " latency=" << r.latency
            << " ok=" << r.ok << " at=" << r.completed_at << "\n";
    });
    rt.adl_rules()->set_firing_observer(
        [&](util::Symbol rule, const ReconfigReport& report) {
          lines << "firing " << rule.str() << " at=" << loop.now() << "\n";
          write_report(lines, report);
        });
    const ConnectorId conn = rt.connector("main");
    const NodeId origin = rt.host("edge");
    std::function<void()> pump = [&] {
      if (loop.now() >= horizon) return;
      rt.app().invoke_async(conn, "ping", Value{}, origin,
                            [](util::Result<Value>, Duration) {});
      loop.schedule_after(util::microseconds(400), pump);
    };
    loop.schedule_after(util::microseconds(400), pump);
    rt.raml().start();
    loop.run_until(horizon);
    rt.raml().stop();
    loop.run();
    const RuleSet::Stats stats = rt.adl_rules()->stats();
    out << "== storm seed " << seed << "\n"
        << lines.str() << "stats fired=" << stats.fired
        << " committed=" << stats.committed
        << " rolled_back=" << stats.rolled_back << "\n"
        << "engine started=" << rt.engine().started()
        << " succeeded=" << rt.engine().succeeded()
        << " verify_rejected=" << rt.engine().verify_rejected() << "\n"
        << "executed=" << loop.executed() << "\n";
    write_obs(out);
  }
}

std::string transcript() {
  std::ostringstream out;
  remove_cases(out);
  replace_cases(out);
  migrate_cases(out);
  redeploy_cases(out);
  reroute_cases(out);
  txn_cases(out);
  storm_cases(out);
  return out.str();
}

TEST(ProtocolGoldenTest, ProtocolTranscriptMatchesGolden) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_trace_capacity(std::size_t{1} << 16);
  const std::string text = transcript();
  reg.set_trace_capacity(obs::Registry::kDefaultTraceCapacity);
  reg.reset_values();
  reg.set_enabled(false);
  if (std::getenv("AARS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << text;
    GTEST_SKIP() << "golden updated: " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with AARS_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "reconfiguration protocol outputs diverged from the committed "
         "golden — an event, report field, trace or sample changed";
}

}  // namespace
}  // namespace aars::reconfig
