// E17 — transactional reconfiguration under mid-plan fault storms.
//
// Claim (DESIGN.md §Transactional enactment): every rule firing enacts as a
// txn — stop on first failure, per-step undo journal, reverse-order rollback
// — so a fault landing mid-plan (an injected `fail-step`, a host crash
// during quiescence, a blown whole-plan deadline) can never strand a partial
// topology.  After every settled firing the live architecture passes the
// whole-architecture verifier with no structural errors, and once the storm
// clears no held message is leaked anywhere in the app.
//
// Exit-code assertions (per seeded run):
//   * every firing settles: fired == committed + rolled_back
//   * the storm exercises both outcomes: committed >= 1 and rolled_back >= 1
//   * zero structural verifier errors at every settle point
//   * zero rollback failures
//   * final world (faults cleared, loop drained): verifier fully clean,
//     zero held messages across all components
//   * same seed twice -> byte-identical firing fingerprint
//   * a migrate protocol on the storm world, plan verification enforced,
//     makes at most kMaxAllocsPerMigrate heap allocations
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "analysis/verifier.h"
#include "common.h"
#include "fault/scenario.h"
#include "reconfig/rules.h"
#include "testing_components.h"
#include "util/errors.h"
#include "util/rng.h"
#include "util/time.h"

namespace aars::bench {
namespace {

// Two-node world with two plans the storm can interrupt: a metric rule that
// shuffles the server between hosts every few ticks (steady commit supply),
// and an event rule that reacts to host crashes with an add + reroute
// failover (commits once, then every re-firing collides with the existing
// standby and must roll back).
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

// Heap allocations of one migrate protocol on the storm world with plan
// verification enforced, after warm-up.  Its review snapshots the live
// world into the engine's kept model (3: the component and connector id
// lists the snapshot reads and its per-host link counts), and the storm
// world's two configurations are remembered, so the review verifies
// nothing.  The protocol's own closures, events and state transfer make 8:
// 11.01 on average.  The gate is 12, so a review that misses (+31) or a
// snapshot into a fresh model (+8) fails it.
constexpr double kMaxAllocsPerMigrate = 12.0;
constexpr int kMigrateRoundTrips = 500;

/// Verifier codes a live fault legitimately produces: a crashed host severs
/// routes, so reachability errors while a window is open are the *network's*
/// state, not a broken reconfiguration.  Everything else (dangling-binding,
/// duplicate-binding, unbound-port, ...) is a partial topology and fails
/// the run.
bool is_reachability_code(const std::string& code) {
  return code == "no-route" || code == "unreachable-component";
}

struct RunResult {
  std::uint64_t fired = 0;
  std::uint64_t committed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t rollback_undone = 0;    // undo records replayed
  std::uint64_t rollback_failures = 0;
  std::uint64_t structural_errors = 0;  // at settle points
  std::uint64_t final_errors = 0;       // faults cleared, loop drained
  std::uint64_t held_leaked = 0;        // held messages after drain
  std::uint64_t requests = 0;           // pump traffic offered
  std::string fingerprint;              // rule:verdict:steps:undo; per firing
};

/// Seeded storm: host crashes that land mid-protocol, loss bursts on the
/// only link, and deterministic `fail-step` windows that abort whichever
/// plan step is in flight.  All windows close well before `horizon` so the
/// final world must verify fully clean.
fault::FaultScenario make_storm(util::Rng& rng, util::Duration horizon) {
  fault::FaultScenario storm;
  storm.set_name("txn_storm");
  const auto jitter = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<util::Duration>(rng.uniform_int(lo, hi));
  };
  const util::Duration quiet = util::milliseconds(60);  // settle tail
  for (int i = 0; i < 3; ++i) {
    const util::SimTime at = jitter(util::milliseconds(10),
                                    horizon - quiet - util::milliseconds(30));
    const char* host = rng.uniform() < 0.5 ? "core" : "edge";
    storm.crash(host, at, jitter(util::milliseconds(5),
                                 util::milliseconds(20)));
  }
  for (int i = 0; i < 2; ++i) {
    const util::SimTime at = jitter(util::milliseconds(10),
                                    horizon - quiet - util::milliseconds(30));
    const util::Duration window =
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

RunResult run_storm(std::uint64_t seed, util::Duration horizon) {
  util::Rng rng(seed);
  const fault::FaultScenario storm = make_storm(rng, horizon);

  // Round-trip the scenario through its text form: the storm the runtime
  // arms is the parsed rendering, exercising the `fail-step` directive in
  // the FaultScenario text format end-to-end.
  auto built = Runtime::builder()
                   .component_class<bench_testing::EchoServer>("EchoServer")
                   .component_class<bench_testing::EchoClient>("EchoClient")
                   .adl(kStormWorld)
                   .with_fault_text(storm.to_text())
                   .build();
  util::require(built.ok(), "storm world must build");
  auto rt = std::move(built).value();
  runtime::Application& app = rt->app();
  sim::EventLoop& loop = rt->loop();

  RunResult out;
  rt->adl_rules()->set_firing_observer(
      [&](util::Symbol rule, const reconfig::ReconfigReport& report) {
        // Every settle point — commit or abort — must leave a structurally
        // sound architecture.  Reachability errors are excused only while
        // the fault that caused them is live.
        const adl::Diagnostics verdict =
            analysis::verify_architecture(analysis::model_from(app));
        for (const adl::Diagnostic& d : verdict.items) {
          if (d.severity != adl::Severity::kError) continue;
          if (is_reachability_code(d.code)) continue;
          ++out.structural_errors;
          std::printf("FAIL: structural error after '%s' settled: [%s] %s\n",
                      rule.c_str(), d.code.c_str(), d.message.c_str());
        }
        if (report.verdict == reconfig::TxnVerdict::kRolledBack) {
          out.rollback_undone += report.rollback_steps;
          out.rollback_failures += report.rollback_failures;
        }
        out.fingerprint += std::string(rule.str()) + ":" +
                           reconfig::to_string(report.verdict) + ":" +
                           std::to_string(report.steps.size()) + ":" +
                           std::to_string(report.rollback_steps) + ";";
      });

  // Open-loop traffic so reconfiguration protocols actually hold and replay
  // messages mid-swap; failures during crash/loss windows are expected.
  const util::ConnectorId conn = rt->connector("main");
  const util::NodeId origin = rt->host("edge");
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&out, &app, &loop, &pump, conn, origin, horizon] {
    if (loop.now() >= horizon) return;
    ++out.requests;
    app.invoke_async(conn, "ping", util::Value{}, origin,
                     [](util::Result<util::Value>, util::Duration) {});
    loop.schedule_after(util::microseconds(400), *pump);
  };
  loop.schedule_after(util::microseconds(400), *pump);

  rt->raml().start();
  loop.run_until(horizon);
  rt->raml().stop();
  loop.run();  // drain in-flight protocols and replies

  const reconfig::RuleSet::Stats stats = rt->adl_rules()->stats();
  out.fired = stats.fired;
  out.committed = stats.committed;
  out.rolled_back = stats.rolled_back;

  // Storm over, loop drained: the world must verify fully clean (crashed
  // hosts came back when their windows closed) and no component may still
  // be holding traffic from an aborted swap.
  out.final_errors =
      analysis::verify_architecture(analysis::model_from(app)).errors();
  for (util::ComponentId id : app.component_ids()) {
    out.held_leaked += app.held_to(id);
  }
  return out;
}

/// Heap allocations per migrate protocol: `server` core -> edge -> core
/// through the engine, kMigrateRoundTrips times after a warm-up, on a fresh
/// storm world with plan verification enforced, no traffic and RAML not
/// started.  The registry is off meanwhile, so these runs add no samples
/// to the storms' series; every instrument lookup runs either way.
/// Returns 0 when a migration fails.
double allocs_per_migrate() {
  auto built = Runtime::builder()
                   .component_class<bench_testing::EchoServer>("EchoServer")
                   .component_class<bench_testing::EchoClient>("EchoClient")
                   .with_verification(analysis::VerifyMode::kEnforce)
                   .adl(kStormWorld)
                   .build();
  util::require(built.ok(), "storm world must build");
  auto rt = std::move(built).value();
  const util::ComponentId server = rt->component("server");
  const util::NodeId edge = rt->host("edge");
  const util::NodeId core = rt->host("core");
  bool all_ok = true;
  const auto round_trip = [&] {
    for (const util::NodeId to : {edge, core}) {
      rt->engine().migrate_component(
          server, to,
          [&all_ok](const reconfig::ReconfigReport& r) { all_ok &= r.ok(); });
      rt->loop().run();
    }
  };

  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);
  for (int i = 0; i < 10; ++i) round_trip();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < kMigrateRoundTrips; ++i) round_trip();
  const std::uint64_t allocs = alloc_count() - before;
  registry.set_enabled(was_enabled);
  if (!all_ok) return 0.0;
  return static_cast<double>(allocs) / (2.0 * kMigrateRoundTrips);
}

}  // namespace
}  // namespace aars::bench

int main(int argc, char** argv) {
  using namespace aars;
  using namespace aars::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  banner("E17: transactional reconfiguration under mid-plan fault storms",
         "Rule firings enact as txns with an undo journal. Seeded storms "
         "land crashes, loss bursts and fail-step windows mid-plan; every "
         "abort must roll back to a verifier-clean topology with zero "
         "leaked held messages, deterministically per seed.");
  enable_metrics();
  bool ok = true;

  const util::Duration horizon =
      smoke ? util::milliseconds(300) : util::seconds(1);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= (smoke ? 2u : 6u); ++s) seeds.push_back(s);

  Table table({"seed", "fired", "committed", "rolled back", "undo steps",
               "structural errs", "held leaked"});
  std::uint64_t total_committed = 0;
  std::uint64_t total_rolled_back = 0;
  std::uint64_t total_undone = 0;
  std::string per_seed_json = "[";
  std::string first_fingerprint;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const RunResult r = run_storm(seeds[i], horizon);
    if (i == 0) first_fingerprint = r.fingerprint;
    table.add_row({std::to_string(seeds[i]), std::to_string(r.fired),
                   std::to_string(r.committed), std::to_string(r.rolled_back),
                   std::to_string(r.rollback_undone),
                   std::to_string(r.structural_errors),
                   std::to_string(r.held_leaked)});
    per_seed_json += std::string(i ? ", " : "") + "{\"seed\": " +
                     std::to_string(seeds[i]) +
                     ", \"fired\": " + std::to_string(r.fired) +
                     ", \"committed\": " + std::to_string(r.committed) +
                     ", \"rolled_back\": " + std::to_string(r.rolled_back) +
                     ", \"undo_steps\": " + std::to_string(r.rollback_undone) +
                     ", \"requests\": " + std::to_string(r.requests) + "}";
    total_committed += r.committed;
    total_rolled_back += r.rolled_back;
    total_undone += r.rollback_undone;

    if (r.fired != r.committed + r.rolled_back) {
      std::printf("FAIL: seed %llu: %llu firings never settled\n",
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(
                      r.fired - r.committed - r.rolled_back));
      ok = false;
    }
    if (r.committed == 0 || r.rolled_back == 0) {
      std::printf("FAIL: seed %llu: storm must force both outcomes "
                  "(committed=%llu rolled_back=%llu)\n",
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.rolled_back));
      ok = false;
    }
    if (r.structural_errors != 0 || r.rollback_failures != 0) {
      std::printf("FAIL: seed %llu: %llu structural errors, %llu rollback "
                  "failures\n",
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(r.structural_errors),
                  static_cast<unsigned long long>(r.rollback_failures));
      ok = false;
    }
    if (r.final_errors != 0 || r.held_leaked != 0) {
      std::printf("FAIL: seed %llu: post-storm world not clean "
                  "(verifier errors=%llu, held messages leaked=%llu)\n",
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(r.final_errors),
                  static_cast<unsigned long long>(r.held_leaked));
      ok = false;
    }
  }
  per_seed_json += "]";
  table.print();

  // Determinism: replaying the first seed must reproduce the exact firing
  // sequence — same rules, same verdicts, same undo depth, same order.
  const RunResult replay = run_storm(seeds.front(), horizon);
  const bool deterministic = replay.fingerprint == first_fingerprint;
  std::printf("\nseed %llu replay fingerprint: %s (%zu firings)\n",
              static_cast<unsigned long long>(seeds.front()),
              deterministic ? "identical" : "DIVERGED",
              static_cast<std::size_t>(replay.fired));
  if (!deterministic) {
    std::printf("FAIL: same seed produced a different firing sequence\n");
    ok = false;
  }

  const double migrate_allocs = allocs_per_migrate();
  std::printf("migrate protocol, plan verification enforced: %.2f heap "
              "allocations per run (gate %.1f)\n",
              migrate_allocs, kMaxAllocsPerMigrate);
  if (migrate_allocs == 0.0 || migrate_allocs > kMaxAllocsPerMigrate) {
    std::printf("FAIL: %.2f allocations per migrate protocol (want (0, "
                "%.1f])\n",
                migrate_allocs, kMaxAllocsPerMigrate);
    ok = false;
  }

  const std::string extra =
      std::string("\"txn_storm\": {") + "\"seeds\": " +
      std::to_string(seeds.size()) +
      ", \"committed\": " + std::to_string(total_committed) +
      ", \"rolled_back\": " + std::to_string(total_rolled_back) +
      ", \"undo_steps\": " + std::to_string(total_undone) +
      ", \"deterministic\": " + (deterministic ? "true" : "false") +
      ", \"allocs_per_migrate\": " + fmt(migrate_allocs, 2) +
      ", \"max_allocs_per_migrate\": " + fmt(kMaxAllocsPerMigrate, 1) +
      ", \"per_seed\": " + per_seed_json + "}";
  write_metrics_json("e17_txn_storm", extra);

  std::printf("\nE17 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
