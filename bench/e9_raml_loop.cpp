// E9 — RAML observe/check/act loop.
//
// Claim (§3): RAML "is in charge of observing the system, checking the
// compliancy of each application ... and undertaking adaptation or
// reconfiguration actions", driven by "periodical measurements" (§1).
//
// Scenario: a service runs healthy; at t = 2 s its node loses 96% of its
// capacity (10000 -> 400 work units/s, resource fluctuation). The ADL rule
// `when backlog(primary) > 20000 reconfigure failover` migrates the service
// to the fallback node; RAML samples it every `period`. Reported per
// period: detection delay, action latency, the firing's verdict, and the
// mean latency clients saw while degraded and after recovery. Exits
// non-zero unless detection equals the period on every row, the firing
// commits and recovers latency at 10, 50 and 100 ms, and rolls back with
// kOverloaded at 500 ms.
// Plus micro-measurements of the introspection surface.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "common.h"
#include "meta/introspection.h"
#include "reconfig/rules.h"
#include "testing_components.h"
#include "util/rng.h"
#include "util/stats.h"

namespace aars::bench {
namespace {

using bench_testing::EchoClient;
using bench_testing::EchoServer;
using util::Value;

// The idle client exists because the ADL attaches a provider to a
// connector only through a binding.
constexpr const char* kWorld = R"(interface Echo {
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
node primary { capacity 10000; }
node fallback { capacity 10000; }
node client { capacity 50000; }
link primary <-> fallback { latency 1ms; bandwidth 100mbps; }
link primary <-> client { latency 1ms; bandwidth 100mbps; }
link fallback <-> client { latency 1ms; bandwidth 100mbps; }
instance svc: EchoServer on primary;
instance idle: EchoClient on client;
connector svc { routing direct; delivery sync; }
bind idle.out -> svc via svc;

when backlog(primary) > 20000 reconfigure failover {
  cooldown 60s;
  migrate svc to fallback;
}
)";

struct Outcome {
  util::Duration detection_us = -1;
  util::Duration action_us = -1;
  reconfig::TxnVerdict verdict = reconfig::TxnVerdict::kNone;
  util::ErrorCode code = util::ErrorCode::kOk;
  std::string reason;  // why the firing rolled back; empty when it committed
  util::RunningStats degraded;
  util::RunningStats recovered;
};

Outcome run(util::Duration period, std::uint64_t seed) {
  auto rt = Runtime::builder()
                .seed(seed)
                .component_type("EchoServer", [](const std::string& name) {
                  return std::make_unique<EchoServer>(name, "EchoServer",
                                                      /*work=*/2.0);
                })
                .component_class<EchoClient>("EchoClient")
                .adl(kWorld)
                .with_raml(period)
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto primary = rt->host("primary");
  const auto fallback = rt->host("fallback");
  const auto client = rt->host("client");
  const auto svc = rt->component("svc");
  const auto conn = rt->connector("svc");

  Outcome outcome;
  const util::SimTime fault_at = util::seconds(2);
  rt->adl_rules()->set_firing_observer(
      [&outcome, fault_at](util::Symbol,
                           const reconfig::ReconfigReport& report) {
        outcome.detection_us = report.started_at - fault_at;
        outcome.verdict = report.verdict;
        if (report.verdict == reconfig::TxnVerdict::kCommitted) {
          outcome.action_us = report.duration();
        } else {
          outcome.code = report.status.code();
          outcome.reason = report.status.to_string();
        }
      });
  meta::Raml& raml = rt->raml();
  raml.start();
  loop.schedule_at(util::seconds(6), [&raml] { raml.stop(); });

  util::Rng rng(seed);
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&] {
    if (loop.now() > util::seconds(6)) return;
    app.invoke_async(conn, "echo", Value::object({{"text", "x"}}), client,
                     [&](util::Result<Value> r, util::Duration latency) {
                       if (!r.ok()) return;
                       if (loop.now() < fault_at) return;
                       if (app.placement(svc) == fallback) {
                         outcome.recovered.add(static_cast<double>(latency));
                       } else {
                         outcome.degraded.add(static_cast<double>(latency));
                       }
                     });
    loop.schedule_after(rng.poisson_gap(800), *pump);
  };
  loop.schedule_after(0, *pump);

  // The fault: primary loses 96% of its capacity.
  loop.schedule_at(fault_at, [&] {
    rt->network().node(primary).set_capacity(400);
  });
  rt->run();
  return outcome;
}

// --- micro: introspection overhead ---------------------------------------------

void BM_DescribeSystem(benchmark::State& state) {
  auto builder = Runtime::builder()
                     .seed(1)
                     .host("n", 1e6)
                     .component_class<EchoServer>("EchoServer");
  for (int i = 0; i < state.range(0); ++i) {
    builder.deploy("EchoServer", "e" + std::to_string(i), "n");
  }
  auto rt = builder.build().value();
  meta::SystemView view(rt->app());
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.describe_system());
  }
  state.SetLabel(std::to_string(state.range(0)) + " components");
}
BENCHMARK(BM_DescribeSystem)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace aars::bench

int main(int argc, char** argv) {
  using namespace aars;
  using namespace aars::bench;
  banner("E9: the RAML observe/check/act loop",
         "Paper claim (S1/S3): periodical measurements + specified criteria "
         "trigger reconfiguration. Detection delay should track ~the "
         "monitoring period; the action cost is the migration protocol.");
  aars::bench::enable_metrics();

  Table table({"period(ms)", "detection_delay(us)", "action(us)", "firing",
               "latency_degraded(us)", "latency_recovered(us)"});
  bool ok = true;
  for (util::Duration period :
       {util::milliseconds(10), util::milliseconds(50),
        util::milliseconds(100), util::milliseconds(500)}) {
    const Outcome o = run(period, 42);
    const bool committed = o.verdict == reconfig::TxnVerdict::kCommitted;
    table.add_row({fmt(util::to_millis(period), 0), fmt_us(o.detection_us),
                   committed ? fmt_us(o.action_us) : "rolled back",
                   std::string(reconfig::to_string(o.verdict)) +
                       (committed ? "" : ": " + o.reason),
                   fmt(o.degraded.mean(), 0),
                   o.recovered.count() > 0 ? fmt(o.recovered.mean(), 0)
                                           : "-"});
    ok = ok && o.detection_us == period;
    if (period < util::milliseconds(500)) {
      // A short period repairs before the hold buffer overflows.
      ok = ok && committed && o.recovered.count() > 0 &&
           o.recovered.mean() < o.degraded.mean();
    } else {
      // Half a second of 6x overload queues more calls than the migrate's
      // hold buffer takes while it drains: the firing rolls back.
      ok = ok && o.verdict == reconfig::TxnVerdict::kRolledBack &&
           o.code == util::ErrorCode::kOverloaded;
    }
  }
  table.print();
  std::printf(
      "\nExpected shape: detection delay equals the monitoring period; "
      "recovered latency is far below degraded latency at 10-100 ms; at "
      "500 ms the migrate's hold buffer overflows while it drains and the "
      "firing rolls back.\n\nIntrospection micro-costs follow.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  aars::bench::write_metrics_json("e9_raml_loop");
  if (!ok) {
    std::printf("\nE9 FAILED: a row broke the expected shape above\n");
    return 1;
  }
  return 0;
}
