// E9 — RAML observe/check/act loop.
//
// Claim (§3): RAML "is in charge of observing the system, checking the
// compliancy of each application ... and undertaking adaptation or
// reconfiguration actions", driven by "periodical measurements" (§1).
//
// Scenario: a service runs healthy; at t = 2 s its node loses 80% capacity
// (resource fluctuation). RAML monitors node backlog every `period` and
// migrates the service when backlog exceeds the criterion. Reported per
// period: detection delay, action latency, total outage seen by clients.
// Plus micro-measurements of the introspection surface.
#include <benchmark/benchmark.h>

#include <functional>

#include "common.h"
#include "meta/raml.h"
#include "reconfig/engine.h"
#include "testing_components.h"
#include "util/rng.h"

namespace aars::bench {
namespace {

using bench_testing::EchoServer;
using util::Value;

struct Outcome {
  util::Duration detection_us = -1;
  util::Duration action_us = -1;
  double degraded_mean_latency = 0;
  double recovered_mean_latency = 0;
};

Outcome run(util::Duration period, std::uint64_t seed) {
  sim::LinkSpec link;
  link.latency = util::milliseconds(1);
  connector::ConnectorSpec spec;
  spec.name = "svc";
  auto rt = Runtime::builder()
                .seed(seed)
                .host("primary", 10000)
                .host("fallback", 10000)
                .host("client", 50000)
                .link_all(link)
                .component_type("EchoServer", [](const std::string& name) {
                  return std::make_unique<EchoServer>(name, "EchoServer",
                                                      /*work=*/2.0);
                })
                .deploy("EchoServer", "svc", "primary")
                .connect(spec, {"svc"})
                .with_raml(period)
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  auto& network = rt->network();
  const auto primary = rt->host("primary");
  const auto fallback = rt->host("fallback");
  const auto client = rt->host("client");
  const auto svc = rt->component("svc");
  const auto conn = rt->connector("svc");

  meta::Raml& raml = rt->raml();

  Outcome outcome;
  const util::SimTime fault_at = util::seconds(2);
  util::SimTime detected_at = -1;

  raml.add_sensor("backlog", [&network, &loop, primary] {
    return static_cast<double>(network.node(primary).backlog(loop.now()));
  });
  raml.add_policy(meta::Policy{
      "failover",
      [](const meta::MetricSample& s) { return s.get("backlog") > 20000; },
      [&](meta::Raml& r) {
        detected_at = loop.now();
        r.engine().migrate_component(
            svc, fallback, [&](const reconfig::ReconfigReport& report) {
              if (report.ok() && outcome.action_us < 0) {
                outcome.action_us = loop.now() - detected_at;
              }
            });
      },
      util::seconds(60)});  // act once
  raml.start();
  loop.schedule_at(util::seconds(6), [&raml] { raml.stop(); });

  util::RunningStats degraded;
  util::RunningStats recovered;
  util::Rng rng(seed);
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&] {
    if (loop.now() > util::seconds(6)) return;
    app.invoke_async(conn, "echo", Value::object({{"text", "x"}}), client,
                     [&](util::Result<Value> r, util::Duration latency) {
                       if (!r.ok()) return;
                       if (loop.now() < fault_at) return;
                       if (app.placement(svc) == fallback) {
                         recovered.add(static_cast<double>(latency));
                       } else {
                         degraded.add(static_cast<double>(latency));
                       }
                     });
    loop.schedule_after(rng.poisson_gap(800), *pump);
  };
  loop.schedule_after(0, *pump);

  // The fault: primary loses 80% of its capacity.
  loop.schedule_at(fault_at, [&] {
    network.node(primary).set_capacity(400);
  });
  rt->run();

  outcome.detection_us = detected_at >= 0 ? detected_at - fault_at : -1;
  outcome.degraded_mean_latency = degraded.mean();
  outcome.recovered_mean_latency = recovered.mean();
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

  Table table({"period(ms)", "detection_delay(us)", "action(us)",
               "latency_degraded(us)", "latency_recovered(us)"});
  for (util::Duration period :
       {util::milliseconds(10), util::milliseconds(50),
        util::milliseconds(100), util::milliseconds(500)}) {
    const Outcome o = run(period, 42);
    table.add_row({fmt(util::to_millis(period), 0), fmt_us(o.detection_us),
                   fmt_us(o.action_us), fmt(o.degraded_mean_latency, 0),
                   fmt(o.recovered_mean_latency, 0)});
  }
  table.print();
  std::printf(
      "\nExpected shape: detection delay grows with the monitoring period "
      "(plus the time for backlog to cross the criterion); recovered "
      "latency is far below degraded latency at every period.\n\n"
      "Introspection micro-costs follow.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  aars::bench::write_metrics_json("e9_raml_loop");
  return 0;
}
