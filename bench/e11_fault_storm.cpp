// E11 — Fault storm: failure-driven reconfiguration vs no repair.
//
// Claim (prospective vision): adaptive systems must "react to changes in
// their environment" — not just load, but failure. A replicated service is
// subjected to a deterministic fault storm (host crashes, a link partition,
// a latency-degrade window, a correlated loss burst). The managed run
// repairs itself: an ADL rule on `fault.host_down` redeploys the components
// stranded on the dead host, as one transaction RAML fires, while the
// connector retries with exponential backoff and fails over to live
// replicas. The baseline run has no repair path at all.
// Reported per policy: calls offered/ok/failed, QoS-compliant fraction
// (latency bound), MTTR per crash, retries, messages dropped during faults.
#include <functional>

#include "common.h"
#include "fault/policies.h"
#include "fault/scenario.h"
#include "testing_components.h"
#include "util/rng.h"
#include "util/stats.h"

namespace aars::bench {
namespace {

using bench_testing::EchoServer;
using util::Value;

constexpr util::Duration kRun = util::seconds(6);
constexpr util::Duration kHorizon = util::seconds(7);
constexpr util::Duration kQosBound = util::milliseconds(20);
constexpr util::Duration kMttrTick = util::milliseconds(5);

// The storm, in the versionable text format (FaultScenario::parse): two
// replica hosts crash in sequence; the client's links to the survivors get
// a degrade window, a loss burst and a short partition.
constexpr const char* kStorm = R"(scenario storm
# first replica host dies for 2s
at 1s     crash host=s0 for 2s
at 1500ms degrade link=client-s1 latency=4ms jitter=1ms for 1s
at 2500ms loss link=client-s2 p=0.25 for 500ms
# second replica host dies while the first is barely back
at 4s     crash host=s1 for 1500ms
at 4200ms partition link=client-s2 for 300ms
)";

struct Outcome {
  int offered = 0;
  int ok = 0;
  int failed = 0;
  int qos_ok = 0;  // ok calls within kQosBound
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t repairs = 0;  // redeploy steps of committed repairs
  std::uint64_t dropped_during_faults = 0;
  util::RunningStats mttr_ms;  // one sample per host crash

  double qos_fraction() const {
    return offered > 0 ? static_cast<double>(qos_ok) / offered : 0.0;
  }
};

Outcome run(bool repair, std::uint64_t seed) {
  sim::LinkSpec link;
  link.latency = util::milliseconds(1);
  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kRoundRobin;

  auto builder = Runtime::builder()
                     .seed(seed)
                     .host("client", 50000)
                     .host("s0", 10000)
                     .host("s1", 10000)
                     .host("s2", 10000)
                     .link_all(link)
                     .component_class<EchoServer>("EchoServer")
                     .deploy("EchoServer", "r0", "s0")
                     .deploy("EchoServer", "r1", "s1")
                     .deploy("EchoServer", "r2", "s2")
                     .connect(spec, {"r0", "r1", "r2"})
                     .with_fault_text(kStorm);
  if (repair) {
    fault::RetryPolicy policy;
    policy.max_retries = 3;
    policy.backoff_base = 500;                     // 0.5 ms
    policy.backoff_cap = util::milliseconds(10);
    policy.failover = true;
    policy.timeout = util::milliseconds(20);
    builder.with_retry("svc", policy)
        .with_raml(util::milliseconds(20))
        .adl("when event fault.host_down reconfigure self_repair {\n"
             "  redeploy stranded;\n"
             "}\n");
  }
  auto rt = builder.build().value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto client = rt->host("client");
  const auto conn = rt->connector("svc");
  Outcome outcome;
  if (repair) {
    rt->adl_rules()->set_firing_observer(
        [&outcome](util::Symbol, const reconfig::ReconfigReport& report) {
          if (report.verdict == reconfig::TxnVerdict::kCommitted) {
            outcome.repairs += report.steps.size();
          }
        });
    rt->raml().start();
    // The periodic MAPE tick would keep the loop alive forever; end the
    // management session at the horizon.
    loop.schedule_at(kHorizon, [&rt] { rt->raml().stop(); });
  }

  // --- MTTR: from crash begin until every component again sits on an up
  // host AND a probe call through the connector succeeds.
  auto pending_crashes = std::make_shared<std::vector<util::SimTime>>();
  rt->faults().on_fault([pending_crashes](const fault::FaultEvent& ev) {
    if (ev.kind == fault::FaultKind::kHostCrash &&
        ev.phase == fault::FaultEvent::Phase::kBegin) {
      pending_crashes->push_back(ev.at);
    }
  });
  auto probing = std::make_shared<bool>(false);
  auto mttr_tick = std::make_shared<std::function<void()>>();
  *mttr_tick = [&, pending_crashes, probing] {
    if (loop.now() > kHorizon) return;
    loop.schedule_after(kMttrTick, *mttr_tick);
    if (pending_crashes->empty() || *probing) return;
    for (util::ComponentId id : app.component_ids()) {
      if (!rt->faults().host_up(app.placement(id))) return;
    }
    *probing = true;
    app.invoke_async(conn, "ping", Value{}, client,
                     [&, pending_crashes, probing](util::Result<Value> r,
                                                   util::Duration) {
                       *probing = false;
                       if (!r.ok()) return;
                       for (util::SimTime began : *pending_crashes) {
                         outcome.mttr_ms.add(
                             util::to_millis(loop.now() - began));
                       }
                       pending_crashes->clear();
                     });
  };
  loop.schedule_after(kMttrTick, *mttr_tick);

  // --- client workload: open-loop Poisson requests.
  util::Rng rng(seed);
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&] {
    if (loop.now() > kRun) return;
    ++outcome.offered;
    app.invoke_async(conn, "echo", Value::object({{"text", "x"}}), client,
                     [&](util::Result<Value> r, util::Duration latency) {
                       if (r.ok()) {
                         ++outcome.ok;
                         if (latency <= kQosBound) ++outcome.qos_ok;
                       } else {
                         ++outcome.failed;
                       }
                     });
    loop.schedule_after(rng.poisson_gap(400), *pump);
  };
  loop.schedule_after(0, *pump);

  rt->run_until(kHorizon);
  rt->run();  // drain whatever is still in flight

  outcome.retries = app.retries_scheduled();
  outcome.timeouts = app.calls_timed_out();
  outcome.dropped_during_faults = rt->faults().dropped_during_faults();
  return outcome;
}

std::string fingerprint(const Outcome& o) {
  return std::to_string(o.offered) + "/" + std::to_string(o.ok) + "/" +
         std::to_string(o.failed) + "/" + std::to_string(o.retries) + "/" +
         fmt(o.mttr_ms.mean(), 3);
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars;
  using namespace aars::bench;
  banner("E11: fault storm — failure-driven repair vs no repair",
         "Paper claim (prospective vision): the system must react to "
         "environment changes, i.e. failures. Same deterministic storm; the "
         "managed run retries with backoff, fails over to replicas and "
         "redeploys components off dead hosts via RAML rules.");
  aars::bench::enable_metrics();

  const Outcome none = run(/*repair=*/false, 42);
  const Outcome repaired = run(/*repair=*/true, 42);
  const Outcome repeat = run(/*repair=*/true, 42);

  Table table({"policy", "offered", "ok", "failed", "qos_frac",
               "mttr_mean(ms)", "mttr_max(ms)", "repairs", "retries",
               "timeouts", "dropped_in_fault"});
  const auto report = [&](const char* name, const Outcome& o) {
    table.add_row({name, std::to_string(o.offered), std::to_string(o.ok),
                   std::to_string(o.failed), fmt(o.qos_fraction()),
                   fmt(o.mttr_ms.mean(), 1), fmt(o.mttr_ms.max(), 1),
                   std::to_string(o.repairs), std::to_string(o.retries),
                   std::to_string(o.timeouts),
                   std::to_string(o.dropped_during_faults)});
  };
  report("no_repair", none);
  report("self_repair", repaired);
  table.print();

  const bool deterministic = fingerprint(repaired) == fingerprint(repeat);
  const bool strictly_better = repaired.failed < none.failed &&
                               repaired.mttr_ms.mean() < none.mttr_ms.mean();
  std::printf("\ndeterministic (same seed, same fingerprint): %s\n",
              deterministic ? "yes" : "NO");
  std::printf("self_repair strictly better (failed %d < %d, mttr %.1f < "
              "%.1f ms): %s\n",
              repaired.failed, none.failed, repaired.mttr_ms.mean(),
              none.mttr_ms.mean(), strictly_better ? "yes" : "NO");
  std::printf(
      "\nExpected shape: no_repair eats every fault for its full duration "
      "(MTTR ~ fault length, failed calls pile up round-robining onto dead "
      "replicas); self_repair detects the crash within the RAML period, "
      "redeploys off the dead host and masks transient errors with "
      "retry+failover.\n");
  aars::bench::write_metrics_json("e11_fault_storm");
  return deterministic && strictly_better ? 0 : 1;
}
