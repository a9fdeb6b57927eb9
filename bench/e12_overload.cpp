// E12 — Overload: admission control + priority shedding + degraded mode.
//
// Claim (§1): "a telecommunication network may be dynamically adapted to
// cope with the changing requests of mobile users" — rush hour must not
// take the service down. A single server is offered a deterministic
// rush-hour load (~1.7x its capacity for two seconds). The unprotected run
// queues everything: every call eventually completes, but latency explodes
// for all traffic classes alike. The protected run layers the overload
// subsystem: a token-bucket admission gate with a priority reserve sheds
// best-effort/normal traffic at the door, a circuit breaker guards the
// binding, and a degraded mode swaps the server for a cheaper
// implementation while pressure lasts. The degraded mode is a guarded pair
// of ADL rules that RAML fires as transactions. High-priority and control
// traffic keep their latency bound; control traffic is never shed.
#include <functional>
#include <string>

#include "common.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "testing_components.h"
#include "util/rng.h"
#include "util/stats.h"

namespace aars::bench {
namespace {

using bench_testing::EchoClient;
using bench_testing::EchoServer;
using component::Priority;
using util::Value;

// One server (2000 work-units/s => 500 us per echo) behind connector `svc`.
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
component CheapEchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node client { capacity 50000; }
node server { capacity 2000; }
link client <-> server { latency 1ms; bandwidth 100mbps; }
instance svc: EchoServer on server;
instance idle: EchoClient on client;
connector svc { routing direct; delivery sync; }
bind idle.out -> svc via svc;
)";

// The degraded mode: swap in the cheap implementation while the queue is
// deep and back once it drains.  Each guard enables its rule only in the
// configuration it leaves; each cooldown keeps its rule from flapping.
constexpr const char* kDegradedMode = R"(
when queue_depth(svc) >= 25 if running(svc, EchoServer) reconfigure rush_hour {
  cooldown 200ms;
  replace svc with CheapEchoServer;
}
when queue_depth(svc) <= 4 if running(svc, CheapEchoServer) reconfigure nominal {
  cooldown 200ms;
  replace svc with EchoServer;
}
)";

constexpr util::Duration kWarm = util::seconds(1);       // calm traffic
constexpr util::Duration kRushEnd = util::seconds(3);    // 2s rush hour
constexpr util::Duration kRun = util::seconds(5);        // calm again
constexpr util::Duration kHorizon = util::seconds(8);
constexpr util::Duration kQosBound = util::milliseconds(100);  // p99 bound

constexpr double kCalmRate = 1000.0;  // requests/s, ~50% utilisation
constexpr double kRushRate = 3400.0;  // ~1.7x the server's capacity

// Deterministic priority mix by request ordinal: 5% control, 10% high,
// ~30% best-effort, the rest normal.
Priority classify(int i) {
  if (i % 20 == 0) return Priority::kControl;
  if (i % 10 == 5) return Priority::kHigh;
  if (i % 3 == 0) return Priority::kBestEffort;
  return Priority::kNormal;
}

struct ClassStats {
  int offered = 0;
  int ok = 0;
  int shed = 0;    // failed with kOverloaded
  int failed = 0;  // failed with anything else
  util::Histogram latency_ms;  // completed calls only
};

struct Outcome {
  ClassStats per_class[4];
  util::Histogram premium_ms;  // completed kHigh + kControl calls
  std::uint64_t admission_shed = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t degraded_enters = 0;
  std::uint64_t degraded_exits = 0;

  ClassStats& cls(Priority p) { return per_class[static_cast<int>(p)]; }
  const ClassStats& cls(Priority p) const {
    return per_class[static_cast<int>(p)];
  }
  double premium_p99() const { return premium_ms.p99(); }
};

Outcome run(bool protect, std::uint64_t seed) {
  auto builder =
      Runtime::builder()
          .seed(seed)
          .component_class<EchoServer>("EchoServer")
          .component_type("CheapEchoServer",
                          [](const std::string& instance) {
                            // Same interface, 40% of the work: the degraded
                            // implementation trades fidelity for headroom.
                            return std::make_unique<EchoServer>(
                                instance, "CheapEchoServer", 0.4);
                          })
          .component_class<EchoClient>("EchoClient")
          .adl(protect ? std::string(kWorld) + kDegradedMode : kWorld);
  if (protect) {
    overload::AdmissionPolicy admission;
    admission.rate_per_sec = 1700.0;  // bulk traffic cap, under capacity
    admission.burst = 170.0;
    admission.reserve_fraction = 0.2;
    admission.queue_high = 60;
    admission.queue_low = 20;
    admission.shed_below = Priority::kHigh;

    overload::BreakerPolicy breaker;
    breaker.min_samples = 50;
    breaker.failure_rate_to_open = 0.5;
    breaker.open_cooldown = util::milliseconds(200);

    builder.with_admission("svc", admission)
        .with_breaker("svc", breaker)
        .with_raml(util::milliseconds(20));
  }
  auto rt = builder.build().value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto client = rt->host("client");
  const auto conn = rt->connector("svc");

  Outcome outcome;
  if (protect) {
    // Entering and leaving the degraded mode are the committed firings of
    // its two rules.
    const util::Symbol enter("rush_hour");
    rt->adl_rules()->set_firing_observer(
        [&outcome, enter](util::Symbol rule,
                          const reconfig::ReconfigReport& report) {
          if (report.verdict != reconfig::TxnVerdict::kCommitted) return;
          if (rule == enter) {
            ++outcome.degraded_enters;
          } else {
            ++outcome.degraded_exits;
          }
        });
    rt->raml().start();
    loop.schedule_at(kHorizon, [&rt] { rt->raml().stop(); });
  }

  // Open-loop load: calm, rush hour, calm again.
  util::Rng rng(seed);
  int sent = 0;
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&] {
    if (loop.now() > kRun) return;
    const Priority priority = classify(sent++);
    ++outcome.cls(priority).offered;
    app.invoke_async(
        conn, "echo", Value::object({{"text", "x"}}), client,
        [&outcome, priority](util::Result<Value> r, util::Duration latency) {
          ClassStats& stats = outcome.cls(priority);
          if (r.ok()) {
            ++stats.ok;
            stats.latency_ms.add(util::to_millis(latency));
            if (priority >= Priority::kHigh) {
              outcome.premium_ms.add(util::to_millis(latency));
            }
          } else if (r.error().code() == util::ErrorCode::kOverloaded) {
            ++stats.shed;
          } else {
            ++stats.failed;
          }
        },
        component::Control{.priority = priority});
    const bool rush = loop.now() >= kWarm && loop.now() < kRushEnd;
    loop.schedule_after(rng.poisson_gap(rush ? kRushRate : kCalmRate), *pump);
  };
  loop.schedule_after(0, *pump);

  rt->run_until(kHorizon);
  rt->run();  // drain stragglers

  if (protect) {
    if (auto admission = rt->admission("svc")) {
      outcome.admission_shed = admission->shed_total();
    }
    if (auto breaker = rt->breaker("svc")) {
      outcome.breaker_short_circuits = breaker->short_circuits();
    }
  }
  return outcome;
}

std::string fingerprint(const Outcome& o) {
  std::string fp;
  for (int p = 0; p < 4; ++p) {
    const ClassStats& c = o.per_class[p];
    fp += std::to_string(c.offered) + "/" + std::to_string(c.ok) + "/" +
          std::to_string(c.shed) + "/" + fmt(c.latency_ms.p99(), 3) + ";";
  }
  fp += std::to_string(o.admission_shed) + "/" +
        std::to_string(o.degraded_enters) + "/" +
        std::to_string(o.degraded_exits);
  return fp;
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars;
  using namespace aars::bench;
  using component::Priority;
  banner("E12: rush-hour overload — admission + shedding + degraded mode",
         "Paper claim (§1): the system must be dynamically adapted to cope "
         "with the changing requests of mobile users. Same deterministic "
         "rush-hour load; the protected run sheds low-priority traffic at "
         "the door, breaks the binding on sustained failure and swaps in a "
         "cheaper implementation via RAML rules while pressure lasts.");
  aars::bench::enable_metrics();

  const Outcome baseline = run(/*protect=*/false, 42);
  const Outcome protected_run = run(/*protect=*/true, 42);
  const Outcome repeat = run(/*protect=*/true, 42);

  Table table({"policy", "class", "offered", "ok", "shed", "failed",
               "p50(ms)", "p99(ms)"});
  const auto report = [&](const char* name, const Outcome& o) {
    static const char* kClass[] = {"best_effort", "normal", "high", "control"};
    for (int p = 0; p < 4; ++p) {
      const ClassStats& c = o.per_class[p];
      table.add_row({name, kClass[p], std::to_string(c.offered),
                     std::to_string(c.ok), std::to_string(c.shed),
                     std::to_string(c.failed), fmt(c.latency_ms.p50(), 1),
                     fmt(c.latency_ms.p99(), 1)});
    }
  };
  report("baseline", baseline);
  report("protected", protected_run);
  table.print();

  std::printf("\nprotected: admission shed %llu, breaker short-circuits "
              "%llu, degraded enter/exit %llu/%llu\n",
              static_cast<unsigned long long>(protected_run.admission_shed),
              static_cast<unsigned long long>(
                  protected_run.breaker_short_circuits),
              static_cast<unsigned long long>(protected_run.degraded_enters),
              static_cast<unsigned long long>(protected_run.degraded_exits));

  const bool deterministic =
      fingerprint(protected_run) == fingerprint(repeat);
  const double bound_ms = util::to_millis(kQosBound);
  const bool premium_protected = protected_run.premium_p99() <= bound_ms;
  const bool baseline_violates = baseline.premium_p99() > bound_ms;
  const bool control_never_shed =
      protected_run.cls(Priority::kControl).shed == 0 &&
      protected_run.cls(Priority::kControl).failed == 0;
  const bool adapted = protected_run.degraded_enters >= 1 &&
                       protected_run.degraded_exits >= 1;

  std::printf("\ndeterministic (same seed, same fingerprint): %s\n",
              deterministic ? "yes" : "NO");
  std::printf("premium p99 within %.0f ms (protected %.1f, baseline %.1f): "
              "%s / baseline violates: %s\n",
              bound_ms, protected_run.premium_p99(), baseline.premium_p99(),
              premium_protected ? "yes" : "NO",
              baseline_violates ? "yes" : "NO");
  std::printf("control traffic never shed: %s\n",
              control_never_shed ? "yes" : "NO");
  std::printf("degraded mode entered and exited: %s\n",
              adapted ? "yes" : "NO");

  std::printf(
      "\nExpected shape: the baseline queues the whole rush (premium p99 "
      "rises to the backlog drain time, ~seconds); the protected run keeps "
      "premium latency bounded by refusing bulk work at the door and "
      "switching to the cheap implementation, then restores the nominal "
      "configuration when the rush passes.\n");
  aars::bench::write_metrics_json("e12_overload");
  return deterministic && premium_protected && baseline_violates &&
                 control_never_shed && adapted
             ? 0
             : 1;
}
