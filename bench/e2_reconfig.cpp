// E2 — Strong dynamic reconfiguration vs stop-and-restart.
//
// Claim (§1): the quiescence-based protocol keeps ongoing activities
// running and preserves channels, "avoiding message loss, duplication or
// excessive delays" — whereas the traditional restart loses in-flight work
// and state.
//
// Workload: an open-loop Poisson event stream at rate lambda towards a
// stateful counter; one component replacement fires at t = 1 s.
// Reported per lambda: swap protocol duration, messages held & replayed,
// lost, duplicated, max extra delay, final-state correctness.
//
// Exit code: non-zero unless every dynamic(quiescence) row shows lost=0,
// dup=0 and state_ok=yes, and every stop_restart row ends with
// final < sent.
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "reconfig/baseline.h"
#include "reconfig/engine.h"
#include "testing_components.h"
#include "util/rng.h"

namespace aars::bench {
namespace {

using bench_testing::CounterServer;
using util::Value;

struct Outcome {
  util::Duration protocol_us = 0;
  std::size_t held = 0;
  std::size_t replayed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  util::Duration max_delay = 0;
  std::int64_t final_total = 0;
  int sent = 0;
  std::uint64_t failed_calls = 0;
  bool state_preserved = false;
};

Outcome run(double lambda, bool dynamic, std::uint64_t seed) {
  sim::LinkSpec link;
  link.latency = util::milliseconds(1);
  connector::ConnectorSpec spec;
  spec.name = "svc";
  auto rt = Runtime::builder()
                .seed(seed)
                .host("server", 20000)
                .host("client", 20000)
                .link("server", "client", link)
                .component_class<CounterServer>("CounterServer")
                .deploy("CounterServer", "v1", "server")
                .connect(spec, {"v1"})
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto client = rt->host("client");
  const auto server = rt->component("v1");
  const auto conn = rt->connector("svc");

  Outcome outcome;
  util::Rng rng(seed);
  std::function<void()> pump = [&] {
    if (loop.now() > util::seconds(3)) return;
    ++outcome.sent;
    (void)app.send_event(conn, "add", Value::object({{"amount", 1}}),
                         client);
    loop.schedule_after(rng.poisson_gap(lambda), pump);
  };
  loop.schedule_after(0, pump);

  util::ComponentId final_component = server;
  reconfig::ReconfigurationEngine& engine = rt->engine();
  reconfig::StopRestartReconfigurator::Options baseline_options;
  baseline_options.restart_delay = util::milliseconds(50);
  reconfig::StopRestartReconfigurator baseline(app, baseline_options);

  loop.schedule_at(util::seconds(1), [&] {
    const auto done = [&](const reconfig::ReconfigReport& report) {
      outcome.protocol_us = report.duration();
      outcome.held = report.held_messages;
      outcome.replayed = report.replayed_messages;
      final_component = report.new_component;
    };
    if (dynamic) {
      engine.replace_component(server, "CounterServer", "v2", done);
    } else {
      baseline.replace_component(server, "CounterServer", "v2", done);
    }
  });
  rt->run();

  outcome.dropped = app.messages_dropped();
  outcome.duplicated = app.messages_duplicated();
  outcome.failed_calls = app.failed_calls();
  for (util::ComponentId id : app.component_ids()) {
    for (runtime::Channel* chan : app.channels_to(id)) {
      outcome.max_delay = std::max(outcome.max_delay, chan->max_delay());
    }
  }
  if (auto* counter = dynamic_cast<CounterServer*>(
          app.find_component(final_component))) {
    outcome.final_total = counter->total();
  }
  outcome.state_preserved = outcome.final_total == outcome.sent;
  return outcome;
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars;
  using namespace aars::bench;
  banner("E2: strong dynamic reconfiguration vs stop-and-restart",
         "Paper claim (S1): blocking channels + draining + state transfer "
         "preserves every message and the component state; the traditional "
         "restart drops in-flight work and loses state.");
  aars::bench::enable_metrics();

  Table table({"mechanism", "lambda(msg/s)", "protocol(us)", "held",
               "replayed", "lost", "dup", "max_delay(us)", "events_sent",
               "final_state", "state_ok"});
  std::vector<std::string> failures;
  for (double lambda : {100.0, 500.0, 1000.0, 2000.0}) {
    for (bool dynamic : {true, false}) {
      const Outcome o = run(lambda, dynamic, 42);
      const bool as_claimed =
          dynamic ? o.dropped == 0 && o.duplicated == 0 && o.state_preserved
                  : o.final_total < o.sent;
      if (!as_claimed) {
        failures.push_back(std::string(dynamic ? "dynamic(quiescence)"
                                               : "stop_restart") +
                           " at lambda=" + fmt(lambda, 0));
      }
      table.add_row({dynamic ? "dynamic(quiescence)" : "stop_restart",
                     fmt(lambda, 0), fmt_us(o.protocol_us),
                     std::to_string(o.held), std::to_string(o.replayed),
                     std::to_string(o.dropped), std::to_string(o.duplicated),
                     fmt_us(o.max_delay), std::to_string(o.sent),
                     std::to_string(o.final_total),
                     o.state_preserved ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf(
      "\nExpected shape: dynamic rows show lost=0, dup=0, state_ok=yes at "
      "every rate; stop_restart rows lose the pre-swap state (final < "
      "sent).\n");
  aars::bench::write_metrics_json("e2_reconfig");
  for (const std::string& row : failures) {
    std::printf("FAIL: %s does not show the expected shape\n", row.c_str());
  }
  std::printf("\nE2 %s\n", failures.empty() ? "PASS" : "FAIL");
  return failures.empty() ? 0 : 1;
}
