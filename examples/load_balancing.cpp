// Load balancing through geographic reconfiguration.
//
// Three replicas behind a round-robin connector; an ADL rule watches the
// backlog of rack0 and, when the rack loses capacity, migrates its replica
// to rack1. RAML samples the rule every 100 ms and fires it as one
// transaction.
//
//   $ ./load_balancing
#include <cstdio>
#include <functional>
#include <memory>

#include "api/runtime.h"
#include "component/component.h"
#include "reconfig/rules.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace aars;

namespace {

component::InterfaceDescription work_interface() {
  component::InterfaceDescription iface("Work", 1);
  iface.add_service(component::ServiceSignature{
      "crunch", {component::ParamSpec{"n", util::ValueType::kInt, false}},
      util::ValueType::kInt});
  return iface;
}

class Worker : public component::Component {
 public:
  explicit Worker(const std::string& instance_name)
      : component::Component("Worker", instance_name) {
    set_provided(work_interface());
    register_operation("crunch", 3.0,
                       [](const util::Value& args)
                           -> util::Result<util::Value> {
                         return util::Value{args.at("n").as_int() * 2};
                       });
  }
};

/// The clients' side of the binding; the load itself is driven from main.
class LoadSource : public component::Component {
 public:
  explicit LoadSource(const std::string& instance_name)
      : component::Component("LoadSource", instance_name) {
    add_required(component::RequiredPort{"work", work_interface()});
  }
};

// Three replicas, one per rack, behind a round-robin connector. Round
// robin cannot steer around a slow rack — that is RAML's job here: the
// *geographic* reconfiguration moves the replica instead.
constexpr const char* kWorld = R"(interface Work {
  service crunch(n: int) -> int;
}
component Worker provides Work;
component LoadSource {
  requires work: Work;
}
node rack0 { capacity 6000; }
node rack1 { capacity 6000; }
node rack2 { capacity 6000; }
node clients { capacity 100000; }
link rack0 <-> rack1 { latency 1ms; bandwidth 100mbps; }
link rack0 <-> rack2 { latency 1ms; bandwidth 100mbps; }
link rack0 <-> clients { latency 1ms; bandwidth 100mbps; }
link rack1 <-> rack2 { latency 1ms; bandwidth 100mbps; }
link rack1 <-> clients { latency 1ms; bandwidth 100mbps; }
link rack2 <-> clients { latency 1ms; bandwidth 100mbps; }
instance w0: Worker on rack0;
instance w1: Worker on rack1;
instance w2: Worker on rack2;
instance source: LoadSource on clients;
connector lb { routing round_robin; delivery sync; }
bind source.work -> w0, w1, w2 via lb;

when backlog(rack0) > 50000 reconfigure rebalance {
  cooldown 500ms;
  migrate w0 to rack1;
}
)";

}  // namespace

int main() {
  auto rt = Runtime::builder()
                .component_class<Worker>("Worker")
                .component_class<LoadSource>("LoadSource")
                .adl(kWorld)
                .with_raml(util::milliseconds(100))
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  auto& network = rt->network();
  const auto clients = rt->host("clients");
  const auto lb = rt->connector("lb");

  rt->adl_rules()->set_firing_observer(
      [](util::Symbol rule, const reconfig::ReconfigReport& report) {
        std::printf("[t=%.1fs] RAML rule %s migrates w0 rack0 -> rack1: %s\n",
                    util::to_seconds(report.started_at), rule.str().c_str(),
                    reconfig::to_string(report.verdict));
      });
  meta::Raml& raml = rt->raml();
  raml.start();
  // The periodic MAPE tick would keep the event loop alive forever; end
  // the management session with the workload.
  loop.schedule_at(util::seconds(10), [&] { raml.stop(); });

  // Client load.
  util::Rng rng(3);
  util::Histogram latencies;
  std::function<void()> pump = [&] {
    if (loop.now() > util::seconds(10)) return;
    app.invoke_async(lb, "crunch", util::Value::object({{"n", 21}}),
                     clients,
                     [&](util::Result<util::Value> r, util::Duration l) {
                       if (r.ok()) latencies.add(static_cast<double>(l));
                     });
    loop.schedule_after(rng.poisson_gap(1500), pump);
  };
  loop.schedule_after(0, pump);

  // Fault: rack0 loses most of its capacity at t=3s (e.g. co-located
  // tenant) — the paper's "fluctuation of available resources".
  loop.schedule_at(util::seconds(3), [&] {
    std::printf("[t=3.0s] rack0 capacity drops 6000 -> 800\n");
    network.node(rt->host("rack0")).set_capacity(800);
  });

  rt->run();

  std::printf("\nserved %zu calls: mean %.0f us, p99 %.0f us\n",
              latencies.count(), latencies.mean(), latencies.p99());
  for (const char* replica : {"w0", "w1", "w2"}) {
    std::printf("replica %s ended on %s\n", replica,
                network.node(app.placement(rt->component(replica)))
                    .name()
                    .c_str());
  }
  return 0;
}
