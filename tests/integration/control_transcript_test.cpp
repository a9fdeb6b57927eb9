// Control-path transcript: three small seeded worlds that drive every piece
// of control data the runtime attaches to a message, reduced to a text
// transcript and compared against a committed golden file.
//
//   * failover: a retry + failover + deadline connector over two replicas
//     with a host crash, a loss burst and a latency-degrade window (retry
//     budgets, attempts, backoff, avoid lists with repeated entries,
//     deadlines and their arming);
//   * overload: a priority mix (every class stamped explicitly, kNormal
//     included) through an admission gate and a circuit breaker that
//     opens on slow replies and then probes (breaker rejection, probe and
//     exemption marks);
//   * redirect: an adapt::Injector forcing the target on the queued and the
//     synchronous path, a missing forced target, a per-call work scale and
//     a user header riding beside the control data.
//
// Message sizes are charged as network bandwidth on deliberately slow
// links, so a change in what any of this control data costs on the wire
// moves the recorded latencies.
//
// Regenerating the golden (only when behaviour changes INTENTIONALLY):
//   AARS_UPDATE_GOLDEN=1 ./tests/integration_test --gtest_filter=Control*
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "adapt/injector.h"
#include "api/runtime.h"
#include "fault/policies.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "testing/test_components.h"
#include "util/rng.h"

namespace aars {
namespace {

using component::Priority;
using testing::EchoServer;
using util::Value;

#ifndef AARS_GOLDEN_DIR
#define AARS_GOLDEN_DIR "."
#endif

std::string golden_path() {
  return std::string(AARS_GOLDEN_DIR) + "/control_transcript.txt";
}

void record_calls(runtime::Application& app, std::ostringstream& out) {
  app.add_call_listener([&out](const runtime::CallRecord& record) {
    out << "call at=" << record.completed_at << " lat=" << record.latency
        << " ok=" << record.ok << " op=" << record.operation
        << " provider=" << record.provider.raw() << "\n";
  });
}

runtime::Application::ResponseCallback record_reply(std::ostringstream& out,
                                                    int n) {
  return [&out, n](util::Result<Value> result, util::Duration latency) {
    out << "reply n=" << n << " lat=" << latency << " ok=" << result.ok();
    if (!result.ok()) out << " code=" << to_string(result.error().code());
    out << "\n";
  };
}

void record_counts(const runtime::Application& app, std::ostringstream& out) {
  out << "calls=" << app.total_calls() << " failed=" << app.failed_calls()
      << " retries=" << app.retries_scheduled()
      << " exhausted=" << app.retries_exhausted()
      << " timed_out=" << app.calls_timed_out()
      << " pending_retries=" << app.pending_retries() << "\n";
}

sim::LinkSpec slow_link() {
  sim::LinkSpec link;
  link.latency = util::milliseconds(1);
  link.bandwidth_bytes_per_sec = 2e5;  // 8 bytes cost 40 us
  return link;
}

// Retry, failover and deadline over two replicas (E11's shape).
void failover_world(std::ostringstream& out) {
  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  fault::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base = 500;
  policy.backoff_cap = util::milliseconds(3);
  policy.failover = true;
  policy.timeout = util::milliseconds(20);
  auto rt = Runtime::builder()
                .seed(11)
                .host("client", 50000)
                .host("s0", 10000)
                .host("s1", 10000)
                .link_all(slow_link())
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "r0", "s0")
                .deploy("EchoServer", "r1", "s1")
                .connect(spec, {"r0", "r1"})
                .with_retry("svc", policy)
                .with_fault_text("scenario storm\n"
                                 "at 60ms crash host=s0 for 150ms\n"
                                 "at 100ms loss link=client-s1 p=0.5 "
                                 "for 60ms\n"
                                 "at 260ms degrade link=client-s1 "
                                 "latency=12ms for 60ms\n")
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto client = rt->host("client");
  const auto conn = rt->connector("svc");
  record_calls(app, out);

  util::Rng rng(7);
  int n = 0;
  std::function<void()> pump = [&] {
    if (loop.now() > util::milliseconds(400)) return;
    app.invoke_async(conn, "echo",
                     Value::object({{"text", "m" + std::to_string(n)}}),
                     client, record_reply(out, n));
    ++n;
    loop.schedule_after(rng.poisson_gap(150), pump);
  };
  loop.schedule_after(0, pump);
  rt->run();
  out << "now=" << loop.now() << "\n";
  record_counts(app, out);
}

Priority classify(int i) {
  if (i % 20 == 0) return Priority::kControl;
  if (i % 10 == 5) return Priority::kHigh;
  if (i % 3 == 0) return Priority::kBestEffort;
  return Priority::kNormal;
}

// A priority mix through admission and a breaker (E12's shape).
void overload_world(std::ostringstream& out) {
  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kDirect;
  overload::AdmissionPolicy admission;
  admission.rate_per_sec = 2200.0;
  admission.burst = 30.0;
  admission.reserve_fraction = 0.25;
  admission.queue_high = 16;
  admission.queue_low = 6;
  admission.shed_below = Priority::kHigh;
  // Replies slower than 5 ms count as failures: the rush's queueing opens
  // the breaker, and its probes decide when it closes again.
  overload::BreakerPolicy breaker;
  breaker.min_samples = 6;
  breaker.failure_rate_to_open = 0.5;
  breaker.latency_to_open = util::milliseconds(5);
  breaker.window = util::milliseconds(50);
  breaker.open_cooldown = util::milliseconds(20);
  breaker.half_open_probes = 2;
  auto rt = Runtime::builder()
                .seed(12)
                .host("client", 50000)
                .host("server", 2000)
                .link("client", "server", slow_link())
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "srv", "server")
                .connect(spec, {"srv"})
                .with_admission("svc", admission)
                .with_breaker("svc", breaker)
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto client = rt->host("client");
  const auto conn = rt->connector("svc");
  record_calls(app, out);

  util::Rng rng(5);
  int n = 0;
  std::function<void()> pump = [&] {
    if (loop.now() > util::milliseconds(250)) return;
    const Priority priority = classify(n);
    const bool rush = loop.now() >= util::milliseconds(40) &&
                      loop.now() < util::milliseconds(120);
    app.invoke_async(
        conn, "echo", Value::object({{"text", "x"}}), client,
        record_reply(out, n), component::Control{.priority = priority});
    ++n;
    loop.schedule_after(rng.poisson_gap(rush ? 3000.0 : 800.0), pump);
  };
  loop.schedule_after(0, pump);
  rt->run();
  out << "now=" << loop.now() << "\n";
  record_counts(app, out);
  out << "admission admitted=" << rt->admission("svc")->admitted()
      << " shed=" << rt->admission("svc")->shed_total() << "\n";
  out << "breaker state=" << to_string(rt->breaker("svc")->state())
      << " transitions=" << rt->breaker("svc")->transitions()
      << " short_circuits=" << rt->breaker("svc")->short_circuits() << "\n";
}

// An injector redirect on both invocation paths, plus a per-call work scale
// and a user header beside the control data.
void redirect_world(std::ostringstream& out) {
  connector::ConnectorSpec spec;
  spec.name = "pool";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  auto rt = Runtime::builder()
                .seed(13)
                .host("client", 50000)
                .host("a", 2000)
                .host("b", 2000)
                .link_all(slow_link())
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "pa", "a")
                .deploy("EchoServer", "pb", "b")
                .connect(spec, {"pa", "pb"})
                .build()
                .value();
  auto& app = rt->app();
  const auto client = rt->host("client");
  const auto conn = rt->connector("pool");
  connector::Connector* pool = app.find_connector(conn);
  record_calls(app, out);

  int n = 0;
  // Unredirected round-robin traffic, one call at a work scale.
  app.invoke_async(conn, "echo", Value::object({{"text", "plain"}}), client,
                   record_reply(out, n++));
  app.invoke_async(conn, "echo", Value::object({{"text", "heavy"}}), client,
                   record_reply(out, n++),
                   component::Control{.work_scale = 2.5});
  app.invoke_async(conn, "echo", Value::object({{"text", "unit"}}), client,
                   record_reply(out, n++),
                   component::Control{.work_scale = 1.0});
  rt->run();

  // Redirect everything to pb; the transform adds a user header and, on
  // every other call, a work scale.
  auto injector = std::make_shared<adapt::Injector>("steer");
  bool scale = false;
  injector->redirect_to(rt->component("pb"))
      .transform([&scale](component::Message& m) {
        m.headers["tag"] = std::int64_t{7};
        if (scale) m.control.work_scale = 3.0;
        scale = !scale;
      });
  ASSERT_TRUE(pool->attach_interceptor(injector).ok());
  for (int i = 0; i < 4; ++i) {
    app.invoke_async(conn, "echo", Value::object({{"text", "steered"}}),
                     client, record_reply(out, n++));
  }
  rt->run();
  for (int i = 0; i < 2; ++i) {
    auto sync = app.invoke_sync(conn, "echo",
                                Value::object({{"text", "sync"}}), client);
    out << "sync lat=" << sync.latency << " ok=" << sync.result.ok() << "\n";
  }
  (void)app.send_event(conn, "ping", Value{}, client);
  rt->run();

  // A forced target that does not exist fails the call on both paths.
  ASSERT_TRUE(pool->detach_interceptor("steer").ok());
  auto lost = std::make_shared<adapt::Injector>("lost");
  lost->redirect_to(util::ComponentId{999});
  ASSERT_TRUE(pool->attach_interceptor(lost).ok());
  app.invoke_async(conn, "echo", Value::object({{"text", "lost"}}), client,
                   record_reply(out, n++));
  rt->run();
  auto sync = app.invoke_sync(conn, "echo", Value::object({{"text", "lost"}}),
                              client);
  out << "sync lat=" << sync.latency << " ok=" << sync.result.ok() << "\n";
  out << "now=" << rt->loop().now() << " injected=" << injector->injected()
      << "/" << lost->injected() << "\n";
  record_counts(app, out);
}

std::string run_worlds() {
  std::ostringstream out;
  out << "== failover\n";
  failover_world(out);
  out << "== overload\n";
  overload_world(out);
  out << "== redirect\n";
  redirect_world(out);
  return out.str();
}

TEST(ControlTranscriptTest, TranscriptMatchesGolden) {
  const std::string transcript = run_worlds();
  if (std::getenv("AARS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(golden_path(), std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << golden_path();
    file << transcript;
    GTEST_SKIP() << "golden updated: " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with AARS_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(transcript, golden.str())
      << "control-path transcript diverged from the committed golden";
}

}  // namespace
}  // namespace aars
