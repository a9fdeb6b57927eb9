// E14 — Hot-path throughput baseline.
//
// Claim (§3): "a connector is a light-weight component which functions as a
// glue of components and induces a low overload."  This experiment turns
// that claim into a defended number: wall-clock relayed messages/sec and
// events/sec for sync and queued delivery at 0/2/8 interceptors, plus heap
// allocations per relayed message measured by a counting global allocator.
//
// A second event-loop row runs 1,700 timers with delays over 0-20 ms, the
// queue depth of the benchmark's rush_hour campaign.
//
// The steady-state sync relay path must add ZERO heap allocations over a
// direct handler call, the queued relay whose origin is one link from the
// server must make none per message, and the deep event loop none per
// event (exit code asserts all three): the slab-pooled event loop,
// copy-on-write Value trees, interned operation names, the pooled message
// path and the network's route table exist precisely so that interposing a
// connector costs no allocation.  The "pre_overhaul" block records the
// measurement taken on the tree immediately before the overhaul (same
// harness, same host class) so BENCH_e14_throughput.json always carries
// both numbers; CI separately defends the committed
// bench/baselines/e14.json against >20% regressions.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "adapt/filters.h"
#include "alloc_counter.h"
#include "common.h"
#include "testing_components.h"

namespace aars::bench {
namespace {

using aars::bench_testing::EchoServer;
using util::Value;

// Interned once: steady-state callers hold a Symbol instead of paying the
// intern-table lookup per call.
const util::Symbol kPing{"ping"};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The e1 connector-overhead configuration: one host, one EchoServer, one
// direct sync connector, N TagFilter interceptors.  A second host, `edge`,
// sits one link from the server: the origin of the cross-link probe.
struct Setup {
  std::unique_ptr<Runtime> rt;
  util::ComponentId server;
  util::ConnectorId connector;
  util::NodeId node;
  util::NodeId edge;

  explicit Setup(std::size_t interceptors) {
    connector::ConnectorSpec spec;
    spec.name = "c";
    rt = Runtime::builder()
             .host("n", 1e9)
             .host("edge", 1e9)
             .link("edge", "n", sim::LinkSpec{})
             .component_class<EchoServer>("EchoServer")
             .deploy("EchoServer", "e", "n")
             .connect(spec, {"e"})
             .build()
             .value();
    node = rt->host("n");
    edge = rt->host("edge");
    server = rt->component("e");
    connector = rt->connector("c");
    connector::Connector* conn = rt->app().find_connector(connector);
    for (std::size_t i = 0; i < interceptors; ++i) {
      auto chain =
          std::make_shared<adapt::FilterChain>("chain" + std::to_string(i));
      (void)chain->attach(std::make_shared<adapt::TagFilter>(
          "tag" + std::to_string(i), "k" + std::to_string(i), Value{1}));
      (void)conn->attach_interceptor(std::move(chain), static_cast<int>(i));
    }
  }
};

struct Measurement {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  double events_per_sec = 0;  // queued / event-loop runs only
  std::uint64_t events = 0;   // executed by the run's loop, warm-up included
};

/// Sync relay: invoke_sync("ping") in a tight loop. `ops` measured after a
/// warmup that populates channels, intern tables and pools.
Measurement measure_sync(std::size_t interceptors, std::uint64_t ops) {
  Setup setup(interceptors);
  auto& app = setup.rt->app();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    (void)app.invoke_sync(setup.connector, kPing, Value{}, setup.node);
  }
  const std::uint64_t allocs_before = alloc_count();
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)app.invoke_sync(setup.connector, kPing, Value{}, setup.node);
  }
  const double wall = now_seconds() - start;
  const std::uint64_t allocs = alloc_count() - allocs_before;
  Measurement m;
  m.ops_per_sec = wall > 0 ? static_cast<double>(ops) / wall : 0;
  m.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  return m;
}

/// Queued relay: batches of invoke_async drained by the event loop.  The
/// measured region covers relay + all simulated deliveries.  With
/// `cross_link` the calls originate on `edge`, so each one routes out and
/// back across the link.
Measurement measure_queued(std::size_t interceptors, std::uint64_t msgs,
                           std::uint64_t batch, bool cross_link = false) {
  Setup setup(interceptors);
  auto& app = setup.rt->app();
  auto& loop = setup.rt->loop();
  const util::NodeId origin = cross_link ? setup.edge : setup.node;
  std::uint64_t completed = 0;
  const auto on_done = [&completed](util::Result<Value>, util::Duration) {
    ++completed;
  };
  // Warmup batch.
  for (std::uint64_t i = 0; i < batch; ++i) {
    app.invoke_async(setup.connector, kPing, Value{}, origin, on_done);
  }
  setup.rt->run();
  completed = 0;
  const std::uint64_t events_before = loop.executed();
  const std::uint64_t allocs_before = alloc_count();
  const double start = now_seconds();
  std::uint64_t sent = 0;
  while (sent < msgs) {
    const std::uint64_t n = std::min(batch, msgs - sent);
    for (std::uint64_t i = 0; i < n; ++i) {
      app.invoke_async(setup.connector, kPing, Value{}, origin, on_done);
    }
    setup.rt->run();
    sent += n;
  }
  const double wall = now_seconds() - start;
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t events = loop.executed() - events_before;
  Measurement m;
  m.ops_per_sec = wall > 0 ? static_cast<double>(completed) / wall : 0;
  m.allocs_per_op =
      static_cast<double>(allocs) / static_cast<double>(msgs);
  m.events_per_sec = wall > 0 ? static_cast<double>(events) / wall : 0;
  m.events = loop.executed();
  return m;
}

/// Times `loop.run(events)` on a loop its caller has warmed up.
Measurement time_run(sim::EventLoop& loop, std::uint64_t events) {
  const std::uint64_t allocs_before = alloc_count();
  const double start = now_seconds();
  const std::size_t ran = loop.run(events);
  const double wall = now_seconds() - start;
  const std::uint64_t allocs = alloc_count() - allocs_before;
  Measurement m;
  m.ops_per_sec = wall > 0 ? static_cast<double>(ran) / wall : 0;
  m.events_per_sec = m.ops_per_sec;
  m.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ran);
  m.events = loop.executed();
  return m;
}

/// Raw event-loop throughput: a ladder of self-rescheduling timers.
Measurement measure_event_loop(std::uint64_t events) {
  sim::EventLoop loop;
  constexpr int kChains = 64;
  std::uint64_t fired = 0;
  // Self-rescheduling tick as a 16-byte functor: stays inline in the event
  // loop's slab (a std::function with reference captures would re-allocate
  // its own heap state every reschedule and measure itself, not the loop).
  struct Tick {
    sim::EventLoop* loop;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      loop->schedule_after(1, Tick{loop, fired});
    }
  };
  for (int i = 0; i < kChains; ++i) {
    loop.schedule_after(1, Tick{&loop, &fired});
  }
  loop.run(10000);  // warmup
  return time_run(loop, events);
}

/// The raw event loop at rush_hour's queue depth: 1,700 self-rescheduling
/// timers, each delay drawn from one fixed xorshift stream over 0-20 ms, so
/// the queue holds about 1,700 entries spread over 20 ms of sim time.
Measurement measure_event_loop_deep(std::uint64_t events) {
  sim::EventLoop loop;
  constexpr int kTimers = 1700;
  std::uint64_t stream = 0x9E3779B97F4A7C15ULL;
  struct Timer {
    sim::EventLoop* loop;
    std::uint64_t* stream;
    void operator()() const {
      std::uint64_t x = *stream;
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      *stream = x;
      loop->schedule_after(static_cast<util::Duration>(x % 20001),
                           Timer{loop, stream});
    }
  };
  for (int i = 0; i < kTimers; ++i) Timer{&loop, &stream}();
  loop.run(100 * kTimers);  // warmup: the slab and the queue reach size
  return time_run(loop, events);
}

/// Allocation probe at 0 interceptors with metrics off: allocations per
/// direct handler call vs per connector-mediated call. The difference is
/// what the relay machinery itself allocates — the overhaul drives it to 0.
struct AllocProbe {
  double direct_per_op = 0;
  double connector_per_op = 0;
  double relay_added_per_op = 0;
};

AllocProbe measure_alloc_probe(std::uint64_t ops) {
  Setup setup(0);
  auto& app = setup.rt->app();
  component::Component* comp = app.find_component(setup.server);
  component::Message probe;
  probe.operation = "ping";
  // Warmup both paths.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    (void)comp->handle(probe);
    (void)app.invoke_sync(setup.connector, kPing, Value{}, setup.node);
  }
  const std::uint64_t direct_before = alloc_count();
  for (std::uint64_t i = 0; i < ops; ++i) (void)comp->handle(probe);
  const std::uint64_t direct = alloc_count() - direct_before;
  // With AARS_E14_TRACE_ALLOCS=1 the first few allocations of the relay
  // loop dump a backtrace to stderr: the tool for finding the relay step
  // that still allocates when the zero-alloc gate fails.
  if (std::getenv("AARS_E14_TRACE_ALLOCS") != nullptr) trace_next_allocs(8);
  const std::uint64_t conn_before = alloc_count();
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)app.invoke_sync(setup.connector, kPing, Value{}, setup.node);
  }
  const std::uint64_t via_conn = alloc_count() - conn_before;
  AllocProbe p;
  p.direct_per_op = static_cast<double>(direct) / static_cast<double>(ops);
  p.connector_per_op =
      static_cast<double>(via_conn) / static_cast<double>(ops);
  p.relay_added_per_op = p.connector_per_op - p.direct_per_op;
  return p;
}

// Pre-overhaul reference, measured with this same harness on the tree at
// commit 294bace (shared_ptr-per-event loop, deep-copy Value, string
// operation names), RelWithDebInfo, same container class.  Units: ops/sec.
struct PreOverhaul {
  double sync0, sync2, sync8;
  double queued0, queued8;
  double event_loop;
  double sync0_allocs_per_op, queued0_allocs_per_msg;
};
constexpr PreOverhaul kPre{
    // Filled from the pre-change measurement run (Release, idle machine,
    // commit 294bace with only this harness added); see EXPERIMENTS.md E14.
    3424633.0, 2293984.0, 1077479.0,  // sync 0/2/8 interceptors
    811280.0, 199125.0,               // queued 0/8 interceptors
    8100295.0,                        // raw event loop events/sec
    2.0, 12.0,                 // allocs per relayed message (sync0/queued0)
};

std::string fmt_json(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", v);
  return buffer;
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars;
  using namespace aars::bench;
  perf_clock_start() = std::chrono::steady_clock::now();
  banner("E14: hot-path throughput baseline",
         "Paper claim (S3): connectors are light-weight glue inducing low "
         "overload. Wall-clock relayed msgs/sec + events/sec, sync and "
         "queued, 0/2/8 interceptors, with allocation counts from a "
         "counting global allocator.");

  // Measure with the registry disabled: the steady-state fast path is the
  // subject; obs cost is measured separately by e1.
  obs::Registry::global().set_enabled(false);

  constexpr std::uint64_t kSyncOps = 400000;
  constexpr std::uint64_t kQueuedMsgs = 100000;
  constexpr std::uint64_t kLoopEvents = 2000000;

  Table table({"path", "interceptors", "ops/sec", "events/sec",
               "allocs/op", "pre ops/sec", "speedup"});
  std::string sync_json = "[";
  std::string queued_json = "[";

  const double pre_sync[] = {kPre.sync0, kPre.sync2, kPre.sync8};
  const std::size_t icpts[] = {0, 2, 8};
  double sync0_ops = 0;
  for (int i = 0; i < 3; ++i) {
    const Measurement m = measure_sync(icpts[i], kSyncOps);
    if (i == 0) sync0_ops = m.ops_per_sec;
    table.add_row({"sync", std::to_string(icpts[i]), fmt(m.ops_per_sec, 0),
                   "-", fmt(m.allocs_per_op, 3), fmt(pre_sync[i], 0),
                   fmt(m.ops_per_sec / pre_sync[i], 2)});
    sync_json += std::string(i ? ", " : "") + "{\"interceptors\": " +
                 std::to_string(icpts[i]) +
                 ", \"ops_per_sec\": " + fmt_json(m.ops_per_sec) +
                 ", \"allocs_per_op\": " + fmt(m.allocs_per_op, 4) + "}";
  }
  sync_json += "]";

  std::uint64_t events = 0;
  const double pre_queued[] = {kPre.queued0, kPre.queued8};
  const std::size_t queued_icpts[] = {0, 8};
  for (int i = 0; i < 2; ++i) {
    const Measurement m = measure_queued(queued_icpts[i], kQueuedMsgs, 2000);
    events += m.events;
    table.add_row({"queued", std::to_string(queued_icpts[i]),
                   fmt(m.ops_per_sec, 0), fmt(m.events_per_sec, 0),
                   fmt(m.allocs_per_op, 3), fmt(pre_queued[i], 0),
                   fmt(m.ops_per_sec / pre_queued[i], 2)});
    queued_json += std::string(i ? ", " : "") + "{\"interceptors\": " +
                   std::to_string(queued_icpts[i]) +
                   ", \"msgs_per_sec\": " + fmt_json(m.ops_per_sec) +
                   ", \"events_per_sec\": " + fmt_json(m.events_per_sec) +
                   ", \"allocs_per_msg\": " + fmt(m.allocs_per_op, 4) + "}";
  }
  queued_json += "]";

  // The relay with its origin one link from the server: the route lookup
  // and the response trip must not allocate either.
  const Measurement cross = measure_queued(0, kQueuedMsgs, 2000, true);
  events += cross.events;
  table.add_row({"queued cross-link", "0", fmt(cross.ops_per_sec, 0),
                 fmt(cross.events_per_sec, 0), fmt(cross.allocs_per_op, 3),
                 "-", "-"});

  const Measurement loop_m = measure_event_loop(kLoopEvents);
  events += loop_m.events;
  table.add_row({"event_loop", "-", fmt(loop_m.events_per_sec, 0),
                 fmt(loop_m.events_per_sec, 0), fmt(loop_m.allocs_per_op, 3),
                 fmt(kPre.event_loop, 0),
                 fmt(loop_m.events_per_sec / kPre.event_loop, 2)});

  const Measurement deep = measure_event_loop_deep(kLoopEvents);
  events += deep.events;
  table.add_row({"event_loop deep", "-", fmt(deep.events_per_sec, 0),
                 fmt(deep.events_per_sec, 0), fmt(deep.allocs_per_op, 3), "-",
                 "-"});

  const AllocProbe probe = measure_alloc_probe(100000);
  table.print();
  std::printf(
      "\nalloc probe (sync, 0 interceptors, metrics off): direct=%.4f "
      "connector=%.4f relay-added=%.4f allocs/op\n",
      probe.direct_per_op, probe.connector_per_op, probe.relay_added_per_op);

  const double speedup_sync0 = sync0_ops / kPre.sync0;
  std::printf("\nsync relay speedup vs pre-overhaul baseline: %.2fx "
              "(target >= 2.5x)\n", speedup_sync0);

  const std::string extra =
      std::string("\"throughput\": {") + "\"sync\": " + sync_json +
      ", \"queued\": " + queued_json +
      ", \"queued_cross_link\": {\"msgs_per_sec\": " +
      fmt_json(cross.ops_per_sec) +
      ", \"events_per_sec\": " + fmt_json(cross.events_per_sec) +
      ", \"allocs_per_msg\": " + fmt(cross.allocs_per_op, 4) + "}" +
      ", \"event_loop\": {\"events_per_sec\": " +
      fmt_json(loop_m.events_per_sec) +
      ", \"allocs_per_event\": " + fmt(loop_m.allocs_per_op, 4) + "}" +
      ", \"event_loop_deep_events_per_sec\": " +
      fmt_json(deep.events_per_sec) +
      ", \"event_loop_deep_allocs_per_event\": " +
      fmt(deep.allocs_per_op, 4) +
      ", \"alloc_probe\": {\"direct_allocs_per_op\": " +
      fmt(probe.direct_per_op, 4) +
      ", \"connector_allocs_per_op\": " + fmt(probe.connector_per_op, 4) +
      ", \"relay_added_allocs_per_op\": " + fmt(probe.relay_added_per_op, 4) +
      "}" + ", \"pre_overhaul\": {\"sync0\": " + fmt_json(kPre.sync0) +
      ", \"sync2\": " + fmt_json(kPre.sync2) +
      ", \"sync8\": " + fmt_json(kPre.sync8) +
      ", \"queued0\": " + fmt_json(kPre.queued0) +
      ", \"queued8\": " + fmt_json(kPre.queued8) +
      ", \"event_loop\": " + fmt_json(kPre.event_loop) +
      ", \"sync0_allocs_per_op\": " + fmt(kPre.sync0_allocs_per_op, 1) +
      ", \"queued0_allocs_per_msg\": " +
      fmt(kPre.queued0_allocs_per_msg, 1) + "}" +
      ", \"speedup_sync0_vs_pre\": " + fmt(speedup_sync0, 3) + "}";

  obs::Registry::global().set_enabled(true);
  write_metrics_json("e14_throughput", extra, events);

  // Exit-code assertions: the relay path adds no allocations at steady
  // state, co-located or across a link, nor does the event loop at
  // rush_hour's depth, and the overhaul's throughput target holds.
  bool ok = true;
  if (probe.relay_added_per_op > 0.01) {
    std::printf("FAIL: relay adds %.4f allocs/op on the sync path "
                "(want 0)\n", probe.relay_added_per_op);
    ok = false;
  }
  if (cross.allocs_per_op > 0.01) {
    std::printf("FAIL: cross-link queued relay makes %.4f allocs/msg "
                "(want 0)\n", cross.allocs_per_op);
    ok = false;
  }
  if (deep.allocs_per_op > 0.01) {
    std::printf("FAIL: the event loop at depth 1,700 makes %.4f "
                "allocs/event (want 0)\n", deep.allocs_per_op);
    ok = false;
  }
  if (speedup_sync0 < 2.5) {
    std::printf("FAIL: sync relay speedup %.2fx < 2.5x target\n",
                speedup_sync0);
    ok = false;
  }
  std::printf("\nE14 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
