// E15 — Sharded multi-core scaling.
//
// Claim (ROADMAP "multi-core execution"): partitioning the simulated world
// into N shards, run on min(N, usable CPUs) runner threads with
// conservative time windows and lock-free cross-shard mailboxes, turns the
// single-threaded event loop into an aggregate-throughput engine — without
// giving up determinism (the 1-shard digest parity test) or cross-shard
// lossless delivery.
//
// The ladder runs the same per-shard workload at 1/2/4/8 shards: each
// shard serves a closed loop of local echo calls with a fixed fraction of
// cross-shard calls through the fabric.  Reported per rung: runners, wall
// seconds, executed events, aggregate events/sec, windows, cross-shard
// deliveries and mailbox overflows.
//
// Exit-code assertions (scaling calibrated to the CPUs the process may
// use, sim::usable_cpus(), which honours taskset and cpusets):
//   * every rung completes its calls and loses no cross-shard message;
//   * 1 shard executes with zero windows (the no-thread fast path);
//   * aggregate throughput at 8 shards >= 4x the 1-shard rung when >= 8
//     CPUs are usable; proportionally less below that; with one usable CPU
//     only a sanity floor applies (sharding overhead must not crater
//     throughput).
//
// Metrics note: the global obs registry stays DISABLED during the measured
// rungs (gauge/counter writes from N runners would serialize on the shared
// cache lines and distort scaling); it is re-enabled only for the final
// BENCH_e15_sharded.json dump.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "api/sharded_runtime.h"
#include "common.h"
#include "testing_components.h"

namespace {

using aars::ShardedRuntime;
using aars::bench::fmt;
using aars::bench::Table;
using aars::util::Value;

constexpr aars::util::Duration kSpan = aars::util::milliseconds(200);
constexpr int kPumpsPerShard = 16;  // closed-loop clients per shard
// Every Nth call crosses the fabric.  Each cross call stalls its pump for a
// full fabric round trip (2x lookahead), so this fraction trades cross-shard
// pressure against per-window compute density — 1/64 keeps shards busy
// enough between barriers for the parallel speedup to be observable while
// still pushing thousands of mailbox messages per rung.
constexpr int kCrossEvery = 64;

struct Rung {
  std::size_t shards = 0;
  std::size_t runners = 0;
  double wall_seconds = 0.0;
  std::size_t executed = 0;
  double events_per_sec = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t cross_delivered = 0;
  std::uint64_t mailbox_overflows = 0;
  std::size_t completed_calls = 0;
  std::size_t failed_calls = 0;
};

Rung run_rung(std::size_t shards) {
  aars::sim::LinkSpec fabric;
  fabric.latency = aars::util::milliseconds(1);

  auto builder = ShardedRuntime::builder()
                     .with_shards(shards)
                     .seed(42)
                     .cross_shard_link(fabric)
                     .mailbox_capacity(4096)
                     .component_class<aars::bench_testing::EchoServer>(
                         "EchoServer");
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    builder.host("host-" + tag, 100000, s)
        .deploy("EchoServer", "srv-" + tag, "host-" + tag);
    aars::connector::ConnectorSpec spec;
    spec.name = "svc-" + tag;
    builder.connect(spec, {"srv-" + tag});
  }
  auto srt = builder.build().value();
  ShardedRuntime& world = *srt;

  // Per-shard tallies, each written only by its own shard's code.
  std::vector<std::size_t> completed(shards, 0);
  std::vector<std::size_t> failed(shards, 0);

  // Closed-loop pumps: each completion immediately issues the next call
  // until the simulated span runs out.  Pump k on shard s sends every
  // kCrossEvery-th call to the next shard's connector; everything else is
  // local.  All state is per-shard, touched only from that shard's code.
  struct Pump {
    std::size_t shard = 0;
    std::size_t serial = 0;
  };
  std::vector<std::unique_ptr<Pump>> pumps;
  std::function<void(Pump*)> fire = [&](Pump* pump) {
    const std::size_t s = pump->shard;
    if (world.shard(s).loop().now() >= kSpan) return;
    const bool cross =
        shards > 1 && pump->serial % kCrossEvery == kCrossEvery - 1;
    const std::size_t target = cross ? (s + 1) % shards : s;
    ++pump->serial;
    world.call(s, "svc-" + std::to_string(target), "ping", Value{},
               [&, pump, s](aars::util::Result<Value> result,
                            aars::util::Duration) {
                 ++(result.ok() ? completed : failed)[s];
                 fire(pump);
               });
  };
  for (std::size_t s = 0; s < shards; ++s) {
    for (int k = 0; k < kPumpsPerShard; ++k) {
      pumps.push_back(std::make_unique<Pump>(Pump{s, 0}));
      Pump* pump = pumps.back().get();
      world.shard(s).loop().schedule_at(k, [&fire, pump] { fire(pump); });
    }
  }

  const std::size_t executed_before = world.shards().executed();
  const auto start = std::chrono::steady_clock::now();
  world.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Rung rung;
  rung.shards = shards;
  rung.runners = world.shards().runners();
  rung.wall_seconds = wall;
  rung.executed = world.shards().executed() - executed_before;
  rung.events_per_sec =
      wall > 0 ? static_cast<double>(rung.executed) / wall : 0.0;
  rung.windows = world.shards().windows();
  rung.cross_delivered = world.shards().cross_shard_delivered();
  rung.mailbox_overflows = world.shards().mailbox_overflows();
  for (std::size_t s = 0; s < shards; ++s) {
    rung.completed_calls += completed[s];
    rung.failed_calls += failed[s];
  }
  return rung;
}

/// The scaling bar the 8-shard rung must clear, derived from the CPUs the
/// process may use: 4x with >= 8 (the headline claim), half of them with
/// 2..7, and a 0.2x sanity floor with one, where every rung runs on the
/// calling thread alone.
double required_speedup(std::size_t cpus, std::size_t shards) {
  const auto cores = static_cast<double>(cpus);
  if (cores >= static_cast<double>(shards)) {
    return static_cast<double>(shards) / 2.0;
  }
  if (cores >= 2.0) return cores / 2.0;
  return 0.2;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: single 4-shard rung, correctness assertions only (lossless
  // cross-shard delivery, no failed calls).  This is the TSan CI mode —
  // the sanitizer's slowdown makes wall-clock speedup meaningless, but the
  // runner threads, mailboxes and barriers still get a full workout.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  aars::bench::banner(
      "E15 — sharded multi-core scaling",
      "N shards on min(N, usable CPUs) runner threads, conservative "
      "windows, lock-free mailboxes: aggregate event throughput vs shard "
      "count.");
  // Registry deliberately NOT enabled during measurement — see header note.
  aars::bench::perf_clock_start() = std::chrono::steady_clock::now();

  const std::size_t cpus = aars::sim::usable_cpus();
  std::printf("usable_cpus=%zu%s\n\n", cpus,
              smoke ? " (smoke mode: 4-shard rung, correctness only)" : "");

  const std::vector<std::size_t> ladder =
      smoke ? std::vector<std::size_t>{4} : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<Rung> rungs;
  for (std::size_t shards : ladder) rungs.push_back(run_rung(shards));

  Table table({"shards", "runners", "wall_s", "events", "agg events/s",
               "speedup", "windows", "cross", "overflows", "calls",
               "failed"});
  const double base = rungs.front().events_per_sec;
  std::string ladder_json = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    const double speedup = base > 0 ? r.events_per_sec / base : 0.0;
    table.add_row({std::to_string(r.shards), std::to_string(r.runners),
                   fmt(r.wall_seconds, 3), std::to_string(r.executed),
                   fmt(r.events_per_sec, 0), fmt(speedup, 2),
                   std::to_string(r.windows),
                   std::to_string(r.cross_delivered),
                   std::to_string(r.mailbox_overflows),
                   std::to_string(r.completed_calls),
                   std::to_string(r.failed_calls)});
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s{\"shards\": %zu, \"runners\": %zu, \"wall_seconds\": %.6f, "
        "\"executed\": %zu, \"events_per_sec\": %.1f, "
        "\"speedup_vs_1\": %.3f, \"windows\": %llu, "
        "\"cross_delivered\": %llu, \"mailbox_overflows\": %llu, "
        "\"completed_calls\": %zu, \"failed_calls\": %zu}",
        i ? ", " : "", r.shards, r.runners, r.wall_seconds, r.executed,
        r.events_per_sec, speedup, static_cast<unsigned long long>(r.windows),
        static_cast<unsigned long long>(r.cross_delivered),
        static_cast<unsigned long long>(r.mailbox_overflows),
        r.completed_calls, r.failed_calls);
    ladder_json += row;
  }
  ladder_json += "]";
  table.print();

  const Rung& top = rungs.back();
  const double speedup = base > 0 ? top.events_per_sec / base : 0.0;
  const double required = required_speedup(cpus, top.shards);
  std::printf("\n8-shard aggregate speedup: %.2fx (required on this "
              "machine: %.2fx)\n", speedup, required);

  bool ok = true;
  for (const Rung& r : rungs) {
    if (r.failed_calls != 0 || r.completed_calls == 0) {
      std::printf("FAIL: %zu-shard rung completed=%zu failed=%zu\n", r.shards,
                  r.completed_calls, r.failed_calls);
      ok = false;
    }
    if (r.shards == 1 && r.windows != 0) {
      std::printf("FAIL: 1-shard rung took the windowed path "
                  "(windows=%llu)\n",
                  static_cast<unsigned long long>(r.windows));
      ok = false;
    }
    if (r.shards > 1 && r.cross_delivered == 0) {
      std::printf("FAIL: %zu-shard rung delivered no cross-shard traffic\n",
                  r.shards);
      ok = false;
    }
  }
  if (!smoke && speedup < required) {
    std::printf("FAIL: 8-shard speedup %.2fx < required %.2fx\n", speedup,
                required);
    ok = false;
  }

  std::uint64_t events = 0;
  for (const Rung& r : rungs) events += r.executed;
  const std::string extra =
      "\"sharded\": {\"usable_cpus\": " + std::to_string(cpus) +
      ", \"ladder\": " + ladder_json +
      ", \"speedup_8v1\": " + fmt(speedup, 3) +
      ", \"required_speedup\": " + fmt(required, 3) + "}";
  aars::obs::Registry::global().set_enabled(true);
  aars::bench::write_metrics_json("e15_sharded", extra, events);

  std::printf("\nE15 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
