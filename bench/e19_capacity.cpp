// E19 — Million-user capacity envelope.
//
// Claim (ROADMAP item 3): the sharded runtime sustains a million-user
// telecom campaign, and the capacity wall at that scale is *memory*, not
// CPU — so the envelope is reported as (max sustainable users per QoS
// tier) x (per-user steady-state RSS).
//
// Three measurements, all driven by the seeded scenario generator
// (src/scenario) so 1-shard and N-shard runs admit byte-identical user
// populations:
//
//   1. Determinism cross-check: a small campaign partitioned across 1 and
//      N shards must admit identical per-tier session counts.
//   2. Per-tier capacity search: exponential probe + bisection on the
//      concurrent population until the tier's QoS bound (frame p99 +
//      failure ratio) breaks.  Premium saturates the cores; best-effort is
//      searched up to the headline population and reported as a floor.
//   3. RSS ladder: increasing best-effort populations, peak_rss_kb after
//      each rung; the slope of the last two rungs is the marginal memory
//      cost per admitted user.
//
// Exit-code assertions:
//   * the headline rung (1e6 admitted users on 8 shards, best-effort)
//     stays inside its QoS bound;
//   * bytes/user from the RSS ladder stays within the embedded budget —
//     the budget is HALF the pre-overhaul footprint recorded below, so the
//     memory overhaul can never silently regress away;
//   * every tier reports a non-zero sustainable population;
//   * 1-shard vs N-shard determinism holds;
//   * the 1-shard determinism campaign makes at most kMaxAllocsPerFrame
//     heap allocations per settled frame after its arrival ramp.
//
// Metrics note: the global obs registry stays DISABLED during the measured
// rungs (e15 precedent) and per-shard trace rings are sized down — at 1e6
// users observability must cost O(1), which is itself part of the claim.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "api/sharded_runtime.h"
#include "common.h"
#include "scenario/driver.h"
#include "telecom/media.h"

namespace {

using aars::ShardedRuntime;
using aars::bench::fmt;
using aars::bench::Table;
using aars::scenario::Campaign;
using aars::scenario::CampaignDriver;
using aars::scenario::CampaignSpec;
using aars::scenario::kTierCount;
using aars::scenario::QosTier;
using aars::scenario::standard_tiers;
using aars::scenario::Tier;
using aars::util::Duration;
using aars::util::SimTime;

// --- the memory budget -----------------------------------------------------
// Pre-overhaul marginal footprint, measured by this bench's RSS ladder at
// the 0.5M->1M rung (full mode, 8 shards) BEFORE the session/channel memory
// overhaul landed: std::map<SessionId, Session> node per session (~80 B), a
// pending per-session frame event in the loop, an unbounded string-keyed
// per-session ValueMap entry in MediaServer (~110 B) and driver bookkeeping:
constexpr double kPreOverhaulBytesPerUser = 238.6;
// The overhaul must at least halve that, and may never regress past it:
constexpr double kBudgetBytesPerUser = kPreOverhaulBytesPerUser / 2.0;

constexpr std::uint64_t kSeed = 42;

// Steady-state frame path budget: the args map (2 allocations: the node
// and its entry array) and the MediaServer reply map (2) remain per frame;
// the response callback fits std::function's local buffer (0).  4.5, not 5,
// so one extra allocation per frame fails the gate.
constexpr double kMaxAllocsPerFrame = 4.5;

// Events executed by every rung's loops, for the perf section.
std::uint64_t g_events_executed = 0;

struct TierOutcome {
  std::uint64_t admitted = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_failed = 0;
  aars::util::Duration p99 = 0;
  double fail_ratio = 0.0;
  bool sustainable = false;
};

struct RunResult {
  std::uint64_t admitted = 0;
  std::array<TierOutcome, kTierCount> tiers;
  double wall_seconds = 0.0;
  long rss_kb = 0;
  double allocs_per_frame = 0.0;  // 1-shard rungs only
};

std::uint64_t frames_settled(
    const std::vector<std::unique_ptr<CampaignDriver>>& drivers) {
  std::uint64_t frames = 0;
  for (const auto& driver : drivers) {
    for (std::size_t k = 0; k < kTierCount; ++k) {
      const auto& stats = driver->tier_stats(static_cast<Tier>(k));
      frames += stats.frames_ok + stats.frames_failed;
    }
  }
  return frames;
}

/// Runs one campaign rung: `target` concurrent users of a single tier (or
/// the canned mix when tier < 0), split across `shards` drivers.
RunResult run_rung(std::size_t shards, int tier, std::uint64_t target,
                   Duration duration) {
  aars::sim::LinkSpec fabric;
  fabric.latency = aars::util::milliseconds(1);
  aars::sim::LinkSpec edge_link;
  edge_link.latency = aars::util::milliseconds(1);

  auto builder = ShardedRuntime::builder()
                     .with_shards(shards)
                     .seed(kSeed)
                     // Footprint knobs under test: bounded per-channel hold
                     // buffer + dedup-audit span, and a small trace ring —
                     // channel and observability state must stay O(bound),
                     // not O(users), at the million-user rung.
                     .channel_limits(256, 512)
                     .trace_ring(512)
                     .cross_shard_link(fabric)
                     .mailbox_capacity(4096)
                     .component_type("MediaServer", [](const std::string& n) {
                       return std::make_unique<aars::telecom::MediaServer>(n);
                     });
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    builder.host("core-" + tag, 200000, s)
        .host("edge-a-" + tag, 200000, s)
        .host("edge-b-" + tag, 200000, s)
        .link("edge-a-" + tag, "core-" + tag, edge_link)
        .link("edge-b-" + tag, "core-" + tag, edge_link)
        .deploy("MediaServer", "srv-" + tag, "core-" + tag);
    aars::connector::ConnectorSpec spec;
    spec.name = "media-" + tag;
    spec.queue_capacity = 256;
    builder.connect(spec, {"srv-" + tag});
  }
  auto built = builder.build();
  if (!built.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 built.error().message().c_str());
    std::exit(2);
  }
  auto owned = std::move(built).value();
  ShardedRuntime& world = *owned;

  CampaignSpec spec;
  spec.name = "capacity";
  spec.duration = duration;
  // Sessions span the whole rung: the replenishment tail stays small, so
  // admitted ~ 1.08x target and the concurrent population ~ target.
  spec.mean_session = duration * 10;
  spec.cells = 2;
  spec.baseline(static_cast<double>(target), aars::util::milliseconds(200));
  if (tier >= 0) {
    spec.tier_weights = {0, 0, 0};
    spec.tier_weights[static_cast<std::size_t>(tier)] = 1.0;
  } else {
    spec.tier_mix(0.1, 0.3, 0.6);
  }
  Campaign campaign(spec, kSeed);

  std::vector<std::unique_ptr<CampaignDriver>> drivers;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    CampaignDriver::Options options;
    options.service = world.shard(s).connector("media-" + tag);
    options.cells = {world.shard(s).host("edge-a-" + tag),
                     world.shard(s).host("edge-b-" + tag)};
    options.stride = shards;
    options.offset = s;
    // Wheel-mode frame scheduling: one pending loop event per 100ms bucket
    // per tier instead of one per session (the driver caps the quantum at
    // each tier's frame gap, so premium still fires every frame).
    options.frame_quantum = aars::util::milliseconds(100);
    drivers.push_back(std::make_unique<CampaignDriver>(
        world.shard(s).app(), campaign, std::move(options)));
    drivers.back()->start();
  }

  RunResult result;
  const auto start = std::chrono::steady_clock::now();
  if (shards == 1) {
    // The calling thread runs the only shard, so its allocation count is
    // the shard's.  Count from the second half of the rung, after the
    // 200 ms arrival ramp has filled the pools and the route table.
    world.run_until(duration / 2);
    const std::uint64_t allocs_before = aars::bench::alloc_count();
    const std::uint64_t frames_before = frames_settled(drivers);
    world.run();
    const std::uint64_t frames = frames_settled(drivers) - frames_before;
    result.allocs_per_frame =
        frames == 0 ? 0.0
                    : static_cast<double>(aars::bench::alloc_count() -
                                          allocs_before) /
                          static_cast<double>(frames);
  } else {
    world.run();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  g_events_executed += world.shards().executed();

  const auto& tiers = standard_tiers();
  for (auto& driver : drivers) {
    result.admitted += driver->arrivals();
    for (std::size_t k = 0; k < kTierCount; ++k) {
      const auto& stats = driver->tier_stats(static_cast<Tier>(k));
      TierOutcome& out = result.tiers[k];
      out.admitted += stats.started;
      out.frames_ok += stats.frames_ok;
      out.frames_failed += stats.frames_failed;
      out.p99 = std::max(out.p99, stats.latency.quantile(0.99));
    }
  }
  for (std::size_t k = 0; k < kTierCount; ++k) {
    TierOutcome& out = result.tiers[k];
    const std::uint64_t frames = out.frames_ok + out.frames_failed;
    out.fail_ratio = frames == 0 ? 1.0
                                 : static_cast<double>(out.frames_failed) /
                                       static_cast<double>(frames);
    out.sustainable = frames > 0 && out.fail_ratio <= tiers[k].max_failure &&
                      out.p99 <= tiers[k].p99_bound;
  }
  result.rss_kb = aars::bench::peak_rss_kb();
  return result;
}

struct TierCapacity {
  std::uint64_t max_sustainable = 0;
  bool hit_cap = false;  // sustained at the search cap (reported as floor)
  aars::util::Duration p99_at_max = 0;
  double fail_ratio_at_max = 0.0;
};

/// Exponential probe + bisection on the concurrent population of a
/// single-tier campaign.  `lo` must be comfortably sustainable.
TierCapacity search_tier(std::size_t shards, int tier, std::uint64_t lo,
                         std::uint64_t cap, Duration duration) {
  TierCapacity result;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  TierOutcome at_good;

  for (std::uint64_t n = lo; n <= cap; n *= 2) {
    const RunResult run = run_rung(shards, tier, n, duration);
    const TierOutcome& out = run.tiers[static_cast<std::size_t>(tier)];
    std::printf("  probe %-12llu -> p99 %6.2fms  fail %5.2f%%  %s\n",
                static_cast<unsigned long long>(n),
                aars::util::to_millis(out.p99), out.fail_ratio * 100.0,
                out.sustainable ? "ok" : "VIOLATED");
    if (out.sustainable) {
      good = n;
      at_good = out;
      if (n == cap || n * 2 > cap) {
        result.hit_cap = (n * 2 > cap);
        break;
      }
    } else {
      bad = n;
      break;
    }
  }
  // Bisect the open interval, two refinement steps.
  for (int step = 0; step < 2 && bad > good && good > 0; ++step) {
    const std::uint64_t mid = good + (bad - good) / 2;
    if (mid == good) break;
    const RunResult run = run_rung(shards, tier, mid, duration);
    const TierOutcome& out = run.tiers[static_cast<std::size_t>(tier)];
    std::printf("  bisect %-11llu -> p99 %6.2fms  fail %5.2f%%  %s\n",
                static_cast<unsigned long long>(mid),
                aars::util::to_millis(out.p99), out.fail_ratio * 100.0,
                out.sustainable ? "ok" : "VIOLATED");
    if (out.sustainable) {
      good = mid;
      at_good = out;
    } else {
      bad = mid;
    }
  }
  result.max_sustainable = good;
  result.p99_at_max = at_good.p99;
  result.fail_ratio_at_max = at_good.fail_ratio;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  aars::bench::banner(
      "E19 — million-user capacity envelope",
      "Seeded scenario campaigns on the sharded runtime: max sustainable "
      "users per QoS tier and the per-user memory footprint.");
  // Registry deliberately NOT enabled during the rungs — see header note.
  aars::bench::perf_clock_start() = std::chrono::steady_clock::now();

  const std::size_t cpus = aars::sim::usable_cpus();
  const std::size_t shards = smoke ? 2 : 8;
  const Duration duration =
      smoke ? aars::util::milliseconds(600) : aars::util::seconds(1);
  // Best-effort streams one frame per 2s (0.5 fps), so rungs that certify
  // the best-effort QoS bound must outlive the frame gap plus the arrival
  // ramp — shorter rungs would retire every session before its first frame.
  const Duration ladder_duration =
      smoke ? aars::util::milliseconds(2600) : aars::util::seconds(3);
  std::printf("usable_cpus=%zu shards=%zu%s\n\n", cpus, shards,
              smoke ? " (smoke mode)" : "");
  bool ok = true;

  // --- 1. determinism: 1 shard vs N shards admit the same population ------
  double allocs_per_frame = 0.0;
  {
    const std::uint64_t n = smoke ? 400 : 2000;
    const RunResult one = run_rung(1, -1, n, aars::util::milliseconds(500));
    const RunResult many =
        run_rung(shards, -1, n, aars::util::milliseconds(500));
    std::printf("determinism: 1-shard admitted=%llu, %zu-shard admitted=%llu\n",
                static_cast<unsigned long long>(one.admitted), shards,
                static_cast<unsigned long long>(many.admitted));
    allocs_per_frame = one.allocs_per_frame;
    std::printf("1-shard steady state: %.2f allocations per frame "
                "(budget %.1f)\n",
                allocs_per_frame, kMaxAllocsPerFrame);
    if (allocs_per_frame == 0.0 || allocs_per_frame > kMaxAllocsPerFrame) {
      std::printf("FAIL: %.2f allocations per frame (want (0, %.1f])\n",
                  allocs_per_frame, kMaxAllocsPerFrame);
      ok = false;
    }
    if (one.admitted != many.admitted) {
      std::printf("FAIL: admitted population differs across shard counts\n");
      ok = false;
    }
    for (std::size_t k = 0; k < kTierCount; ++k) {
      if (one.tiers[k].admitted != many.tiers[k].admitted) {
        std::printf("FAIL: tier %zu admitted %llu vs %llu\n", k,
                    static_cast<unsigned long long>(one.tiers[k].admitted),
                    static_cast<unsigned long long>(many.tiers[k].admitted));
        ok = false;
      }
    }
  }

  const auto& tiers = standard_tiers();
  std::array<TierCapacity, kTierCount> capacity;
  const std::uint64_t headline_target = smoke ? 20000 : 1000000;

  // --- 2. RSS ladder at best-effort ----------------------------------------
  // The ladder runs BEFORE the tier searches: peak RSS is process-monotone,
  // so each rung must set a fresh high-water mark of its own.  Running the
  // searches first would leave a peak that masks the smaller rungs and
  // flattens the marginal slope.
  std::printf("\nbest-effort RSS ladder:\n");
  std::vector<std::uint64_t> ladder;
  if (smoke) {
    ladder = {headline_target / 4, headline_target / 2, headline_target};
  } else {
    ladder = {headline_target / 8, headline_target / 4, headline_target / 2,
              headline_target};
  }
  struct LadderRung {
    std::uint64_t target = 0;
    std::uint64_t admitted = 0;
    long rss_kb = 0;
    double wall_seconds = 0.0;
    bool sustainable = false;
    aars::util::Duration p99 = 0;
    double fail_ratio = 0.0;
  };
  std::vector<LadderRung> rungs;
  for (std::uint64_t target : ladder) {
    const RunResult run = run_rung(shards, 2, target, ladder_duration);
    LadderRung rung;
    rung.target = target;
    rung.admitted = run.admitted;
    rung.rss_kb = run.rss_kb;
    rung.wall_seconds = run.wall_seconds;
    rung.sustainable = run.tiers[2].sustainable;
    rung.p99 = run.tiers[2].p99;
    rung.fail_ratio = run.tiers[2].fail_ratio;
    rungs.push_back(rung);
    std::printf("  %-9llu users -> admitted %-9llu rss %8ld KiB  "
                "p99 %6.2fms  fail %5.2f%%  wall %5.2fs  %s\n",
                static_cast<unsigned long long>(target),
                static_cast<unsigned long long>(run.admitted), run.rss_kb,
                aars::util::to_millis(rung.p99), rung.fail_ratio * 100.0,
                rung.wall_seconds, rung.sustainable ? "ok" : "VIOLATED");
  }
  const LadderRung& top = rungs.back();
  const LadderRung& prev = rungs[rungs.size() - 2];
  const double bytes_per_user =
      top.admitted > prev.admitted
          ? static_cast<double>(top.rss_kb - prev.rss_kb) * 1024.0 /
                static_cast<double>(top.admitted - prev.admitted)
          : 0.0;
  capacity[2].max_sustainable = top.sustainable ? top.admitted : 0;
  capacity[2].hit_cap = top.sustainable;
  capacity[2].p99_at_max = top.p99;
  capacity[2].fail_ratio_at_max = top.fail_ratio;

  // --- 3. per-tier capacity search ----------------------------------------
  {
    const std::uint64_t premium_lo = smoke ? 200 : 2000;
    const std::uint64_t premium_cap = smoke ? 3200 : 64000;
    const std::uint64_t standard_lo = smoke ? 400 : 8000;
    const std::uint64_t standard_cap = smoke ? 6400 : 256000;
    std::printf("\npremium tier search:\n");
    capacity[0] = search_tier(shards, 0, premium_lo, premium_cap, duration);
    std::printf("standard tier search:\n");
    capacity[1] = search_tier(shards, 1, standard_lo, standard_cap, duration);
    // Best-effort is certified at the headline population by the RSS
    // ladder above; it is reported as a floor rather than spending rungs
    // searching past it.
  }

  // --- report ---------------------------------------------------------------
  Table table({"tier", "max users", "floor?", "p99 ms", "fail %"});
  for (std::size_t k = 0; k < kTierCount; ++k) {
    table.add_row({tiers[k].name, std::to_string(capacity[k].max_sustainable),
                   capacity[k].hit_cap ? "yes (cap)" : "no",
                   fmt(aars::util::to_millis(capacity[k].p99_at_max), 2),
                   fmt(capacity[k].fail_ratio_at_max * 100.0, 2)});
  }
  std::printf("\n");
  table.print();
  std::printf("\nmarginal footprint: %.1f bytes/user "
              "(budget %.1f, pre-overhaul %.1f)\n",
              bytes_per_user, kBudgetBytesPerUser, kPreOverhaulBytesPerUser);

  // --- assertions -----------------------------------------------------------
  if (!top.sustainable) {
    std::printf("FAIL: headline rung (%llu admitted, best-effort) violated "
                "its QoS bound\n",
                static_cast<unsigned long long>(top.admitted));
    ok = false;
  }
  if (!smoke && top.admitted < 1000000) {
    std::printf("FAIL: headline rung admitted %llu users (< 1e6)\n",
                static_cast<unsigned long long>(top.admitted));
    ok = false;
  }
  for (std::size_t k = 0; k < kTierCount; ++k) {
    if (capacity[k].max_sustainable == 0) {
      std::printf("FAIL: tier %s reports no sustainable population\n",
                  tiers[k].name);
      ok = false;
    }
  }
  if (bytes_per_user > kBudgetBytesPerUser) {
    std::printf("FAIL: %.1f bytes/user exceeds the %.1f budget "
                "(pre-overhaul footprint was %.1f)\n",
                bytes_per_user, kBudgetBytesPerUser, kPreOverhaulBytesPerUser);
    ok = false;
  }

  // --- JSON ------------------------------------------------------------------
  std::string tiers_json = "[";
  for (std::size_t k = 0; k < kTierCount; ++k) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"tier\": \"%s\", \"max_sustainable\": %llu, "
                  "\"is_floor\": %s, \"p99_us\": %lld, \"fail_ratio\": %.4f}",
                  k ? ", " : "", tiers[k].name,
                  static_cast<unsigned long long>(capacity[k].max_sustainable),
                  capacity[k].hit_cap ? "true" : "false",
                  static_cast<long long>(capacity[k].p99_at_max),
                  capacity[k].fail_ratio_at_max);
    tiers_json += row;
  }
  tiers_json += "]";
  std::string ladder_json = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"target\": %llu, \"admitted\": %llu, "
                  "\"peak_rss_kb\": %ld, \"wall_seconds\": %.3f, "
                  "\"sustainable\": %s}",
                  i ? ", " : "",
                  static_cast<unsigned long long>(rungs[i].target),
                  static_cast<unsigned long long>(rungs[i].admitted),
                  rungs[i].rss_kb, rungs[i].wall_seconds,
                  rungs[i].sustainable ? "true" : "false");
    ladder_json += row;
  }
  ladder_json += "]";
  const std::string extra =
      "\"capacity\": {\"shards\": " + std::to_string(shards) +
      ", \"smoke\": " + (smoke ? std::string("true") : std::string("false")) +
      ", \"headline_admitted\": " + std::to_string(top.admitted) +
      ", \"headline_sustained\": " + (top.sustainable ? "true" : "false") +
      ", \"best_effort_sustained\": " +
      std::to_string(capacity[2].max_sustainable) +
      ", \"bytes_per_user\": " + fmt(bytes_per_user, 1) +
      ", \"budget_bytes_per_user\": " + fmt(kBudgetBytesPerUser, 1) +
      ", \"pre_overhaul_bytes_per_user\": " + fmt(kPreOverhaulBytesPerUser, 1) +
      ", \"allocs_per_frame\": " + fmt(allocs_per_frame, 2) +
      ", \"max_allocs_per_frame\": " + fmt(kMaxAllocsPerFrame, 1) +
      ", \"tiers\": " + tiers_json + ", \"rss_ladder\": " + ladder_json + "}";
  aars::obs::Registry::global().set_enabled(true);
  aars::bench::write_metrics_json("e19_capacity", extra, g_events_executed);

  std::printf("\nE19 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
