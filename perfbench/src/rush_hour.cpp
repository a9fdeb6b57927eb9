// rush_hour and rush_hour_sharded: a seeded telecom campaign (all three QoS
// tiers, a baseline ramp, a flash crowd, a regional failover and handover
// churn) on the e19 world, split over 1 or 2 shards by user-index stride.
// An op is one simulated frame settled; a failed op is a failed frame.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "api/sharded_runtime.h"
#include "components.h"
#include "scenario/driver.h"
#include "telecom/media.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace util = aars::util;
using aars::ShardedRuntime;
using aars::scenario::Campaign;
using aars::scenario::CampaignDriver;
using aars::scenario::CampaignSpec;
using aars::scenario::kTierCount;
using aars::scenario::Tier;

/// Model-load guard: the busiest host's utilisation over any slice must
/// stay below this, or the run measures a growing backlog, not the
/// simulator.  The campaign below peaks near 0.2.
constexpr double kUtilisationCeiling = 0.5;
constexpr double kHostCapacity = 200000.0;  // work units/s, as in e19
constexpr util::Duration kSlice = util::milliseconds(100);
// Cross-shard signalling pump: closed loop, one ping in flight per pump,
// each pump thinking 10ms after every reply.
constexpr int kPumpsPerShard = 4;
constexpr util::Duration kPumpThink = util::milliseconds(10);

CampaignSpec rush_spec(bool smoke) {
  CampaignSpec spec;
  spec.name = "rush_hour";
  spec.cells = 2;
  spec.tier_mix(0.1, 0.3, 0.6);
  const double scale = smoke ? 0.05 : 1.0;
  const double time = smoke ? 0.3 : 1.0;
  const auto ms = [time](double v) {
    return static_cast<util::Duration>(v * time * 1000.0);
  };
  spec.duration = ms(10000);
  spec.mean_session = ms(30000);
  spec.baseline(4000 * scale, ms(1000));
  spec.flash_crowd(ms(4000), 4000 * scale, ms(500), ms(3000));
  spec.regional_failover(1, ms(6000), ms(1500));
  spec.handover(ms(4000));
  return spec;
}

/// The e19 telecom world (per shard: a core host serving frames, two edge
/// cells) plus a ping endpoint per shard for the signalling pump.
std::unique_ptr<ShardedRuntime> build_world(std::size_t shards,
                                            std::uint64_t seed) {
  aars::sim::LinkSpec fabric;
  fabric.latency = util::milliseconds(1);
  aars::sim::LinkSpec edge_link;
  edge_link.latency = util::milliseconds(1);
  auto builder = ShardedRuntime::builder()
                     .with_shards(shards)
                     .seed(seed)
                     .channel_limits(256, 512)
                     .cross_shard_link(fabric)
                     .mailbox_capacity(4096)
                     .component_class<EchoServer>("EchoServer")
                     .component_type("MediaServer", [](const std::string& n) {
                       return std::make_unique<aars::telecom::MediaServer>(n);
                     });
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    builder.host("core-" + tag, kHostCapacity, s)
        .host("edge-a-" + tag, kHostCapacity, s)
        .host("edge-b-" + tag, kHostCapacity, s)
        .link("edge-a-" + tag, "core-" + tag, edge_link)
        .link("edge-b-" + tag, "core-" + tag, edge_link)
        .deploy("MediaServer", "srv-" + tag, "core-" + tag)
        .deploy("EchoServer", "pong-" + tag, "core-" + tag);
    aars::connector::ConnectorSpec media;
    media.name = "media-" + tag;
    media.queue_capacity = 256;
    builder.connect(media, {"srv-" + tag});
    aars::connector::ConnectorSpec sig;
    sig.name = "sig-" + tag;
    builder.connect(sig, {"pong-" + tag});
  }
  auto built = builder.build();
  util::require(built.ok(), "rush world must build");
  return std::move(built).value();
}

struct TierTotals {
  std::array<std::uint64_t, kTierCount> started{};
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_failed = 0;
};

TierTotals tier_totals(
    const std::vector<std::unique_ptr<CampaignDriver>>& drivers) {
  TierTotals out;
  for (const auto& driver : drivers) {
    for (std::size_t k = 0; k < kTierCount; ++k) {
      const auto& stats = driver->tier_stats(static_cast<Tier>(k));
      out.started[k] += stats.started;
      out.frames_ok += stats.frames_ok;
      out.frames_failed += stats.frames_failed;
    }
  }
  return out;
}

std::vector<std::unique_ptr<CampaignDriver>> start_drivers(
    ShardedRuntime& rt, const Campaign& campaign) {
  std::vector<std::unique_ptr<CampaignDriver>> drivers;
  const std::size_t shards = rt.shard_count();
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    CampaignDriver::Options options;
    options.service = rt.shard(s).connector("media-" + tag);
    options.cells = {rt.shard(s).host("edge-a-" + tag),
                     rt.shard(s).host("edge-b-" + tag)};
    options.stride = shards;
    options.offset = s;
    options.frame_quantum = util::milliseconds(100);
    drivers.push_back(std::make_unique<CampaignDriver>(rt.shard(s).app(),
                                                       campaign, options));
    drivers.back()->start();
  }
  return drivers;
}

class RushHour final : public Workload {
 public:
  RushHour(const Context& ctx, std::size_t shards)
      : ctx_(ctx), shards_(shards), spec_(rush_spec(ctx.smoke)) {}

  RefKind step_reference() const override { return RefKind::kSprawling; }
  RefKind setup_reference() const override { return RefKind::kSprawling; }

  void precheck() override {
    // Shard-count independence: the same seeded campaign admits the same
    // per-tier populations on 1 and 2 shards.
    CampaignSpec small = spec_;
    small.duration = spec_.duration / 5;
    small.loads = {};
    small.baseline(ctx_.smoke ? 100 : 600, small.duration / 4);
    small.flash_crowd(small.duration / 2, ctx_.smoke ? 100 : 600,
                      small.duration / 10, small.duration / 4);
    small.regional_failover(1, small.duration * 3 / 5, small.duration / 10);
    small.handover(small.duration / 3);
    const Campaign campaign(small, ctx_.seed);
    std::array<TierTotals, 2> totals;
    for (std::size_t n = 1; n <= 2; ++n) {
      auto rt = build_world(n, ctx_.seed);
      auto drivers = start_drivers(*rt, campaign);
      rt->run();
      totals[n - 1] = tier_totals(drivers);
    }
    if (totals[0].started != totals[1].started) {
      ctx_.fail("1-shard and 2-shard runs admitted different per-tier "
                "populations");
    }
    if (totals[0].started[0] == 0 || totals[0].started[1] == 0 ||
        totals[0].started[2] == 0) {
      ctx_.fail("cross-check campaign left a QoS tier empty");
    }
  }

  void setup(std::size_t) override {
    Tracer& tr = *ctx_.tracer;
    {
      Span span(tr, "api.build", "api");
      rt_ = build_world(shards_, ctx_.seed);
    }
    {
      Span span(tr, "scenario.lower", "scenario");
      campaign_ = std::make_unique<Campaign>(spec_, ctx_.seed);
    }
    {
      Span span(tr, "scenario.start", "scenario");
      drivers_ = start_drivers(*rt_, *campaign_);
      if (shards_ > 1) start_pumps();
    }
    nodes_.clear();
    for (std::size_t s = 0; s < shards_; ++s) {
      aars::sim::Network& net = rt_->shard(s).network();
      for (const util::NodeId id : net.node_ids()) {
        nodes_.push_back({&net.node(id), 0.0});
      }
    }
    pending_peak_ = 0;
    util_peak_ = 0.0;
    probing_ = false;
  }

  bool step() override {
    Tracer& tr = *ctx_.tracer;
    if (tr.on && shards_ > 1 && !probing_) start_window_probe();
    const util::SimTime now = rt_->now();
    const util::SimTime horizon = spec_.duration;
    if (now < horizon) {
      const util::SimTime to = std::min<util::SimTime>(now + kSlice, horizon);
      {
        Span span(tr, "sim.run_until", "sim");
        rt_->run_until(to);
      }
      after_slice(to - now);
      return true;
    }
    {
      Span span(tr, "sim.drain", "sim");
      rt_->run();
    }
    after_slice(0);
    return false;
  }

  void settle(Values& rep) override {
    const TierTotals totals = tier_totals(drivers_);
    const std::uint64_t ops = totals.frames_ok + totals.frames_failed;
    rep["ops"] += static_cast<double>(ops);
    rep["failed"] += static_cast<double>(totals.frames_failed);

    std::uint64_t admitted = 0, handovers = 0, evacuated = 0;
    std::uint64_t attempted = 0, mgr_ok = 0, mgr_failed = 0, slots = 0;
    double p99 = 0.0;
    for (const auto& driver : drivers_) {
      admitted += driver->arrivals();
      handovers += driver->handovers();
      evacuated += driver->evacuated_sessions();
      for (std::size_t k = 0; k < kTierCount; ++k) {
        const auto tier = static_cast<Tier>(k);
        aars::telecom::SessionManager& mgr = driver->sessions(tier);
        attempted += mgr.frames_attempted();
        mgr_ok += mgr.frames_ok();
        mgr_failed += mgr.frames_failed();
        slots += mgr.slot_count();
        p99 = std::max(p99, static_cast<double>(
                                driver->tier_stats(tier).latency.quantile(
                                    0.99)) / 1000.0);
      }
    }
    if (mgr_ok + mgr_failed != attempted) {
      ctx_.fail("frames_ok + frames_failed != frames_attempted");
    }
    if (mgr_ok + mgr_failed != ops) {
      ctx_.fail("session managers and campaign drivers disagree on frames");
    }
    if (util_peak_ > kUtilisationCeiling) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "busiest host utilisation %.3f exceeds the %.2f ceiling",
                    util_peak_, kUtilisationCeiling);
      ctx_.fail(line);
    }

    std::uint64_t relayed = 0, calls = 0, failed_calls = 0, timed_out = 0;
    std::uint64_t hold_overflows = 0, handled = 0, evictions = 0;
    std::size_t held_peak = 0;
    for (std::size_t s = 0; s < shards_; ++s) {
      aars::runtime::Application& app = rt_->shard(s).app();
      calls += app.total_calls();
      failed_calls += app.failed_calls();
      timed_out += app.calls_timed_out();
      for (const util::ConnectorId id : app.connector_ids()) {
        relayed += app.find_connector(id)->relayed();
      }
      for (const util::ComponentId id : app.component_ids()) {
        const auto* component = app.find_component(id);
        handled += component->handled_count();
        hold_overflows += app.hold_overflows_to(id);
        for (const auto* channel : app.channels_to(id)) {
          held_peak = std::max(held_peak, channel->held_peak());
        }
        if (const auto* media =
                dynamic_cast<const aars::telecom::MediaServer*>(component)) {
          evictions += media->session_evictions();
        }
      }
    }
    const double events = static_cast<double>(rt_->shards().executed());
    const double windows = static_cast<double>(rt_->shards().windows());
    const auto d = [](auto v) { return static_cast<double>(v); };
    rep["scenario.admitted"] = d(admitted);
    rep["scenario.handovers"] = d(handovers);
    rep["scenario.evacuated"] = d(evacuated);
    rep["sim.events"] = events;
    rep["sim.events_per_op"] = ops == 0 ? 0.0 : events / d(ops);
    rep["sim.pending_peak"] = d(pending_peak_);
    rep["sim.node_utilisation"] = util_peak_;
    rep["sim.shard.windows"] = windows;
    rep["sim.shard.events_per_window"] = windows == 0 ? 0.0 : events / windows;
    rep["sim.shard.cross_delivered"] = d(rt_->shards().cross_shard_delivered());
    rep["sim.shard.mailbox_overflows"] = d(rt_->shards().mailbox_overflows());
    rep["connector.relayed"] = d(relayed);
    rep["connector.relayed_per_op"] = ops == 0 ? 0.0 : d(relayed) / d(ops);
    rep["runtime.calls"] = d(calls);
    rep["runtime.failed_calls"] = d(failed_calls);
    rep["runtime.timed_out"] = d(timed_out);
    rep["runtime.channel_held_peak"] = d(held_peak);
    rep["runtime.channel_hold_overflows"] = d(hold_overflows);
    rep["component.handled"] = d(handled);
    rep["telecom.frames_attempted"] = d(attempted);
    rep["telecom.frames_failed"] = d(mgr_failed);
    rep["telecom.session_slots"] = d(slots);
    rep["telecom.media_evictions"] = d(evictions);
    rep["telecom.frame_p99_sim_ms"] = p99;
  }

  void teardown() override {
    drivers_.clear();
    campaign_.reset();
    rt_.reset();
  }

 private:
  struct NodeWatch {
    const aars::sim::Node* node;
    double work_before;
  };

  void after_slice(util::Duration span) {
    std::size_t pending = 0;
    for (std::size_t s = 0; s < shards_; ++s) {
      pending += rt_->shard(s).loop().pending();
    }
    pending_peak_ = std::max(pending_peak_, pending);
    for (NodeWatch& watch : nodes_) {
      const double work = watch.node->total_work();
      if (span > 0) {
        const double seconds = static_cast<double>(span) / 1e6;
        util_peak_ = std::max(util_peak_, (work - watch.work_before) /
                                              (watch.node->capacity() * seconds));
      }
      watch.work_before = work;
    }
    Tracer& tr = *ctx_.tracer;
    if (tr.keep_spans) {
      const TierTotals totals = tier_totals(drivers_);
      tr.counter("rush", {{"events", static_cast<double>(
                                         rt_->shards().executed())},
                          {"pending", static_cast<double>(pending)},
                          {"frames", static_cast<double>(totals.frames_ok +
                                                         totals.frames_failed)},
                          {"windows", static_cast<double>(
                                          rt_->shards().windows())}});
    }
  }

  void start_pumps() {
    for (std::size_t s = 0; s < shards_; ++s) {
      for (int k = 0; k < kPumpsPerShard; ++k) {
        rt_->shard(s).loop().schedule_at(util::milliseconds(k),
                                         [this, s] { ping(s); });
      }
    }
  }

  void ping(std::size_t s) {
    if (rt_->shard(s).loop().now() >= spec_.duration) return;
    static const std::array<std::string, 2> kTargets = {"sig-1", "sig-0"};
    rt_->call(s, kTargets[s % 2], "ping", util::Value{},
              [this, s](util::Result<util::Value>, util::Duration) {
                rt_->shard(s).loop().schedule_after(kPumpThink,
                                                    [this, s] { ping(s); });
              });
  }

  /// Times each window from one barrier to the next.  The probe leaves the
  /// barrier list as soon as every shard is idle: a probe that stayed
  /// registered would make the shard set open extra lookahead-sized
  /// windows and change sim.shard.windows.
  void start_window_probe() {
    probing_ = true;
    probe_last_ = wall_s();
    probe_windows_ = rt_->shards().windows();
    rt_->shards().at_barrier([this](util::SimTime) {
      const double now = wall_s();
      const std::uint64_t windows = rt_->shards().windows();
      if (windows == probe_windows_ + 1) {
        ctx_.tracer->complete("sim.shard.window", "sim.shard", probe_last_,
                              now);
      }
      probe_last_ = now;
      probe_windows_ = windows;
      for (std::size_t s = 0; s < shards_; ++s) {
        if (rt_->shard(s).loop().pending() > 0) return true;
      }
      probing_ = false;
      return false;
    });
  }

  const Context& ctx_;
  const std::size_t shards_;
  const CampaignSpec spec_;
  std::unique_ptr<ShardedRuntime> rt_;
  std::unique_ptr<Campaign> campaign_;
  std::vector<std::unique_ptr<CampaignDriver>> drivers_;
  std::vector<NodeWatch> nodes_;
  std::size_t pending_peak_ = 0;
  double util_peak_ = 0.0;
  bool probing_ = false;
  double probe_last_ = 0.0;
  std::uint64_t probe_windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rush_hour(const Context& ctx,
                                         std::size_t shards) {
  return std::make_unique<RushHour>(ctx, shards);
}

}  // namespace perfbench
