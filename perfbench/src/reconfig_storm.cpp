// reconfig_storm: e17's two-host ADL world (a shuffle-migrate rule and a
// host-down failover rule) under seeded storms of host crashes, loss bursts
// and fail-step windows, over consecutive storm seeds.  RAML ticks the
// rules, firings enact as transactions, engine plan verification and the
// install-time explore gate both enforce, the obs registry records, and a
// light ping pump keeps messages held and replayed while components
// quiesce.  An op is one rule firing settled (committed or rolled back).
#include <algorithm>
#include <memory>
#include <string>

#include "analysis/adl_screen.h"
#include "analysis/architecture.h"
#include "analysis/explorer.h"
#include "api/runtime.h"
#include "components.h"
#include "reconfig/rules.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace util = aars::util;
using aars::analysis::VerifyMode;

constexpr const char* kStormWorld = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node edge { capacity 10000; }
node core { capacity 10000; }
link edge <-> core { latency 1ms; bandwidth 100mbps; }
instance server: EchoServer on core;
instance client: EchoClient on edge;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;

when queue_depth(main) >= 0 reconfigure shuffle {
  cooldown 7ms;
  migrate server to edge;
  migrate server to core;
}
when event fault.host_down reconfigure failover {
  cooldown 15ms;
  add standby: EchoServer on edge;
  reroute server to standby;
}
)";

constexpr util::Duration kSlice = util::milliseconds(100);
constexpr util::Duration kPingGap = util::microseconds(400);

/// A seeded storm, as in e17: host crashes landing mid-protocol, loss
/// bursts on the only link and fail-step windows.  Every window closes
/// well before `horizon`, so the final world must verify clean.
aars::fault::FaultScenario make_storm(std::uint64_t seed,
                                      util::Duration horizon) {
  util::Rng rng(seed);
  aars::fault::FaultScenario storm;
  storm.set_name("storm");
  const auto jitter = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<util::Duration>(rng.uniform_int(lo, hi));
  };
  const util::Duration quiet = horizon * 6 / 100;
  const util::Duration ms = util::milliseconds(1);
  for (int i = 0; i < 3; ++i) {
    const util::SimTime at = jitter(10 * ms, horizon - quiet - 30 * ms);
    const char* host = rng.uniform() < 0.5 ? "core" : "edge";
    storm.crash(host, at, jitter(5 * ms, 20 * ms));
  }
  for (int i = 0; i < 2; ++i) {
    const util::SimTime at = jitter(10 * ms, horizon - quiet - 30 * ms);
    storm.loss("edge", "core", at, jitter(5 * ms, 15 * ms),
               rng.uniform(0.1, 0.4));
  }
  for (int i = 0; i < 5; ++i) {
    const util::SimTime at = jitter(10 * ms, horizon - quiet - 40 * ms);
    const int step = static_cast<int>(rng.uniform_int(1, 2));
    storm.fail_step(step, at, jitter(10 * ms, 25 * ms));
  }
  return storm;
}

std::unique_ptr<aars::Runtime> build_storm_world(
    std::uint64_t seed, const aars::fault::FaultScenario* storm) {
  auto builder = aars::Runtime::builder()
                     .component_class<EchoServer>("EchoServer")
                     .component_class<EchoClient>("EchoClient")
                     .seed(seed)
                     .metrics()
                     .with_verification(VerifyMode::kEnforce)
                     .explore_rules(VerifyMode::kEnforce)
                     .adl(kStormWorld);
  if (storm != nullptr) builder.with_faults(*storm);
  auto built = builder.build();
  util::require(built.ok(), "storm world must build");
  return std::move(built).value();
}

class ReconfigStorm final : public Workload {
 public:
  explicit ReconfigStorm(const Context& ctx)
      : ctx_(ctx),
        storms_(ctx.smoke ? 2 : 10),
        horizon_(ctx.smoke ? util::milliseconds(300) : util::seconds(1)) {}

  RefKind step_reference() const override { return RefKind::kCompact; }
  RefKind setup_reference() const override { return RefKind::kSprawling; }
  std::size_t units() const override { return storms_; }

  void precheck() override {
    // Same seed twice -> byte-identical firing sequence.
    std::string first;
    for (int pass = 0; pass < 2; ++pass) {
      Values scratch;
      begin_rep();
      setup(0);
      while (step()) {
      }
      settle(scratch);
      teardown();
      if (pass == 0) first = fingerprint_;
    }
    if (fingerprint_ != first || first.empty()) {
      ctx_.fail("same-seed storm replay produced a different firing "
                "fingerprint");
    }
  }

  void begin_rep() override {
    aars::obs::Registry::global().reset_values();
    fingerprint_.clear();
    settle_ms_.clear();
  }

  void setup(std::size_t unit) override {
    const std::uint64_t storm_seed = ctx_.seed * 1000 + unit;
    const aars::fault::FaultScenario storm = make_storm(storm_seed, horizon_);
    {
      Span span(*ctx_.tracer, "api.build", "api");
      rt_ = build_storm_world(storm_seed, &storm);
    }
    rollback_steps_ = 0;
    rollback_failures_ = 0;
    rt_->adl_rules()->set_firing_observer(
        [this](util::Symbol rule, const aars::reconfig::ReconfigReport& r) {
          on_firing(rule, r);
        });
    conn_ = rt_->connector("main");
    origin_ = rt_->host("edge");
    rt_->loop().schedule_after(kPingGap, [this] { ping(); });
    rt_->raml().start();
  }

  bool step() override {
    aars::sim::EventLoop& loop = rt_->loop();
    const bool more = loop.now() < horizon_;
    {
      Span span(*ctx_.tracer, more ? "sim.run_until" : "sim.drain", "sim");
      if (more) {
        loop.run_until(std::min<util::SimTime>(loop.now() + kSlice, horizon_));
      } else {
        rt_->raml().stop();
        loop.run();
      }
    }
    if (ctx_.tracer->keep_spans) {
      const auto& stats = rt_->adl_rules()->stats();
      ctx_.tracer->counter(
          "storm", {{"events", static_cast<double>(loop.executed())},
                    {"fired", static_cast<double>(stats.fired)},
                    {"committed", static_cast<double>(stats.committed)},
                    {"rolled_back", static_cast<double>(stats.rolled_back)}});
    }
    return more;
  }

  void settle(Values& rep) override {
    aars::runtime::Application& app = rt_->app();
    const aars::reconfig::RuleSet::Stats& stats = rt_->adl_rules()->stats();
    const std::uint64_t settled = stats.committed + stats.rolled_back;
    std::uint64_t held = 0;
    for (const util::ComponentId id : app.component_ids()) {
      held += app.held_to(id);
    }
    const std::size_t final_errors =
        aars::analysis::verify_architecture(aars::analysis::model_from(app))
            .errors();
    if (stats.fired != settled) ctx_.fail("a rule firing never settled");
    if (rollback_failures_ != 0) ctx_.fail("a rollback failed");
    if (final_errors != 0) ctx_.fail("post-storm world is not verifier-clean");
    if (held != 0) ctx_.fail("held messages leaked after the storm");

    const auto d = [](auto v) { return static_cast<double>(v); };
    rep["ops"] += d(settled);
    rep["failed"] += d(stats.fired - settled + rollback_failures_ + held);
    rep["sim.events"] += d(rt_->loop().executed());
    rep["reconfig.evaluations"] += d(stats.evaluations);
    rep["reconfig.fired"] += d(stats.fired);
    rep["reconfig.committed"] += d(stats.committed);
    rep["reconfig.rolled_back"] += d(stats.rolled_back);
    rep["reconfig.suppressed"] += d(stats.suppressed);
    rep["reconfig.rollback_steps"] += d(rollback_steps_);
    rep["reconfig.verify_rejected"] += d(rt_->engine().verify_rejected());
    rep["meta.ticks"] += d(rt_->raml().ticks());
    rep["meta.actions"] += d(rt_->raml().actions_taken());
    rep["fault.injected"] += d(rt_->faults().injected());
    rep["fault.dropped"] += d(rt_->faults().dropped_during_faults());
    rep["runtime.calls"] += d(app.total_calls());
    rep["runtime.failed_calls"] += d(app.failed_calls());
    rep["runtime.timed_out"] += d(app.calls_timed_out());
    std::uint64_t relayed = 0, handled = 0, overflows = 0;
    std::size_t held_peak = 0;
    for (const util::ConnectorId id : app.connector_ids()) {
      relayed += app.find_connector(id)->relayed();
    }
    for (const util::ComponentId id : app.component_ids()) {
      handled += app.find_component(id)->handled_count();
      overflows += app.hold_overflows_to(id);
      for (const auto* channel : app.channels_to(id)) {
        held_peak = std::max(held_peak, channel->held_peak());
      }
    }
    rep["connector.relayed"] += d(relayed);
    rep["component.handled"] += d(handled);
    rep["runtime.channel_hold_overflows"] += d(overflows);
    rep["runtime.channel_held_peak"] =
        std::max(rep["runtime.channel_held_peak"], d(held_peak));
    // Ratios and whole-repetition figures: recomputed after every storm,
    // final after the last.
    rep["sim.events_per_op"] =
        rep["ops"] == 0 ? 0.0 : rep["sim.events"] / rep["ops"];
    rep["connector.relayed_per_op"] =
        rep["ops"] == 0 ? 0.0 : rep["connector.relayed"] / rep["ops"];
    rep["reconfig.settle_sim_ms_p99"] = quantile(settle_ms_, 0.99);
    rep["reconfig.fingerprint"] = d(fnv1a(fingerprint_) >> 11);
    const aars::obs::Registry& obs = aars::obs::Registry::global();
    std::uint64_t samples = 0;
    for (const auto& [key, histogram] : obs.histograms()) {
      samples += histogram->count();
    }
    rep["obs.series"] = d(obs.counters().size() + obs.gauges().size() +
                          obs.histograms().size());
    rep["obs.histogram_samples"] = d(samples);
    rep["obs.trace_recorded"] = d(obs.trace_buffer().recorded());
  }

  void teardown() override { rt_.reset(); }

  /// Times the set-up stages on their own: the ADL compile, the rule
  /// install with its enforce-mode explore gate, and the gate's
  /// exploration.
  void probe(Values& rep) override {
    Tracer& tr = *ctx_.tracer;
    aars::adl::CompilationResult compiled;
    {
      Span span(tr, "adl.compile", "adl");
      compiled = aars::analysis::compile_adl(kStormWorld);
    }
    if (!compiled.ok()) {
      ctx_.fail("storm ADL does not compile");
      return;
    }
    auto rt = build_storm_world(ctx_.seed, nullptr);
    aars::reconfig::ExploreGate gate;
    gate.mode = VerifyMode::kEnforce;
    {
      Span span(tr, "reconfig.install", "reconfig");
      auto installed = aars::reconfig::RuleSet::install(
          compiled.program, rt->app(), rt->engine(), &rt->faults(), {}, gate);
      if (!installed.ok()) ctx_.fail("storm rules fail to install");
    }
    aars::analysis::ExplorationResult explored;
    {
      Span span(tr, "analysis.explore", "analysis");
      explored = aars::analysis::explore(aars::analysis::model_from(rt->app()),
                                         compiled.program, gate.options);
    }
    if (!explored.report.ok() || explored.report.truncated) {
      ctx_.fail("storm rules fail the explore gate");
    }
    rep["analysis.configs"] = static_cast<double>(explored.graph.states.size());
    rep["analysis.edges"] = static_cast<double>(explored.graph.edges.size());
    rep["analysis.aborted_firings"] =
        static_cast<double>(explored.aborted_firings);
  }

 private:
  static std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    return h;
  }

  void on_firing(util::Symbol rule, const aars::reconfig::ReconfigReport& r) {
    Span span(*ctx_.tracer, "reconfig.firing", "reconfig");
    if (r.verdict == aars::reconfig::TxnVerdict::kRolledBack) {
      rollback_steps_ += r.rollback_steps;
      rollback_failures_ += r.rollback_failures;
    }
    settle_ms_.push_back(static_cast<double>(r.finished_at - r.started_at) /
                         1000.0);
    const std::string entry = std::string(rule.str()) + ":" +
                              aars::reconfig::to_string(r.verdict) + ":" +
                              std::to_string(r.steps.size()) + ":" +
                              std::to_string(r.rollback_steps) + ";";
    fingerprint_ += entry;
    if (ctx_.tracer->keep_spans) {
      span.set_args("\"firing\":\"" + entry + "\",\"sim_started_us\":" +
                    std::to_string(r.started_at) + ",\"sim_finished_us\":" +
                    std::to_string(r.finished_at));
    }
  }

  void ping() {
    aars::sim::EventLoop& loop = rt_->loop();
    if (loop.now() >= horizon_) return;
    rt_->app().invoke_async(conn_, ping_op_, util::Value{}, origin_,
                            [](util::Result<util::Value>, util::Duration) {});
    loop.schedule_after(kPingGap, [this] { ping(); });
  }

  const Context& ctx_;
  const std::size_t storms_;
  const util::Duration horizon_;
  const util::Symbol ping_op_{"ping"};
  std::unique_ptr<aars::Runtime> rt_;
  util::ConnectorId conn_;
  util::NodeId origin_;
  std::uint64_t rollback_steps_ = 0;
  std::uint64_t rollback_failures_ = 0;
  std::string fingerprint_;
  std::vector<double> settle_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_reconfig_storm(const Context& ctx) {
  return std::make_unique<ReconfigStorm>(ctx);
}

}  // namespace perfbench
