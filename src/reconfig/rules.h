// Runtime rule set for ADL-declared `when … reconfigure` rules.
//
// The compiler emits a RuleProgram whose names are interned Symbols;
// install() binds it to a live application exactly once — every instance,
// node and connector name becomes a raw id, every metric source an enum.
// From then on:
//
//   * evaluate(now) — the steady-state path — samples each metric condition
//     through id-indexed lookups (queue depth by ConnectorId, node backlog
//     by NodeId, injector fault count) and advances the sustain/cooldown
//     hysteresis counters.  It performs no string parsing, no hashing and
//     no allocation.
//   * firing enacts the rule's pre-bound action table as one reconfig::Txn:
//     steps run in order, each journals its inverse, and a failed step (or
//     an expired whole-firing deadline) rolls the applied prefix back in
//     reverse, so a half-fired rule never leaves a partial topology behind.
//
// Event-conditioned rules don't poll: meta::Raml subscribes them to its
// FLO/C rule engine and calls fire_event_rule() when the trigger arrives.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adl/ir.h"
#include "analysis/explorer.h"
#include "fault/injector.h"
#include "reconfig/engine.h"
#include "reconfig/txn.h"

namespace aars::reconfig {

/// How RuleSet enacts a firing.
struct TxnPolicy {
  /// Whole-firing deadline applied to rules that don't declare their own
  /// `deadline` property.  0 = unbounded.
  Duration default_deadline = 0;
};

/// Install-time configuration-space exploration gate: before a rule program
/// binds to the live application, the analysis explorer enumerates the
/// configurations its rules can reach from the current deployment and
/// checks the per-state verifier plus any ADL-declared path properties.
/// kEnforce rejects a program whose exploration finds an error; kWarn
/// counts findings (obs "rules.explore_findings") and proceeds.
struct ExploreGate {
  analysis::VerifyMode mode = analysis::VerifyMode::kOff;
  analysis::ExplorerOptions options;
};

class RuleSet : public std::enable_shared_from_this<RuleSet> {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;  // evaluate() calls
    std::uint64_t fired = 0;        // rules whose actions were dispatched
    std::uint64_t actions = 0;      // individual plan steps attempted
    std::uint64_t failed = 0;       // steps (or whole firings) that failed
    std::uint64_t suppressed = 0;   // firings skipped by cooldown/in-flight
    std::uint64_t committed = 0;    // firings whose txn committed
    std::uint64_t rolled_back = 0;  // firings whose txn rolled back
  };

  /// Called after every firing settles (txn committed or rolled back), with
  /// the rule's name and the aggregated report.  Benches and tests hook
  /// this to verify the post-firing configuration.
  using FiringObserver =
      std::function<void(util::Symbol rule, const ReconfigReport& report)>;

  /// Binds `program` to the live application. Fails (kNotFound) when a rule
  /// references a declared name that does not exist in the deployment —
  /// compile-time sema guarantees this never happens for configurations
  /// deployed through the same compile, so a failure here means the program
  /// and the deployment diverged.
  static util::Result<std::shared_ptr<RuleSet>> install(
      const adl::RuleProgram& program, Application& app,
      ReconfigurationEngine& engine,
      fault::FaultInjector* injector = nullptr, TxnPolicy policy = {},
      const ExploreGate& gate = {});

  /// Samples every metric-conditioned rule and fires those whose condition
  /// has held for its sustain window. Allocation-free while nothing fires.
  void evaluate(SimTime now);

  /// Fires event rule `index` (an index into event_rules()) unless its
  /// cooldown or an in-flight firing suppresses it.
  void fire_event_rule(std::size_t index, SimTime now);

  /// (event name, index) pairs for Raml to subscribe.
  const std::vector<std::pair<util::Symbol, std::size_t>>& event_rules()
      const {
    return event_rules_;
  }

  void set_firing_observer(FiringObserver observer) {
    firing_observer_ = std::move(observer);
  }

  std::size_t rule_count() const { return rules_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct BoundRule {
    util::Symbol name;
    // Condition (metric rules only; event rules dispatch via Raml).
    bool is_event = false;
    adl::MetricSource source = adl::MetricSource::kQueueDepth;
    ConnectorId metric_connector;  // kQueueDepth
    NodeId metric_node;            // kNodeBacklog
    adl::AstCompare compare = adl::AstCompare::kGt;
    double threshold = 0.0;
    int sustain_ticks = 1;
    Duration cooldown = 0;
    /// Whole-firing txn deadline (rule `deadline` property, else the
    /// policy default). 0 = unbounded.
    Duration deadline = 0;
    /// Bound at install: every declared name resolved to a live id, so a
    /// firing enqueues these into its Txn unchanged.
    std::vector<TxnAction> actions;
    // Hysteresis state.
    int streak = 0;
    SimTime last_fired = -1;
    bool ever_fired = false;
    bool inflight = false;  // a firing's txn is still running
  };

  RuleSet(Application& app, ReconfigurationEngine& engine,
          fault::FaultInjector* injector)
      : app_(app), engine_(engine), injector_(injector) {}

  /// Current value of a metric condition. Id-indexed lookups only.
  double sample(const BoundRule& rule, SimTime now) const;
  bool condition_holds(const BoundRule& rule, SimTime now) const;
  /// Enacts rule `rule_index` as one Txn.  Takes the index, not a
  /// reference: the completion callback must survive rules_ reallocation
  /// and RuleSet teardown (it holds a weak_ptr + this stable index).
  void fire(std::size_t rule_index, SimTime now);
  /// Settles a firing: per-step accounting, action-table rebinds for
  /// committed swaps, observer notification.
  void on_firing_done(std::size_t rule_index, const ReconfigReport& report);
  /// Rewrites every pre-bound reference to `from` (a replaced/rerouted
  /// instance) to `to`, keeping rules live across implementation swaps.
  void rebind_instance(ComponentId from, ComponentId to);

  Application& app_;
  ReconfigurationEngine& engine_;
  fault::FaultInjector* injector_;
  std::vector<BoundRule> rules_;
  std::vector<std::pair<util::Symbol, std::size_t>> event_rules_;
  Stats stats_;
  FiringObserver firing_observer_;
  /// Cached obs instruments (resolved once at install; the suppressed
  /// counter sits on the steady-state evaluate path, which must not hash
  /// metric names per tick).
  obs::Counter* obs_fired_ = nullptr;
  obs::Counter* obs_failed_ = nullptr;
  obs::Counter* obs_suppressed_ = nullptr;
};

}  // namespace aars::reconfig
