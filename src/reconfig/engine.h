// Dynamic reconfiguration engine.
//
// Implements the paper's reconfiguration sequence (§1, after Polylith):
// "waiting to reach a reconfiguration point; and blocking communication
// channels (to manage the messages in transit) while the module context is
// encoded and a new module is created", with strong state transfer
// ("initializing new components with adequate internal state variables,
// contexts, program counters") and the four change classes:
//
//   * structural   — add_component / remove_component / rebind
//   * geographical — migrate_component (load balancing, §1)
//   * interface    — install_interface_adapter (see adapter.h)
//   * implementation — replace_component / update_implementation
//
// Every multi-step change runs as an asynchronous protocol on the event
// loop and reports a ReconfigReport; failures roll the application back to
// the previous configuration (global-consistency requirement, §1).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/plan.h"
#include "obs/metrics.h"
#include "runtime/application.h"
#include "util/errors.h"
#include "util/time.h"

namespace aars::reconfig {

using runtime::Application;
using util::ComponentId;
using util::ConnectorId;
using util::Duration;
using util::NodeId;
using util::Result;
using util::SimTime;
using util::Status;
using util::Value;

/// Transactional verdict of a multi-step enactment (reconfig::Txn).
/// Single-op protocols driven directly through the engine stay kNone.
enum class TxnVerdict {
  kNone,        // not enacted transactionally
  kCommitted,   // every step applied
  kRolledBack,  // a step failed (or the deadline expired); undone in reverse
};

constexpr const char* to_string(TxnVerdict v) {
  switch (v) {
    case TxnVerdict::kNone: return "none";
    case TxnVerdict::kCommitted: return "committed";
    case TxnVerdict::kRolledBack: return "rolled_back";
  }
  return "?";
}

/// Per-step outcome inside a transactional enactment.
struct StepOutcome {
  analysis::PlanOp op = analysis::PlanOp::kAdd;
  /// Step status; defaults to "not attempted" so steps skipped after an
  /// abort read as such rather than as silent successes.
  Status status =
      util::Error{util::ErrorCode::kInternal, "step not attempted"};
  bool attempted = false;
  /// Set when the step was applied and then reverted during rollback.
  bool undone = false;
  /// For replace/reroute steps that retire one instance in favour of
  /// another: the swap the caller must mirror (e.g. RuleSet rebinding its
  /// action tables) — only meaningful once the txn committed.
  ComponentId swapped_from;
  ComponentId swapped_to;
};

/// Outcome of one reconfiguration protocol run.
struct ReconfigReport {
  /// Why the protocol failed (code + message); success() when it worked.
  /// Reports start "unfinished" so a dropped protocol never reads as ok.
  Status status =
      util::Error{util::ErrorCode::kInternal, "protocol did not complete"};
  bool ok() const { return status.ok(); }
  /// Empty on success, the failure message otherwise.
  std::string error_message() const {
    return status.ok() ? std::string{} : status.error().message();
  }
  /// Which change class ran: "remove", "replace", "migrate", "redeploy" or
  /// "reroute".
  std::string op;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  /// Wall time of the whole protocol (quiesce + swap + replay).
  Duration duration() const { return finished_at - started_at; }
  /// Messages held while channels were blocked, then replayed.
  std::size_t held_messages = 0;
  std::size_t replayed_messages = 0;
  /// New component (for replace/update flows).
  ComponentId new_component;
  /// Transactional enactment (reconfig::Txn) only: committed/rolled-back
  /// verdict, per-step outcomes and rollback accounting. Engine-level
  /// single-op protocols leave these at their defaults.
  TxnVerdict verdict = TxnVerdict::kNone;
  std::vector<StepOutcome> steps;
  /// Undo records applied (and how many of those failed) while rolling back.
  std::size_t rollback_steps = 0;
  std::size_t rollback_failures = 0;
};

using Done = std::function<void(const ReconfigReport&)>;

class ReconfigurationEngine {
 public:
  struct Options {
    /// Poll period while waiting for quiescence.
    Duration quiescence_poll = util::microseconds(100);
    /// Give up waiting for quiescence after this long.
    Duration quiescence_timeout = util::seconds(10);
    /// Static plan verification before every mutation: off (skip), warn
    /// (verify, log findings, proceed) or enforce (reject failing plans
    /// with kVerificationFailed and count them in "verify.rejected").
    analysis::VerifyMode verify_mode = analysis::VerifyMode::kOff;
    /// Joint-state bound passed through to protocol composition checks.
    std::size_t verify_max_states = 100000;
  };

  explicit ReconfigurationEngine(Application& app);
  ReconfigurationEngine(Application& app, Options options);

  // --- structural changes -----------------------------------------------------
  /// Adds and activates a component (thin wrapper kept for symmetry).
  Result<ComponentId> add_component(const std::string& type,
                                    const std::string& name, NodeId node,
                                    const Value& attributes);
  /// Quiesces, drains and removes a component. Asynchronous.
  void remove_component(ComponentId component, Done done);
  /// Atomically re-points a caller port to another connector.
  Status rebind(ComponentId caller, const std::string& port,
                ConnectorId new_connector);

  // --- implementation changes ----------------------------------------------------
  /// Strong replacement: block -> drain -> passivate -> snapshot -> create
  /// new -> restore -> redirect -> unblock -> replay -> remove old.
  void replace_component(ComponentId old_component,
                         const std::string& new_type,
                         const std::string& new_name, Done done);

  // --- geographical changes ----------------------------------------------------
  /// Moves a component to `destination`; the state transfer is charged to
  /// the network (snapshot bytes over the route's links).
  void migrate_component(ComponentId component, NodeId destination, Done done);

  // --- failure-triggered changes ---------------------------------------------
  /// Repairs a component stranded on a failed host: block -> drain (in-
  /// flight messages towards the dead host fail on their own) -> snapshot
  /// the surviving state -> instantiate the same type on `destination`
  /// under a generated "<name>_r<n>" instance name -> restore -> redirect
  /// -> replay.  Used by RAML repair rules reacting to fault signals.
  void redeploy_component(ComponentId failed, NodeId destination, Done done);
  /// Instant failover: re-points every channel and binding from `dead` to
  /// an already-running replica, replays held traffic, retires `dead`.
  void reroute_to_replica(ComponentId dead, ComponentId replica, Done done);

  /// Dry-run: would a redeploy of `component` to `destination` pass the
  /// configured plan verifier?  Always true with verification off; never
  /// counts towards verify.rejected.  RAML repair rules use this to
  /// pre-screen candidate hosts before committing to one.
  bool redeploy_would_verify(ComponentId component, NodeId destination);

  /// Verifies a single-step plan against a snapshot of the live
  /// architecture under this engine's policy (off/warn/enforce).  Success
  /// means "proceed"; failure carries kVerificationFailed (enforce mode
  /// only).  Every protocol screens its step here, and cross-shard
  /// migration (reconfig::CrossShardMigrator), which runs its protocol
  /// outside this engine, submits its steps here too, so one verification
  /// policy governs every mutation of the shard's world.
  Status verify_step(const analysis::PlanStep& step, const std::string& op);

  /// Records a settled transaction (reconfig::Txn): a
  /// "txn.duration_us"{verdict} sample, a "txn.committed" or
  /// "txn.rolled_back" count, and the undo records its rollback applied
  /// ("txn.rollback_steps") and failed ("txn.rollback_failures"), into
  /// instruments resolved at first use.  A Txn lives for one firing, so
  /// the engine keeps them.
  void record_txn(const ReconfigReport& report);
  /// Counts a txn step failed by an injected fault ("txn.step_faults").
  void record_step_fault();
  /// Counts the findings of a rule program's install-time exploration that
  /// the warn-mode gate let through ("rules.explore_findings").
  void record_explore_findings(std::size_t findings);

  const Options& options() const { return options_; }

  /// Number of protocol runs started / completed successfully.
  std::uint64_t started() const { return started_; }
  std::uint64_t succeeded() const { return succeeded_; }
  /// Plans rejected by enforce-mode verification.
  std::uint64_t verify_rejected() const { return verify_rejected_; }

 private:
  /// Continuation of a protocol once a phase completed.
  using Next = std::function<void(ReconfigReport, Done)>;

  // The phases every protocol is composed of (DESIGN.md §4, "One
  // reconfiguration sequence").  A phase that fails finishes the report
  // itself; the protocol body only sees its continuation run.

  /// Counts a protocol run and opens its report.
  ReconfigReport start(const char* op);
  /// Screens `step` through verify_step and traces "start"; on rejection
  /// finishes the report and returns false.
  bool admit(ReconfigReport& report, const analysis::PlanStep& step,
             const Done& done);
  /// Blocks the channels to `component`, waits until no message is in
  /// transit towards it and records the "drain" phase.
  void drain(ComponentId component, ReconfigReport report, Done done,
             Next next);
  /// drain, then waits for the reconfiguration point and records the
  /// "quiesce" phase.  At the quiescence timeout it resumes the component
  /// and finishes with kNotQuiescent.
  void quiesce(ComponentId component, ReconfigReport report, Done done,
               Next next);
  /// Aborts with kOverloaded if the hold buffer overflowed since
  /// `overflows_before`, else passivates `component`.  On refusal resumes
  /// it, finishes the report and returns false.
  bool passivate(ComponentId component, std::uint64_t overflows_before,
                 ReconfigReport& report, const Done& done);
  /// Creates `name` of `type` on `node`, restores `snapshot` into it and
  /// redirects `old`'s traffic to it, then hands over.  A failed step
  /// destroys what it created, reactivates and resumes `old`.
  void swap(ComponentId old, const std::string& type, const std::string& name,
            NodeId node, const component::Snapshot& snapshot,
            const char* phase, SimTime since, ReconfigReport report,
            const Done& done);
  /// Resumes `successor` (already redirected to), records `phase`, retires
  /// `old` and finishes the report successfully.
  void hand_over(ComponentId old, ComponentId successor, const char* phase,
                 SimTime since, ReconfigReport report, const Done& done);
  /// Unblocks the channels to `component` and replays what they held;
  /// returns the number of messages replayed.
  std::size_t resume(ComponentId component);
  void finish(ReconfigReport report, Status status, const Done& done);

  /// The plan verifier's findings on `step` against a snapshot of the live
  /// architecture, whatever the verify mode.  When the snapshot and the
  /// step equal one of the last kRememberedReviews reviews, its findings
  /// are returned without verifying again.  The reference is valid until
  /// the next review.
  const adl::Diagnostics& review_step(const analysis::PlanStep& step);
  /// Node name for plan steps; empty when the id is unknown.
  std::string node_name(NodeId node);
  /// Polls until `component` is quiescent, then calls `next(ok)`.
  void wait_quiescent(ComponentId component, SimTime deadline,
                      std::function<void(bool)> next);
  /// Records the end of a protocol phase that started at `since`: a trace
  /// event plus a "reconfig.phase_us"{op,phase} duration sample.
  void record_phase(const std::string& op, const char* phase, SimTime since);
  /// "reconfig.phase_us"{op,phase}, or "reconfig.duration_us"{op} for an
  /// empty phase: resolved at its first sample and kept.
  obs::HistogramMetric& histogram(const std::string& op,
                                  std::string_view phase);
  struct OpCounter {
    std::string op;
    obs::Counter* metric = nullptr;
  };
  /// `name`{op}, resolved at its first count and kept in `known`.
  static obs::Counter& op_counter(std::vector<OpCounter>& known,
                                  const char* name, const std::string& op);
  /// `name`, resolved at its first count and kept in `slot`.
  static obs::Counter& counter(obs::Counter*& slot, const char* name);

  /// One remembered review.  verify_plan is a pure function of the model,
  /// the step and the engine's fixed VerifierOptions, so a review whose
  /// snapshot and step equal these has these findings.  The key is the
  /// whole snapshot: fault windows edit link latencies in place through
  /// Network::find_link, and canonical_config_key leaves nodes, links and
  /// latencies out.
  struct Review {
    analysis::ArchitectureModel model;
    analysis::PlanStep step;
    adl::Diagnostics findings;
  };
  /// Reviews remembered, replaced round-robin.  On reconfig_storm 4 answer
  /// 98.3% of reviews, 8 no more and 2 94.3%.
  static constexpr std::size_t kRememberedReviews = 4;

  /// Instruments resolved at first use, so the registry exports a series
  /// only once something records into it, and an engine that never records
  /// resolves none.  Kept per engine, not in a static: a sharded runtime
  /// runs one engine per shard, each on its own thread.
  struct PhaseHistogram {
    std::string op;
    std::string phase;  // empty for the protocol duration
    obs::HistogramMetric* metric = nullptr;
  };
  struct TxnMetrics {
    obs::HistogramMetric* duration_us = nullptr;
    obs::Counter* settled = nullptr;
  };

  Application& app_;
  Options options_;
  /// The live snapshot of the current review, written in place.
  analysis::ArchitectureModel snapshot_;
  std::array<Review, kRememberedReviews> reviews_;
  std::size_t remembered_ = 0;   // reviews_[0, remembered_) are filled
  std::size_t next_review_ = 0;  // the slot the next new review takes
  std::vector<PhaseHistogram> histograms_;
  std::array<TxnMetrics, 3> txn_metrics_{};  // by TxnVerdict
  std::vector<OpCounter> obs_warned_;    // verify.warned{op}
  std::vector<OpCounter> obs_rejected_;  // verify.rejected{op}
  obs::Counter* obs_step_faults_ = nullptr;
  obs::Counter* obs_rollback_steps_ = nullptr;
  obs::Counter* obs_rollback_failures_ = nullptr;
  obs::Counter* obs_explore_findings_ = nullptr;
  std::uint64_t started_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t verify_rejected_ = 0;
  std::uint64_t redeploys_ = 0;  // suffix for generated instance names
};

}  // namespace aars::reconfig
