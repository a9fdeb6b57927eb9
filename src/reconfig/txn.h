// Transactional enactment of multi-step reconfiguration plans.
//
// The paper's global-consistency requirement (§1) demands that a failed
// reconfiguration "roll the application back to the previous configuration".
// Each engine protocol already honours that per *operation*; a Txn extends
// the guarantee to a whole plan — the actions of one `when … reconfigure`
// firing, or an API-submitted sequence:
//
//   * steps run strictly in order, stop-on-first-failure;
//   * every applied step pushes an inverse record onto an undo journal
//     (destroy an added instance, resurrect a removed one from its
//     Component::snapshot(), re-point a rebinding, migrate back, swap a
//     replacement back in, un-reroute);
//   * on a step failure — or when the whole-firing deadline expires between
//     steps — the journal is replayed in reverse order and the ReconfigReport
//     carries a kRolledBack verdict plus per-step outcomes;
//   * a FaultInjector's `fail-step k of n` windows are consulted before each
//     step, so fault scenarios can target the reconfiguration path itself.
//
// Invertibility is graded (see DESIGN.md "Transactional enactment"):
// add/rebind/migrate are strongly invertible; replace/reroute/redeploy are
// invertible up to messages the forward protocol already replayed; remove is
// only weakly invertible — the forward protocol drops held traffic, and the
// resurrected instance restarts from the snapshot taken at the step
// boundary.  The compile-time screen (analysis::make_compile_screen) rejects
// rules that put a `remove` before the end of a deadline-guarded plan for
// exactly this reason.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/plan.h"
#include "reconfig/engine.h"
#include "util/symbol.h"

namespace aars::fault {
class FaultInjector;
}

namespace aars::reconfig {

/// One step of a transactional plan. Targets may be pre-bound ids (RuleSet
/// install-time binding) or symbolic names resolved at execution time —
/// against the application, or against instances created by an earlier step
/// of the same txn.
struct TxnAction {
  analysis::PlanOp op = analysis::PlanOp::kAdd;
  ComponentId instance;        // target of every op but kAdd (may be invalid)
  util::Symbol instance_name;  // symbolic fallback for `instance`
  ComponentId replica;         // kReroute
  util::Symbol replica_name;   // symbolic fallback for `replica`
  NodeId node;                 // kAdd / kMigrate / kRedeploy destination
  util::Symbol node_name;      // symbolic fallback for `node`
  ConnectorId connector;       // kRebind
  util::Symbol type;           // kAdd / kReplace component type
  util::Symbol name;           // kAdd: new instance; kReplace: new name
  util::Symbol port;           // kRebind
};

/// Sequences one plan's steps through the reconfiguration engine with an
/// undo journal and reverse-order rollback. Create with create(), enqueue
/// steps, then run() once; the Txn keeps itself alive (shared_from_this in
/// every protocol callback) until the final report is delivered.
class Txn : public std::enable_shared_from_this<Txn> {
 public:
  struct Options {
    /// Whole-plan budget, measured from run(). 0 = no deadline. Checked
    /// between steps: an in-flight engine protocol is never cancelled, but
    /// once it completes past the deadline the txn aborts and rolls back.
    Duration deadline = 0;
    /// Consulted before each step for `fail-step k of n` windows; may be
    /// null (no injected step faults).
    fault::FaultInjector* injector = nullptr;
  };

  static std::shared_ptr<Txn> create(Application& app,
                                     ReconfigurationEngine& engine,
                                     std::string label, Options options);
  static std::shared_ptr<Txn> create(Application& app,
                                     ReconfigurationEngine& engine,
                                     std::string label);

  // --- plan construction (before run()) -----------------------------------
  void enqueue(TxnAction action);
  /// String-keyed conveniences for API-submitted plans; names resolve at
  /// execution time, so steps may reference instances created earlier in
  /// the same txn.
  Txn& add_component(const std::string& type, const std::string& name,
                     const std::string& node);
  Txn& remove_component(const std::string& instance);
  Txn& replace_component(const std::string& instance, const std::string& type,
                         const std::string& new_name = {});
  Txn& migrate_component(const std::string& instance, const std::string& node);
  Txn& rebind(const std::string& instance, const std::string& port,
              const std::string& connector);
  Txn& reroute(const std::string& instance, const std::string& replica);

  /// Runs the plan. `done` receives the aggregated report: kCommitted with
  /// every step ok, or kRolledBack with the failing step's status and the
  /// rollback accounting. Must be called at most once.
  void run(Done done);

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  std::size_t size() const { return actions_.size(); }
  const std::string& label() const { return label_; }
  /// In-flight view; reads "protocol did not complete" until the txn
  /// finishes (the unfinished-status guarantee of ReconfigReport).
  const ReconfigReport& report() const { return report_; }

 private:
  /// Everything needed to re-create a destroyed instance: identity,
  /// placement, the state snapshot taken at the step boundary, the
  /// connectors it served and its caller-side port bindings.
  struct Resurrect {
    std::string type;
    std::string name;
    NodeId node;
    component::Snapshot snapshot;
    std::vector<ConnectorId> provided;
    std::vector<std::pair<std::string, ConnectorId>> bindings;
  };

  /// Inverse of one applied step, captured before the step ran.
  struct UndoRecord {
    analysis::PlanOp op = analysis::PlanOp::kAdd;
    ComponentId created;   // kAdd: the instance; kReplace/kRedeploy: the new
    ComponentId target;    // the step's (old) target id
    NodeId prev_node;      // kMigrate: where it lived
    ConnectorId prev_connector;  // kRebind (invalid = port was unbound)
    std::string port;            // kRebind
    std::optional<Resurrect> resurrect;  // remove/replace/reroute/redeploy
    ComponentId replica;                 // kReroute
    /// kReroute: connectors the replica already served before the step (it
    /// must stay a provider there on undo) and its own prior bindings.
    std::vector<ConnectorId> replica_already_in;
    std::vector<std::pair<std::string, ConnectorId>> replica_bindings;
  };

  Txn(Application& app, ReconfigurationEngine& engine, std::string label,
      Options options);

  void step(std::size_t index);
  void on_step_done(std::size_t index, const ReconfigReport& sub);
  /// Marks step `index` failed with `why` and aborts the txn.
  void fail_step(std::size_t index, Status why);
  void commit();
  void abort(std::size_t failed_index, Status why);
  void rollback_next();
  void apply_undo(const UndoRecord& record, std::function<void()> next);
  /// Destroys `id` once traffic towards it drained (bounded by the engine's
  /// quiescence timeout), then continues the rollback walk.
  void destroy_when_drained(ComponentId id, std::function<void()> next);
  void finish();

  ComponentId resolve(ComponentId bound, util::Symbol name) const;
  NodeId resolve_node(NodeId bound, util::Symbol name) const;
  /// Follows the rollback remap chain: ids recorded in the journal may have
  /// been re-created (with fresh ids) by later undo records.
  ComponentId live(ComponentId id) const;
  /// Captures the Resurrect record for `id` (it still exists here).
  Resurrect capture_resurrect(ComponentId id) const;
  std::vector<std::pair<std::string, ConnectorId>> capture_bindings(
      ComponentId id) const;

  Application& app_;
  ReconfigurationEngine& engine_;
  std::string label_;
  Options options_;
  std::vector<TxnAction> actions_;
  std::vector<UndoRecord> journal_;
  /// Inverse of the step currently in flight; journaled once the step's
  /// protocol reports success, discarded if it fails.
  std::optional<UndoRecord> pending_undo_;
  /// Firing-local name -> id for instances created by earlier steps.
  std::vector<std::pair<util::Symbol, ComponentId>> scratch_;
  /// Rollback-time id remap (old id -> resurrected id).
  std::vector<std::pair<ComponentId, ComponentId>> remap_;
  ReconfigReport report_;
  Done done_;
  SimTime deadline_at_ = 0;  // 0 = none
  std::size_t rollback_cursor_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace aars::reconfig
