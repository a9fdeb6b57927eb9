// Deterministic fault injector.
//
// Arms a FaultScenario on the simulation event loop: at each fault's start
// instant it mutates the simulated network (severing links, inflating
// latency/jitter, raising loss probability) and at the end instant it
// restores the saved state.  Every transition is published to registered
// listeners (RAML subscribes to drive repairs), counted in the obs registry
// and recorded on the trace timeline, so experiments can measure MTTR and
// dropped-during-partition directly from observability data.
//
// Determinism: the injector introduces no randomness of its own — the same
// scenario armed on the same world yields the same timeline; stochastic
// storms are built by generating the *scenario* from a seeded Rng.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fault/scenario.h"
#include "obs/metrics.h"
#include "runtime/application.h"
#include "util/errors.h"
#include "util/ids.h"

namespace aars::fault {

using util::NodeId;

/// A fault transition, published to listeners at begin and end instants.
struct FaultEvent {
  enum class Phase { kBegin, kEnd };
  FaultKind kind = FaultKind::kHostCrash;
  Phase phase = Phase::kBegin;
  util::SimTime at = 0;        // when this transition happened
  util::SimTime began_at = 0;  // when the fault began (for MTTR accounting)
  NodeId host;                 // kHostCrash
  NodeId link_a;               // link faults
  NodeId link_b;
  std::string subject;         // "host b" / "link a-b"
};

using FaultListener = std::function<void(const FaultEvent&)>;

/// Schedules scenario faults on the loop and applies them to the network.
class FaultInjector {
 public:
  explicit FaultInjector(runtime::Application& app);

  /// Resolves host names and schedules every fault in `scenario`. Fails
  /// without side effects when a name does not resolve or a link fault
  /// references a missing link.
  util::Status arm(const FaultScenario& scenario);

  /// Parses `text` and arms the result.
  util::Status arm_text(const std::string& text);

  // --- health view ---------------------------------------------------------
  bool host_up(NodeId host) const { return crashed_.count(host) == 0; }
  std::vector<NodeId> up_hosts() const;
  std::vector<NodeId> down_hosts() const;
  /// Number of currently-active faults (begun, not yet ended).
  std::size_t active_faults() const { return active_; }
  /// True when an open `fail-step` window targets step `step` (1-based) of
  /// an `n`-step plan. Consulted by reconfig::Txn before each step; the
  /// directive is deterministic — no randomness, no network mutation.
  bool should_fail_step(std::size_t step, std::size_t n) const;
  /// Total fault transitions applied so far.
  std::uint64_t injected() const { return injected_; }
  /// Messages the network dropped while at least one fault was active.
  std::uint64_t dropped_during_faults() const;

  void on_fault(FaultListener listener) {
    listeners_.push_back(std::move(listener));
  }

  runtime::Application& app() { return app_; }

 private:
  // Network mutations behind begin() and end().  Overlapping faults nest:
  // a fault is applied on its first begin and undone on its last end.  A
  // degrade or loss window on a link that is down (an endpoint crashed)
  // changes nothing.
  void crash_host(NodeId host);
  void restore_host(NodeId host);
  void cut_link(NodeId a, NodeId b);
  void heal_link(NodeId a, NodeId b);
  void degrade_link(NodeId a, NodeId b, util::Duration extra_latency,
                    util::Duration extra_jitter);
  void restore_link_quality(NodeId a, NodeId b);
  void set_link_loss(NodeId a, NodeId b, double probability);
  void restore_link_loss(NodeId a, NodeId b);

  void begin(const FaultSpec& spec, NodeId host, NodeId a, NodeId b);
  void end(const FaultSpec& spec, NodeId host, NodeId a, NodeId b);
  void publish(const FaultSpec& spec, FaultEvent::Phase phase, NodeId host,
               NodeId a, NodeId b);
  void note_fault_started();
  void note_fault_ended();

  using LinkKey = std::pair<NodeId, NodeId>;

  runtime::Application& app_;
  // Saved state for restoration, keyed by the directed link pair.
  std::map<LinkKey, sim::LinkSpec> severed_;
  std::map<LinkKey, sim::LinkSpec> pristine_;
  // Overlap guards: apply on 0 -> 1, restore on 1 -> 0.
  std::map<NodeId, int> crash_depth_;
  std::map<LinkKey, int> cut_depth_;
  std::map<LinkKey, int> degrade_depth_;
  std::map<LinkKey, int> loss_depth_;
  std::set<NodeId> crashed_;
  /// Open fail-step windows: (step, of) pairs, one entry per active window
  /// (duplicates allowed — overlap is begin/end counted by erasing one
  /// matching entry at end).
  std::vector<std::pair<int, int>> step_faults_;
  std::vector<FaultListener> listeners_;
  std::size_t active_ = 0;
  std::uint64_t injected_ = 0;
  // Drop accounting: messages_dropped() watermark when faults became active.
  std::uint64_t drops_at_activation_ = 0;
  std::uint64_t dropped_during_faults_ = 0;
  // Instruments resolved at their first record, so a series appears only
  // once something records into it.
  std::array<obs::Counter*,
             static_cast<std::size_t>(FaultKind::kStepFault) + 1>
      obs_injected_{};  // by FaultKind
  obs::Gauge* obs_active_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
};

}  // namespace aars::fault
