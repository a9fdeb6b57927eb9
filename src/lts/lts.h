// Labelled transition systems and protocol compatibility.
//
// The paper's vision section: "each participating component can be
// represented by a label transition system (LTS) model ... composition
// correctness analysis may then be based on information provided by RAML
// using reflection" (§3), building on Wright's formal connector framework
// (§1).  This module provides:
//   * Lts          — finite LTS with input/output/internal labels,
//   * compose()    — CSP-style parallel composition synchronising on shared
//                    action names with opposite directions,
//   * check_compatibility() — deadlock-freedom of the composition, with a
//                    counterexample trace when incompatible.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/errors.h"

namespace aars::lts {

using StateId = std::size_t;

enum class Direction { kInput, kOutput, kInternal };

constexpr const char* to_string(Direction d) {
  switch (d) {
    case Direction::kInput: return "?";
    case Direction::kOutput: return "!";
    case Direction::kInternal: return "tau";
  }
  return "?";
}

/// A transition label: action name + direction. `a!` synchronises with `a?`.
struct Label {
  std::string action;
  Direction direction = Direction::kInternal;

  std::string to_string() const;
  friend bool operator==(const Label& x, const Label& y) {
    return x.action == y.action && x.direction == y.direction;
  }
};

Label in(std::string action);
Label out(std::string action);
Label tau();

struct Transition {
  StateId from;
  Label label;
  StateId to;

  bool operator==(const Transition&) const = default;
};

/// A finite labelled transition system. States are dense indices; state 0 is
/// created implicitly as the initial state by the constructor.
class Lts {
 public:
  explicit Lts(std::string name = "lts");

  const std::string& name() const { return name_; }

  /// Adds a state; returns its id. Optionally mark it final (a state where
  /// the collaboration may legally stop).
  StateId add_state(bool final_state = false);
  void set_final(StateId state, bool final_state = true);
  bool is_final(StateId state) const;

  void add_transition(StateId from, Label label, StateId to);

  StateId initial() const { return 0; }
  std::size_t state_count() const { return final_.size(); }
  std::size_t transition_count() const { return transitions_.size(); }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Transitions leaving `state`.
  std::vector<const Transition*> outgoing(StateId state) const;

  /// The set of action names used with input/output direction.
  std::vector<std::string> alphabet() const;

  /// States reachable from the initial state.
  std::vector<StateId> reachable() const;

  /// True when no reachable non-final state lacks outgoing transitions.
  bool deadlock_free() const;

  bool operator==(const Lts&) const = default;

 private:
  std::string name_;
  std::vector<bool> final_;
  std::vector<Transition> transitions_;
  // Adjacency index: state -> indices into transitions_.
  std::vector<std::vector<std::size_t>> adjacency_;
};

/// Parallel composition of two LTSs.  Actions present in both alphabets
/// synchronise (an output in one must meet the matching input in the other
/// and becomes internal); all other actions interleave.
Lts compose(const Lts& a, const Lts& b);

/// Result of a compatibility check.
struct CompatibilityReport {
  bool compatible = true;
  /// Size of the explored product automaton (for scaling experiments).
  std::size_t product_states = 0;
  /// When incompatible: the labels leading to the deadlock state.
  std::vector<std::string> counterexample;
  std::string diagnosis;
};

/// Wright-style check: the composition must be deadlock-free (every
/// reachable state either allows progress or is final in both roles).
CompatibilityReport check_compatibility(const Lts& a, const Lts& b);

/// Result of a bounded n-way composition check.
struct CompositionReport {
  /// No reachable joint state (within the bound) deadlocks.
  bool deadlock_free = true;
  /// The state bound was hit before full exploration; `deadlock_free` then
  /// only covers the explored prefix of the product.
  bool truncated = false;
  /// Joint states explored (for scaling experiments and lint stats).
  std::size_t states_explored = 0;
  /// When a deadlock was found: the labels leading to it.
  std::vector<std::string> counterexample;
  /// Human-readable verdict; names the stuck roles on deadlock.
  std::string diagnosis;
};

/// N-way CSP-style composition check with bounded state-space exploration.
/// Actions appearing in more than one alphabet synchronise pairwise (an
/// output must meet a matching input in another role); actions private to
/// one role and internal moves interleave.  A reachable joint state with no
/// move where some role is non-final is a deadlock.  Exploration stops after
/// `max_states` joint states; the report is then marked truncated.
CompositionReport check_composition(const std::vector<const Lts*>& parts,
                                    std::size_t max_states = 100000);

/// Convenience protocol builders used by connectors and tests.
/// A client that repeatedly emits `request!` then waits for `reply?`.
Lts request_reply_client(std::size_t pipeline_depth = 1);
/// A server that accepts `request?` then emits `reply!`.
Lts request_reply_server();
/// A one-way event source emitting `event!` forever.
Lts event_source();
/// A one-way event sink accepting `event?` forever.
Lts event_sink();
/// A chain protocol of n sequential actions a0!..a(n-1)! (for scaling
/// experiments).
Lts sequential_emitter(std::size_t n, const std::string& prefix);
Lts sequential_acceptor(std::size_t n, const std::string& prefix);

}  // namespace aars::lts
