// The benchmark's workloads.  Each drives the aars library from outside,
// through its public entry points, with inputs generated from the run seed.
//
// A repetition of a workload is a fixed amount of work: `units()` units,
// each a set-up (everything paid before the unit's first op) followed by
// steps (one simulated-time slice or one analysis call each) until the unit
// has settled.  The harness times the steps, and times set-ups apart from
// them, in a run of back-to-back set-ups after the units; settle(), probe()
// and teardown() run outside the timed regions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Per-layer values of one repetition, keyed by metric name.  "ops" and
/// "failed" hold the repetition's op counts.
using Values = std::map<std::string, double>;

struct Context {
  std::uint64_t seed = 1;
  /// Tiny sizes for the smoke self-test.
  bool smoke = false;
  Tracer* tracer = nullptr;
  /// Correctness failures, one line each; any entry fails the run.
  std::vector<std::string>* failures = nullptr;

  void fail(const std::string& what) const { failures->push_back(what); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The reference kernels whose slowdowns track this workload's steps and
  /// set-ups best (measured; see README.md, "Noise handling").
  virtual RefKind step_reference() const = 0;
  virtual RefKind setup_reference() const = 0;
  /// Checks that need runs of their own (cross-checks, replays); untimed.
  virtual void precheck() {}
  /// Called before each repetition, untimed.
  virtual void begin_rep() {}
  virtual std::size_t units() const { return 1; }
  /// Builds unit `unit`'s world: everything paid before its first op.
  virtual void setup(std::size_t unit) = 0;
  /// Advances the unit by one slice; false once it has settled.
  virtual bool step() = 0;
  /// Adds the settled unit's counts to `rep` and checks them.
  virtual void settle(Values& rep) = 0;
  /// Destroys the unit's world.
  virtual void teardown() = 0;
  /// Per-layer probes run after each repetition (set-up stages timed on
  /// their own, gate explorations); counts go into `rep`.
  virtual void probe(Values& /*rep*/) {}
};

std::unique_ptr<Workload> make_rush_hour(const Context& ctx,
                                         std::size_t shards);
std::unique_ptr<Workload> make_reconfig_storm(const Context& ctx);
std::unique_ptr<Workload> make_explore_ladder(const Context& ctx);

}  // namespace perfbench
