// Builder verbs shared by every runtime flavour.
//
// aars::Runtime::Builder and aars::ShardedRuntime::Builder used to
// re-declare the same configuration verbs (seed, metrics, ADL sources,
// engine options, verification, RAML period) with separate member fields
// that drifted independently.  The shared state now lives in one
// RuntimeOptions struct and the verbs in one CRTP mixin, so both builders
// expose an identical surface and a new verb is added exactly once.
//
//   class Runtime::Builder : public api::OptionsBuilder<Builder> { ... };
//
// Topology verbs (host/link/deploy/connect/bind) stay on the concrete
// builders — their signatures genuinely differ (sharded hosts carry a shard
// index; sharded links must not span shards).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "reconfig/engine.h"
#include "reconfig/rules.h"
#include "runtime/application.h"
#include "util/time.h"

namespace aars::api {

/// Declarative state common to Runtime and ShardedRuntime builders.
struct RuntimeOptions {
  runtime::Application::Config config;
  bool metrics = false;
  /// Inline ADL sources, compiled and deployed at build() in order.
  std::vector<std::string> adl_sources;
  std::optional<reconfig::ReconfigurationEngine::Options> engine_options;
  std::optional<analysis::VerifyMode> verify_mode;
  std::size_t verify_max_states = 100000;
  std::optional<util::Duration> raml_period;
  /// Install-time model checking of ADL rule programs (off by default):
  /// explore the reachable-configuration graph before any rule can fire.
  reconfig::ExploreGate explore_gate;
  /// Rebounds the global trace ring at build() (unset = keep the default).
  std::optional<std::size_t> trace_capacity;
};

/// CRTP mixin providing the shared fluent verbs.  `Derived` is the concrete
/// builder; every verb returns `Derived&` so chains stay fluent across the
/// mixin boundary.
template <typename Derived>
class OptionsBuilder {
 public:
  Derived& seed(std::uint64_t seed) {
    options_.config.seed = seed;
    return self();
  }
  Derived& config(runtime::Application::Config config) {
    options_.config = std::move(config);
    return self();
  }
  /// Enables the global obs registry (metrics + traces).
  Derived& metrics(bool on = true) {
    options_.metrics = on;
    return self();
  }
  /// Bounds per-channel memory: `hold_limit` caps the quiescence hold
  /// buffer (0 keeps the per-connector queue_capacity rule) and
  /// `audit_window` bounds the out-of-order span the duplicate audit
  /// tracks exactly.  Capacity campaigns shrink both so channel state
  /// scales with the declared bound, not with traffic.
  Derived& channel_limits(std::size_t hold_limit, std::size_t audit_window) {
    options_.config.channel_hold_limit = hold_limit;
    options_.config.channel_audit_window = audit_window;
    return self();
  }
  /// Rebounds the global trace ring at build() — the observability side of
  /// the footprint budget (events beyond the capacity overwrite oldest).
  Derived& trace_ring(std::size_t capacity) {
    options_.trace_capacity = capacity;
    return self();
  }
  /// Compiles and deploys an ADL source on top of the declared world.
  /// `when … reconfigure` rules are installed into RAML (created with a
  /// default period when with_raml() was not called).
  Derived& adl(std::string source) {
    options_.adl_sources.push_back(std::move(source));
    return self();
  }
  Derived& with_reconfig(reconfig::ReconfigurationEngine::Options options) {
    options_.engine_options = options;
    return self();
  }
  /// Gates every engine mutation (and RAML self-repair) behind the static
  /// plan verifier: off (default), warn (log findings, proceed) or enforce
  /// (reject with kVerificationFailed + "verify.rejected" metric).
  /// Overrides the verify fields of with_reconfig() options.
  Derived& with_verification(analysis::VerifyMode mode,
                             std::size_t max_states = 100000) {
    options_.verify_mode = mode;
    options_.verify_max_states = max_states;
    return self();
  }
  /// Model-checks every ADL rule program at install: the analysis explorer
  /// enumerates the configurations the rules can reach from the deployed
  /// architecture (bounded by `max_configs`/`max_depth`) and checks the
  /// per-state verifier plus declared `property` blocks. enforce rejects
  /// an unsafe program at build(); warn counts findings and proceeds.
  Derived& explore_rules(analysis::VerifyMode mode,
                         std::size_t max_configs = 4096,
                         std::size_t max_depth = 64) {
    options_.explore_gate.mode = mode;
    options_.explore_gate.options.max_configs = max_configs;
    options_.explore_gate.options.max_depth = max_depth;
    return self();
  }
  Derived& with_raml(util::Duration period) {
    options_.raml_period = period;
    return self();
  }
  const RuntimeOptions& options() const { return options_; }

 protected:
  RuntimeOptions options_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace aars::api
