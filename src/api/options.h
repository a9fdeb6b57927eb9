// The one declaration set and verb set behind both runtime builders.
//
// aars::Runtime::Builder and aars::ShardedRuntime::Builder record into one
// api::World — the world options (seed, channel limits, metrics, ADL
// sources, verification, RAML period, explore gate) and every declaration
// (hosts, links, type installers, deployments, connectors, and the
// Runtime-only bindings, interceptors and fault scenarios) — through one
// CRTP verb mixin, WorldBuilder.  Each builder adds only its own `host`
// (the sharded one takes a shard) and the verbs that belong to its flavour
// alone.  Adaptation is declared in ADL: self-repair and degraded modes
// are `when … reconfigure` rules passed through adl(), so they run as
// transactions, are screened at compile time and can be explored.
//
// Runtime::materialise() is the one function that turns a World into a
// runtime stack.  Runtime::Builder calls it once; ShardedRuntime::Builder
// calls it once per shard with the shard router, which makes it skip the
// declarations homed on other shards.  A sharded world is therefore built
// by exactly the code that builds a plain one, and a new declaration is
// added in one place.  An ADL source declares nothing of its own: build()
// lowers its topology into these same declarations (Runtime::lower_adl).
//
//   class Runtime::Builder : public api::WorldBuilder<Builder> { ... };
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "component/interface.h"
#include "component/registry.h"
#include "connector/connector.h"
#include "fault/policies.h"
#include "fault/scenario.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "reconfig/rules.h"
#include "runtime/application.h"
#include "sim/network.h"
#include "util/time.h"

namespace aars::api {

/// The shard that hosts the ADL world, RAML, the rules and the process-wide
/// settings (the only shard of an unsharded world).
inline constexpr std::size_t kAdlShard = 0;

/// Everything a builder declares, in declaration order.
struct World {
  struct HostDecl {
    std::string name;
    double capacity = 0.0;
    /// Home shard (always 0 outside a sharded world).
    std::size_t shard = 0;
  };
  struct LinkDecl {
    std::string a;
    std::string b;
    sim::LinkSpec spec;
    /// False for an ADL `link a -> b`: only a reaches b.
    bool duplex = true;
  };
  struct DeployDecl {
    std::string type;
    std::string instance;
    std::string host;
    util::Value attributes;
    /// The interface an ADL instance's type declares it provides; the
    /// implementation must honour it (kIncompatible otherwise).
    std::optional<component::InterfaceDescription> honours = std::nullopt;
  };
  struct ConnectDecl {
    connector::ConnectorSpec spec;
    std::vector<std::string> providers;
    std::vector<std::string> aspects;
  };
  struct BindDecl {
    std::string caller;
    std::string port;
    std::string connector;
  };
  struct RetryDecl {
    std::string connector;
    fault::RetryPolicy policy;
  };
  struct AdmissionDecl {
    std::string connector;
    overload::AdmissionPolicy policy;
  };
  struct BreakerDecl {
    std::string connector;
    overload::BreakerPolicy policy;
  };

  // --- options -----------------------------------------------------------------
  runtime::Application::Config config;
  bool metrics = false;
  /// Inline ADL sources, compiled once per build() and lowered in order:
  /// nodes and links after the declared hosts and links, instances,
  /// connectors and bindings before the declared deploys, connects and
  /// binds.
  std::vector<std::string> adl_sources;
  std::optional<analysis::VerifyMode> verify_mode;
  std::size_t verify_max_states = 100000;
  std::optional<util::Duration> raml_period;
  /// Install-time model checking of ADL rule programs (off by default):
  /// explore the reachable-configuration graph before any rule can fire.
  reconfig::ExploreGate explore_gate;
  /// Rebounds the global trace ring at build() (unset = keep the default).
  std::optional<std::size_t> trace_capacity;

  // --- declarations --------------------------------------------------------------
  std::vector<HostDecl> hosts;
  std::vector<LinkDecl> links;
  /// Full mesh between the hosts of each stack (applied after `links`).
  std::optional<sim::LinkSpec> mesh;
  /// Run once on every stack's component registry.
  std::vector<std::function<void(component::ComponentRegistry&)>> installers;
  std::vector<DeployDecl> deploys;
  std::vector<ConnectDecl> connects;
  std::vector<BindDecl> binds;
  std::vector<RetryDecl> retries;
  std::vector<AdmissionDecl> admissions;
  std::vector<BreakerDecl> breakers;
  /// Armed in order: every `scenarios` entry, then every parsed
  /// `scenario_texts` entry.
  std::vector<fault::FaultScenario> scenarios;
  std::vector<std::string> scenario_texts;
};

/// CRTP mixin providing the shared fluent verbs.  `Derived` is the concrete
/// builder; every verb returns `Derived&` so chains stay fluent across the
/// mixin boundary.
template <typename Derived>
class WorldBuilder {
 public:
  Derived& seed(std::uint64_t seed) {
    world_.config.seed = seed;
    return self();
  }
  /// Enables the global obs registry (metrics + traces).
  Derived& metrics(bool on = true) {
    world_.metrics = on;
    return self();
  }
  /// Bounds per-channel memory: `hold_limit` caps the quiescence hold
  /// buffer (0 keeps the per-connector queue_capacity rule) and
  /// `audit_window` bounds the out-of-order span the duplicate audit
  /// tracks exactly.  Capacity campaigns shrink both so channel state
  /// scales with the declared bound, not with traffic.
  Derived& channel_limits(std::size_t hold_limit, std::size_t audit_window) {
    world_.config.channel_hold_limit = hold_limit;
    world_.config.channel_audit_window = audit_window;
    return self();
  }
  /// Rebounds the global trace ring at build() — the observability side of
  /// the footprint budget (events beyond the capacity overwrite oldest).
  Derived& trace_ring(std::size_t capacity) {
    world_.trace_capacity = capacity;
    return self();
  }
  /// Compiles and deploys an ADL source on top of the declared world.
  /// `when … reconfigure` rules are installed into RAML (created with a
  /// default period when with_raml() was not called).
  Derived& adl(std::string source) {
    world_.adl_sources.push_back(std::move(source));
    return self();
  }
  /// Gates every engine mutation (and each `redeploy stranded` candidate
  /// host) behind the static plan verifier: off (default), warn (log
  /// findings, proceed) or enforce (reject with kVerificationFailed +
  /// "verify.rejected" metric).
  Derived& with_verification(analysis::VerifyMode mode,
                             std::size_t max_states = 100000) {
    world_.verify_mode = mode;
    world_.verify_max_states = max_states;
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
    world_.explore_gate.mode = mode;
    world_.explore_gate.options.max_configs = max_configs;
    world_.explore_gate.options.max_depth = max_depth;
    return self();
  }
  Derived& with_raml(util::Duration period) {
    world_.raml_period = period;
    return self();
  }

  // --- topology ----------------------------------------------------------------
  /// Duplex link between two declared hosts (of one shard).
  Derived& link(const std::string& a, const std::string& b,
                sim::LinkSpec spec) {
    world_.links.push_back(World::LinkDecl{a, b, spec});
    return self();
  }
  /// Full mesh between the declared hosts (of each shard), applied at
  /// build time.
  Derived& link_all(sim::LinkSpec spec) {
    world_.mesh = spec;
    return self();
  }

  // --- component types (registered on every shard) -----------------------------
  Derived& component_type(const std::string& name,
                          component::ComponentRegistry::Factory factory) {
    // Copies the factory: the installer runs once per shard.
    world_.installers.push_back(
        [name, factory = std::move(factory)](
            component::ComponentRegistry& registry) {
          registry.register_type(name, factory);
        });
    return self();
  }
  template <typename T>
  Derived& component_class(const std::string& name) {
    return component_type(name, [](const std::string& instance) {
      return std::make_unique<T>(instance);
    });
  }
  /// Escape hatch for domain helpers that register whole families
  /// (e.g. telecom::register_media_components).
  Derived& install_types(
      std::function<void(component::ComponentRegistry&)> installer) {
    world_.installers.push_back(std::move(installer));
    return self();
  }

  // --- instances & connectors --------------------------------------------------
  /// Deploys onto a declared host; the instance's home shard is the
  /// host's.
  Derived& deploy(const std::string& type, const std::string& instance,
                  const std::string& host, util::Value attributes = {}) {
    world_.deploys.push_back(
        World::DeployDecl{type, instance, host, std::move(attributes)});
    return self();
  }
  /// Declares a connector over deployed providers, with optional aspects;
  /// its home shard is where its providers live (all on one shard).
  Derived& connect(connector::ConnectorSpec spec,
                   std::vector<std::string> providers,
                   std::vector<std::string> aspects = {}) {
    world_.connects.push_back(World::ConnectDecl{
        std::move(spec), std::move(providers), std::move(aspects)});
    return self();
  }

 protected:
  World world_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace aars::api
