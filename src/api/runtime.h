// aars::Runtime — the canonical entry point.
//
// Every experiment in this repo needs the same cast: an event loop, a
// simulated network, a component registry, an Application, a
// reconfiguration engine and (optionally) RAML and a fault injector.
// Before this facade existed, each bench binary and example wired those by
// hand.  Runtime owns the whole stack in correct construction order and the
// fluent Builder declares a world in a few lines:
//
//   auto rt = aars::Runtime::builder()
//                 .metrics()
//                 .seed(7)
//                 .host("server", 10000)
//                 .host("client", 10000)
//                 .link_all(link)
//                 .component_class<EchoServer>("EchoServer")
//                 .deploy("EchoServer", "svc", "server")
//                 .connect(spec, {"svc"})
//                 .with_raml(util::milliseconds(100))
//                 .build()
//                 .value();
//
// build() returns Result<std::unique_ptr<Runtime>> — a misdeclared world
// (unknown host, duplicate instance, bad ADL) reports an aars::Status-style
// error instead of half-constructing.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adl/ir.h"
#include "api/options.h"
#include "component/registry.h"
#include "fault/injector.h"
#include "fault/policies.h"
#include "fault/scenario.h"
#include "meta/raml.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "reconfig/engine.h"
#include "runtime/application.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/errors.h"

namespace aars::runtime {
class ShardRouter;
}  // namespace aars::runtime

namespace aars {

class ShardedRuntime;

class Runtime {
 public:
  class Builder;
  /// Starts a fluent world declaration.
  static Builder builder();

  // --- the owned stack ---------------------------------------------------------
  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return network_; }
  component::ComponentRegistry& types() { return types_; }
  runtime::Application& app() { return *app_; }
  reconfig::ReconfigurationEngine& engine() { return *engine_; }
  fault::FaultInjector& faults() { return *injector_; }
  bool has_raml() const { return raml_ != nullptr; }
  /// Precondition: built with with_raml() (or an ADL source declaring
  /// `when … reconfigure` rules, which auto-creates RAML).
  meta::Raml& raml();
  /// The installed ADL rule set; null when no ADL source declared rules.
  reconfig::RuleSet* adl_rules() {
    return raml_ == nullptr ? nullptr : raml_->rule_set().get();
  }

  // --- name lookups ------------------------------------------------------------
  util::NodeId host(const std::string& name) const;
  util::ComponentId component(const std::string& instance) const;
  util::ConnectorId connector(const std::string& name) const;

  // --- overload protection ----------------------------------------------------
  /// Admission gate attached via with_admission(); null when none.
  std::shared_ptr<overload::AdmissionInterceptor> admission(
      const std::string& connector_name) const;
  /// Circuit breaker attached via with_breaker(); null when none.
  std::shared_ptr<overload::CircuitBreakerInterceptor> breaker(
      const std::string& connector_name) const;

  // --- run conveniences --------------------------------------------------------
  void run() { loop_.run(); }
  void run_until(util::SimTime t) { loop_.run_until(t); }
  void run_for(util::Duration d) { loop_.run_for(d); }

 private:
  friend class Builder;
  friend class ShardedRuntime;
  Runtime();

  /// A declared world with its ADL sources lowered: `copy` holds the
  /// lowered declarations (unset when there is no ADL source, so such a
  /// world is not copied) and `rules` every source's rule program.
  struct Lowered {
    std::optional<api::World> copy;
    adl::RuleProgram rules;
    const api::World& world(const api::World& declared) const {
      return copy.has_value() ? *copy : declared;
    }
  };
  /// Compiles each ADL source of `declared` once, through the full pipeline
  /// (analysis screen included), and lowers its topology into the builder's
  /// declarations: nodes become hosts on kAdlShard, links links, instances
  /// deploys, named and implicit connectors connects with the providers
  /// their bindings name, and bindings binds.
  static util::Result<Lowered> lower_adl(const api::World& declared);
  /// The one build path: creates shard `shard`'s stack from `world` (a
  /// lowered world), seeded with `seed`.  Under a router, declarations
  /// homed on another shard are skipped and every connector is stamped
  /// with `shard`; RAML and the ADL rules (`rule_program`) live on shard 0.
  static util::Result<std::unique_ptr<Runtime>> materialise(
      const api::World& world, std::size_t shard, std::uint64_t seed,
      const runtime::ShardRouter* router,
      const adl::RuleProgram& rule_program);

  sim::EventLoop loop_;
  sim::Network network_;
  component::ComponentRegistry types_;
  std::unique_ptr<runtime::Application> app_;
  std::unique_ptr<reconfig::ReconfigurationEngine> engine_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<meta::Raml> raml_;
  std::map<std::string, std::shared_ptr<overload::AdmissionInterceptor>>
      admissions_;
  std::map<std::string, std::shared_ptr<overload::CircuitBreakerInterceptor>>
      breakers_;
};

class Runtime::Builder : public api::WorldBuilder<Runtime::Builder> {
 public:
  // World options (seed/metrics/verification/explore gate/RAML period),
  // ADL sources, links, component types, deployments and connectors come
  // from the shared api::WorldBuilder mixin.

  Builder& host(const std::string& name, double capacity);

  // --- bindings and connector decorations ----------------------------------------
  Builder& bind(const std::string& caller_instance, const std::string& port,
                const std::string& connector_name);
  /// Attaches a fault::RetryInterceptor to a declared connector.
  Builder& with_retry(const std::string& connector_name,
                      fault::RetryPolicy policy);
  /// Attaches an overload::AdmissionInterceptor at connector ingress
  /// (earliest in the chain). The queue-depth gate probes the connector's
  /// own backlog; the token bucket runs on the simulated clock.
  Builder& with_admission(const std::string& connector_name,
                          overload::AdmissionPolicy policy);
  /// Attaches an overload::CircuitBreakerInterceptor between admission and
  /// retry, so an open breaker short-circuits before any retry attempt.
  Builder& with_breaker(const std::string& connector_name,
                        overload::BreakerPolicy policy);

  // --- fault scenarios ---------------------------------------------------------
  // Self-repair and degraded modes are ADL rules (`redeploy stranded`, a
  // guarded `replace` pair), declared through adl().
  /// Arms a fault scenario on the timeline at build time.
  Builder& with_faults(fault::FaultScenario scenario);
  /// Parses and arms the text scenario format.
  Builder& with_fault_text(std::string scenario_text);

  /// Materialises the declared world.
  util::Result<std::unique_ptr<Runtime>> build();
};

}  // namespace aars
