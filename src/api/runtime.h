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

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/options.h"
#include "component/registry.h"
#include "fault/injector.h"
#include "fault/policies.h"
#include "fault/scenario.h"
#include "meta/raml.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "overload/degraded.h"
#include "reconfig/engine.h"
#include "runtime/application.h"
#include "runtime/deployer.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/errors.h"

namespace aars {

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
  Runtime();

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

class Runtime::Builder : public api::OptionsBuilder<Runtime::Builder> {
 public:
  // World configuration (seed/config/metrics), ADL sources (adl),
  // managers (with_reconfig/with_verification/with_raml) come from the
  // shared api::OptionsBuilder mixin.

  // --- topology ----------------------------------------------------------------
  Builder& host(const std::string& name, double capacity);
  /// Duplex link between two declared hosts.
  Builder& link(const std::string& a, const std::string& b,
                sim::LinkSpec spec);
  /// Full mesh between every declared host (applied at build time).
  Builder& link_all(sim::LinkSpec spec);

  // --- component types ---------------------------------------------------------
  Builder& component_type(const std::string& name,
                          component::ComponentRegistry::Factory factory);
  template <typename T>
  Builder& component_class(const std::string& name) {
    return component_type(name, [](const std::string& instance) {
      return std::make_unique<T>(instance);
    });
  }
  /// Escape hatch for domain helpers that register whole families
  /// (e.g. telecom::register_media_components).
  Builder& install_types(
      std::function<void(component::ComponentRegistry&)> installer);

  // --- instances, connectors, bindings ------------------------------------------
  Builder& deploy(const std::string& type, const std::string& instance,
                  const std::string& host, util::Value attributes = {});
  Builder& connect(connector::ConnectorSpec spec,
                   std::vector<std::string> providers,
                   std::vector<std::string> aspects = {});
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
  /// Requires with_raml(): installs a degraded-mode controller for the
  /// connector. When `trigger.pressure` is empty it defaults to the
  /// connector's queue depth; when `mode.admission` is unset it defaults to
  /// the admission gate declared for the same connector (if any).
  Builder& with_degraded_mode(const std::string& connector_name,
                              overload::OverloadTrigger trigger,
                              overload::DegradedMode mode);

  // --- managers ----------------------------------------------------------------
  /// Requires with_raml(): wires the fault injector into RAML's rule engine
  /// and enables the built-in host-down repair rule.
  Builder& with_self_repair();
  /// Arms a fault scenario on the timeline at build time.
  Builder& with_faults(fault::FaultScenario scenario);
  /// Parses and arms the text scenario format.
  Builder& with_fault_text(std::string scenario_text);

  /// Materialises the declared world.
  util::Result<std::unique_ptr<Runtime>> build();

 private:
  struct HostDecl {
    std::string name;
    double capacity;
  };
  struct LinkDecl {
    std::string a;
    std::string b;
    sim::LinkSpec spec;
  };
  struct DeployDecl {
    std::string type;
    std::string instance;
    std::string host;
    util::Value attributes;
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
  struct DegradedDecl {
    std::string connector;
    overload::OverloadTrigger trigger;
    overload::DegradedMode mode;
  };

  std::vector<HostDecl> hosts_;
  std::vector<LinkDecl> links_;
  std::optional<sim::LinkSpec> mesh_;
  std::vector<std::function<void(component::ComponentRegistry&)>>
      installers_;
  std::vector<DeployDecl> deploys_;
  std::vector<ConnectDecl> connects_;
  std::vector<BindDecl> binds_;
  std::vector<RetryDecl> retries_;
  std::vector<AdmissionDecl> admissions_;
  std::vector<BreakerDecl> breakers_;
  std::vector<DegradedDecl> degraded_modes_;
  bool self_repair_ = false;
  std::vector<fault::FaultScenario> scenarios_;
  std::vector<std::string> scenario_texts_;
};

}  // namespace aars
