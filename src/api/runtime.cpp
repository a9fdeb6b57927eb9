#include "api/runtime.h"

#include "analysis/adl_screen.h"
#include "reconfig/rules.h"
#include "runtime/deployer.h"

namespace aars {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

Runtime::Runtime() = default;

Runtime::Builder Runtime::builder() { return Builder{}; }

meta::Raml& Runtime::raml() {
  util::require(raml_ != nullptr, "Runtime built without with_raml()");
  return *raml_;
}

util::NodeId Runtime::host(const std::string& name) const {
  return network_.node_id(name);
}

util::ComponentId Runtime::component(const std::string& instance) const {
  return app_->component_id(instance);
}

util::ConnectorId Runtime::connector(const std::string& name) const {
  return app_->connector_id(name);
}

std::shared_ptr<overload::AdmissionInterceptor> Runtime::admission(
    const std::string& connector_name) const {
  auto it = admissions_.find(connector_name);
  return it == admissions_.end() ? nullptr : it->second;
}

std::shared_ptr<overload::CircuitBreakerInterceptor> Runtime::breaker(
    const std::string& connector_name) const {
  auto it = breakers_.find(connector_name);
  return it == breakers_.end() ? nullptr : it->second;
}

// --- Builder -----------------------------------------------------------------

Runtime::Builder& Runtime::Builder::host(const std::string& name,
                                         double capacity) {
  hosts_.push_back(HostDecl{name, capacity});
  return *this;
}

Runtime::Builder& Runtime::Builder::link(const std::string& a,
                                         const std::string& b,
                                         sim::LinkSpec spec) {
  links_.push_back(LinkDecl{a, b, spec});
  return *this;
}

Runtime::Builder& Runtime::Builder::link_all(sim::LinkSpec spec) {
  mesh_ = spec;
  return *this;
}

Runtime::Builder& Runtime::Builder::component_type(
    const std::string& name, component::ComponentRegistry::Factory factory) {
  installers_.push_back(
      [name, factory = std::move(factory)](
          component::ComponentRegistry& registry) mutable {
        registry.register_type(name, std::move(factory));
      });
  return *this;
}

Runtime::Builder& Runtime::Builder::install_types(
    std::function<void(component::ComponentRegistry&)> installer) {
  installers_.push_back(std::move(installer));
  return *this;
}

Runtime::Builder& Runtime::Builder::deploy(const std::string& type,
                                           const std::string& instance,
                                           const std::string& host,
                                           util::Value attributes) {
  deploys_.push_back(
      DeployDecl{type, instance, host, std::move(attributes)});
  return *this;
}

Runtime::Builder& Runtime::Builder::connect(
    connector::ConnectorSpec spec, std::vector<std::string> providers,
    std::vector<std::string> aspects) {
  connects_.push_back(
      ConnectDecl{std::move(spec), std::move(providers), std::move(aspects)});
  return *this;
}

Runtime::Builder& Runtime::Builder::bind(const std::string& caller_instance,
                                         const std::string& port,
                                         const std::string& connector_name) {
  binds_.push_back(BindDecl{caller_instance, port, connector_name});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_retry(
    const std::string& connector_name, fault::RetryPolicy policy) {
  retries_.push_back(RetryDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_admission(
    const std::string& connector_name, overload::AdmissionPolicy policy) {
  admissions_.push_back(AdmissionDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_breaker(
    const std::string& connector_name, overload::BreakerPolicy policy) {
  breakers_.push_back(BreakerDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_degraded_mode(
    const std::string& connector_name, overload::OverloadTrigger trigger,
    overload::DegradedMode mode) {
  degraded_modes_.push_back(
      DegradedDecl{connector_name, std::move(trigger), std::move(mode)});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_self_repair() {
  self_repair_ = true;
  return *this;
}

Runtime::Builder& Runtime::Builder::with_faults(
    fault::FaultScenario scenario) {
  scenarios_.push_back(std::move(scenario));
  return *this;
}

Runtime::Builder& Runtime::Builder::with_fault_text(
    std::string scenario_text) {
  scenario_texts_.push_back(std::move(scenario_text));
  return *this;
}

Result<std::unique_ptr<Runtime>> Runtime::Builder::build() {
  if (options_.metrics) obs::Registry::global().set_enabled(true);
  if (options_.trace_capacity) {
    obs::Registry::global().set_trace_capacity(*options_.trace_capacity);
  }

  auto rt = std::unique_ptr<Runtime>(new Runtime());
  for (auto& installer : installers_) installer(rt->types_);

  for (const HostDecl& decl : hosts_) {
    if (rt->network_.node_id(decl.name).valid()) {
      return Error{ErrorCode::kAlreadyExists,
                   "duplicate host '" + decl.name + "'"};
    }
    rt->network_.add_node(decl.name, decl.capacity);
  }
  for (const LinkDecl& decl : links_) {
    const util::NodeId a = rt->network_.node_id(decl.a);
    const util::NodeId b = rt->network_.node_id(decl.b);
    if (!a.valid() || !b.valid()) {
      return Error{ErrorCode::kNotFound, "link references unknown host '" +
                                             (a.valid() ? decl.b : decl.a) +
                                             "'"};
    }
    rt->network_.add_duplex_link(a, b, decl.spec);
  }
  if (mesh_.has_value()) {
    const std::vector<util::NodeId> nodes = rt->network_.node_ids();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        if (!rt->network_.has_link(nodes[i], nodes[j])) {
          rt->network_.add_duplex_link(nodes[i], nodes[j], *mesh_);
        }
      }
    }
  }

  rt->app_ = std::make_unique<runtime::Application>(rt->loop_, rt->network_,
                                                    rt->types_, options_.config);
  fault::register_fault_aspects(rt->app_->connector_factory());

  // ADL sources run the full five-stage compiler (parse -> sema -> emit ->
  // analysis screen), so an unverifiable rule or infeasible goal fails the
  // build here, not mid-simulation.  Rule programs from every source merge
  // into one set, installed into RAML after the world is complete.
  analysis::VerifierOptions screen_options;
  screen_options.max_states = options_.verify_max_states;
  adl::RuleProgram rule_program;
  auto take_program = [&rule_program](adl::CompilationResult& result) {
    std::move(result.program.rules.begin(), result.program.rules.end(),
              std::back_inserter(rule_program.rules));
    std::move(result.program.goals.begin(), result.program.goals.end(),
              std::back_inserter(rule_program.goals));
    std::move(result.program.scenarios.begin(),
              result.program.scenarios.end(),
              std::back_inserter(rule_program.scenarios));
  };
  for (const std::string& source : options_.adl_sources) {
    adl::CompilationResult result =
        analysis::compile_adl(source, screen_options);
    if (!result.ok()) return result.diagnostics.to_error();
    auto deployment = runtime::deploy(result.config, *rt->app_);
    if (!deployment.ok()) return deployment.error();
    take_program(result);
  }

  for (const DeployDecl& decl : deploys_) {
    const util::NodeId node = rt->network_.node_id(decl.host);
    if (!node.valid()) {
      return Error{ErrorCode::kNotFound, "deploy '" + decl.instance +
                                             "': unknown host '" + decl.host +
                                             "'"};
    }
    auto created = rt->app_->instantiate(decl.type, decl.instance, node,
                                         decl.attributes);
    if (!created.ok()) return created.error();
  }

  for (const ConnectDecl& decl : connects_) {
    auto conn = rt->app_->create_connector(decl.spec, decl.aspects);
    if (!conn.ok()) return conn.error();
    for (const std::string& provider : decl.providers) {
      const util::ComponentId id = rt->app_->component_id(provider);
      if (!id.valid()) {
        return Error{ErrorCode::kNotFound, "connector '" + decl.spec.name +
                                               "': unknown provider '" +
                                               provider + "'"};
      }
      if (Status s = rt->app_->add_provider(conn.value(), id); !s.ok()) {
        return s.error();
      }
    }
  }

  for (const BindDecl& decl : binds_) {
    const util::ComponentId caller = rt->app_->component_id(decl.caller);
    const util::ConnectorId conn = rt->app_->connector_id(decl.connector);
    if (!caller.valid()) {
      return Error{ErrorCode::kNotFound,
                   "bind: unknown caller '" + decl.caller + "'"};
    }
    if (!conn.valid()) {
      return Error{ErrorCode::kNotFound,
                   "bind: unknown connector '" + decl.connector + "'"};
    }
    if (Status s = rt->app_->bind(caller, decl.port, conn); !s.ok()) {
      return s.error();
    }
  }

  for (const RetryDecl& decl : retries_) {
    const util::ConnectorId id = rt->app_->connector_id(decl.connector);
    connector::Connector* conn =
        id.valid() ? rt->app_->find_connector(id) : nullptr;
    if (conn == nullptr) {
      return Error{ErrorCode::kNotFound,
                   "with_retry: unknown connector '" + decl.connector + "'"};
    }
    if (Status s = conn->attach_interceptor(
            std::make_shared<fault::RetryInterceptor>(decl.policy));
        !s.ok()) {
      return s.error();
    }
  }

  // Overload protection chain ordering: admission (-20) runs first, the
  // breaker (-10) second, retry (0, with_retry's default) last — so shed
  // traffic never pollutes breaker statistics and an open breaker
  // short-circuits before any retry header is stamped.
  for (const AdmissionDecl& decl : admissions_) {
    const util::ConnectorId id = rt->app_->connector_id(decl.connector);
    connector::Connector* conn =
        id.valid() ? rt->app_->find_connector(id) : nullptr;
    if (conn == nullptr) {
      return Error{ErrorCode::kNotFound, "with_admission: unknown connector '" +
                                             decl.connector + "'"};
    }
    runtime::Application* app = rt->app_.get();
    sim::EventLoop* loop = &rt->loop_;
    auto gate = std::make_shared<overload::AdmissionInterceptor>(
        decl.policy, [loop] { return loop->now(); },
        [app, id] { return app->queue_depth(id); }, decl.connector);
    if (Status s = conn->attach_interceptor(gate, -20); !s.ok()) {
      return s.error();
    }
    rt->admissions_[decl.connector] = std::move(gate);
  }
  for (const BreakerDecl& decl : breakers_) {
    const util::ConnectorId id = rt->app_->connector_id(decl.connector);
    connector::Connector* conn =
        id.valid() ? rt->app_->find_connector(id) : nullptr;
    if (conn == nullptr) {
      return Error{ErrorCode::kNotFound,
                   "with_breaker: unknown connector '" + decl.connector + "'"};
    }
    sim::EventLoop* loop = &rt->loop_;
    auto breaker = std::make_shared<overload::CircuitBreakerInterceptor>(
        decl.policy, [loop] { return loop->now(); }, decl.connector);
    if (Status s = conn->attach_interceptor(breaker, -10); !s.ok()) {
      return s.error();
    }
    rt->breakers_[decl.connector] = std::move(breaker);
  }

  reconfig::ReconfigurationEngine::Options engine_options =
      options_.engine_options.value_or(
          reconfig::ReconfigurationEngine::Options{});
  if (options_.verify_mode.has_value()) {
    engine_options.verify_mode = *options_.verify_mode;
    engine_options.verify_max_states = options_.verify_max_states;
  }
  rt->engine_ = std::make_unique<reconfig::ReconfigurationEngine>(
      *rt->app_, engine_options);
  rt->injector_ = std::make_unique<fault::FaultInjector>(*rt->app_);

  // ADL-declared rules need the MAPE clock to poll their conditions; an ADL
  // world that declares rules gets RAML even without an explicit
  // with_raml() (default period: 10ms).
  const bool needs_raml =
      options_.raml_period.has_value() || !rule_program.rules.empty();
  if (needs_raml) {
    rt->raml_ = std::make_unique<meta::Raml>(
        *rt->app_, *rt->engine_,
        options_.raml_period.value_or(util::milliseconds(10)));
    if (self_repair_) rt->raml_->enable_self_repair(*rt->injector_);
  } else if (self_repair_) {
    return Error{ErrorCode::kInvalidArgument,
                 "with_self_repair() requires with_raml()"};
  }

  for (DegradedDecl& decl : degraded_modes_) {
    if (rt->raml_ == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "with_degraded_mode() requires with_raml()"};
    }
    const util::ConnectorId id = rt->app_->connector_id(decl.connector);
    if (!id.valid()) {
      return Error{ErrorCode::kNotFound,
                   "with_degraded_mode: unknown connector '" + decl.connector +
                       "'"};
    }
    if (!decl.trigger.pressure) {
      runtime::Application* app = rt->app_.get();
      decl.trigger.pressure = [app, id] {
        return static_cast<double>(app->queue_depth(id));
      };
    }
    if (decl.mode.admission == nullptr) {
      auto it = rt->admissions_.find(decl.connector);
      if (it != rt->admissions_.end()) decl.mode.admission = it->second;
    }
    rt->raml_->watch_overload(std::move(decl.trigger), std::move(decl.mode));
  }

  if (!rule_program.rules.empty()) {
    // Bind after the whole world exists so rules may target builder-declared
    // instances too.  watch_faults so "fault.*" triggers and the
    // fault.active metric reach the rules.
    rt->raml_->watch_faults(*rt->injector_);
    auto rules = reconfig::RuleSet::install(
        rule_program, *rt->app_, *rt->engine_, rt->injector_.get(), {},
        options_.explore_gate);
    if (!rules.ok()) return rules.error();
    rt->raml_->install_rule_set(std::move(rules).value());
  }

  for (const std::string& text : scenario_texts_) {
    auto scenario = fault::FaultScenario::parse(text);
    if (!scenario.ok()) return scenario.error();
    scenarios_.push_back(std::move(scenario).value());
  }
  scenario_texts_.clear();
  for (const fault::FaultScenario& scenario : scenarios_) {
    if (Status s = rt->injector_->arm(scenario); !s.ok()) return s.error();
  }

  return rt;
}

}  // namespace aars
