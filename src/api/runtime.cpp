#include "api/runtime.h"

#include "analysis/adl_screen.h"
#include "reconfig/rules.h"
#include "runtime/deployer.h"
#include "runtime/shard_router.h"

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
  world_.hosts.push_back(api::World::HostDecl{name, capacity});
  return *this;
}

Runtime::Builder& Runtime::Builder::bind(const std::string& caller_instance,
                                         const std::string& port,
                                         const std::string& connector_name) {
  world_.binds.push_back(
      api::World::BindDecl{caller_instance, port, connector_name});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_retry(
    const std::string& connector_name, fault::RetryPolicy policy) {
  world_.retries.push_back(api::World::RetryDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_admission(
    const std::string& connector_name, overload::AdmissionPolicy policy) {
  world_.admissions.push_back(
      api::World::AdmissionDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_breaker(
    const std::string& connector_name, overload::BreakerPolicy policy) {
  world_.breakers.push_back(api::World::BreakerDecl{connector_name, policy});
  return *this;
}

Runtime::Builder& Runtime::Builder::with_faults(
    fault::FaultScenario scenario) {
  world_.scenarios.push_back(std::move(scenario));
  return *this;
}

Runtime::Builder& Runtime::Builder::with_fault_text(
    std::string scenario_text) {
  world_.scenario_texts.push_back(std::move(scenario_text));
  return *this;
}

Result<std::unique_ptr<Runtime>> Runtime::Builder::build() {
  auto compiled = compile_adl(world_);
  if (!compiled.ok()) return compiled.error();
  return materialise(world_, 0, world_.config.seed, nullptr,
                     compiled.value());
}

// --- the one build path ------------------------------------------------------

Result<std::vector<adl::CompilationResult>> Runtime::compile_adl(
    const api::World& world) {
  // ADL sources run the full five-stage compiler (parse -> sema -> emit ->
  // analysis screen), so an unverifiable rule or infeasible goal fails the
  // build here, not mid-simulation.
  analysis::VerifierOptions screen_options;
  screen_options.max_states = world.verify_max_states;
  std::vector<adl::CompilationResult> compiled;
  compiled.reserve(world.adl_sources.size());
  for (const std::string& source : world.adl_sources) {
    compiled.push_back(analysis::compile_adl(source, screen_options));
    if (!compiled.back().ok()) return compiled.back().diagnostics.to_error();
  }
  return compiled;
}

Result<std::unique_ptr<Runtime>> Runtime::materialise(
    const api::World& world, std::size_t shard, std::uint64_t seed,
    const runtime::ShardRouter* router,
    const std::vector<adl::CompilationResult>& compiled) {
  const bool adl_shard = shard == api::kAdlShard;
  if (adl_shard && world.metrics) obs::Registry::global().set_enabled(true);
  if (adl_shard && world.trace_capacity) {
    obs::Registry::global().set_trace_capacity(*world.trace_capacity);
  }

  auto rt = std::unique_ptr<Runtime>(new Runtime());
  for (const auto& installer : world.installers) installer(rt->types_);

  for (const api::World::HostDecl& decl : world.hosts) {
    if (decl.shard != shard) continue;
    if (rt->network_.node_id(decl.name).valid()) {
      return Error{ErrorCode::kAlreadyExists,
                   "duplicate host '" + decl.name + "'"};
    }
    rt->network_.add_node(decl.name, decl.capacity);
  }
  for (const api::World::LinkDecl& decl : world.links) {
    if (router != nullptr && router->host_shard(decl.a) != shard) continue;
    const util::NodeId a = rt->network_.node_id(decl.a);
    const util::NodeId b = rt->network_.node_id(decl.b);
    if (!a.valid() || !b.valid()) {
      return Error{ErrorCode::kNotFound, "link references unknown host '" +
                                             (a.valid() ? decl.b : decl.a) +
                                             "'"};
    }
    rt->network_.add_duplex_link(a, b, decl.spec);
  }
  if (world.mesh.has_value()) {
    const std::vector<util::NodeId> nodes = rt->network_.node_ids();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        if (!rt->network_.has_link(nodes[i], nodes[j])) {
          rt->network_.add_duplex_link(nodes[i], nodes[j], *world.mesh);
        }
      }
    }
  }

  runtime::Application::Config config = world.config;
  config.seed = seed;
  rt->app_ = std::make_unique<runtime::Application>(rt->loop_, rt->network_,
                                                    rt->types_, config);
  fault::register_fault_aspects(rt->app_->connector_factory());

  // Rule programs from every source merge into one set, installed into RAML
  // after the world is complete.
  adl::RuleProgram rule_program;
  if (adl_shard) {
    for (const adl::CompilationResult& result : compiled) {
      auto deployment = runtime::deploy(result.config, *rt->app_);
      if (!deployment.ok()) return deployment.error();
      const adl::RuleProgram& program = result.program;
      rule_program.rules.insert(rule_program.rules.end(),
                                program.rules.begin(), program.rules.end());
      rule_program.goals.insert(rule_program.goals.end(),
                                program.goals.begin(), program.goals.end());
      rule_program.scenarios.insert(rule_program.scenarios.end(),
                                    program.scenarios.begin(),
                                    program.scenarios.end());
      rule_program.properties.insert(rule_program.properties.end(),
                                     program.properties.begin(),
                                     program.properties.end());
    }
  }

  for (const api::World::DeployDecl& decl : world.deploys) {
    if (router != nullptr && router->host_shard(decl.host) != shard) continue;
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

  for (const api::World::ConnectDecl& decl : world.connects) {
    if (router != nullptr &&
        router->connector_shard(decl.spec.name) != shard) {
      continue;
    }
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
  if (router != nullptr) {
    for (const util::ConnectorId id : rt->app_->connector_ids()) {
      rt->app_->find_connector(id)->set_home_shard(shard);
    }
  }

  for (const api::World::BindDecl& decl : world.binds) {
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

  for (const api::World::RetryDecl& decl : world.retries) {
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
  for (const api::World::AdmissionDecl& decl : world.admissions) {
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
  for (const api::World::BreakerDecl& decl : world.breakers) {
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

  reconfig::ReconfigurationEngine::Options engine_options;
  if (world.verify_mode.has_value()) {
    engine_options.verify_mode = *world.verify_mode;
    engine_options.verify_max_states = world.verify_max_states;
  }
  rt->engine_ = std::make_unique<reconfig::ReconfigurationEngine>(
      *rt->app_, engine_options);
  rt->injector_ = std::make_unique<fault::FaultInjector>(*rt->app_);

  // ADL-declared rules need the MAPE clock to poll their conditions; an ADL
  // world that declares rules gets RAML even without an explicit
  // with_raml() (default period: 10ms).
  const bool needs_raml =
      adl_shard &&
      (world.raml_period.has_value() || !rule_program.rules.empty());
  if (needs_raml) {
    rt->raml_ = std::make_unique<meta::Raml>(
        *rt->app_, world.raml_period.value_or(util::milliseconds(10)));
  }

  if (!rule_program.rules.empty()) {
    // Rules name only ADL-declared instances (sema rejects any other name
    // with `unknown-instance`), so the program binds to its own deployment.
    // watch_faults so "fault.*" triggers reach the event rules.
    rt->raml_->watch_faults(*rt->injector_);
    auto rules = reconfig::RuleSet::install(
        rule_program, *rt->app_, *rt->engine_, rt->injector_.get(), {},
        world.explore_gate);
    if (!rules.ok()) return rules.error();
    rt->raml_->install_rule_set(std::move(rules).value());
  }

  std::vector<fault::FaultScenario> parsed;
  for (const std::string& text : world.scenario_texts) {
    auto scenario = fault::FaultScenario::parse(text);
    if (!scenario.ok()) return scenario.error();
    parsed.push_back(std::move(scenario).value());
  }
  for (const fault::FaultScenario& scenario : world.scenarios) {
    if (Status s = rt->injector_->arm(scenario); !s.ok()) return s.error();
  }
  for (const fault::FaultScenario& scenario : parsed) {
    if (Status s = rt->injector_->arm(scenario); !s.ok()) return s.error();
  }

  return rt;
}

}  // namespace aars
