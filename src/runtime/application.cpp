#include "runtime/application.h"

#include <algorithm>

#include "util/logging.h"

namespace aars::runtime {

using component::InterfaceDescription;
using component::MessageKind;
using connector::DeliveryMode;
using connector::Interceptor;
using connector::RoutingPolicy;
using util::Duration;
using util::Error;
using util::ErrorCode;
using util::SimTime;

namespace {

/// Per-interceptor CPU work charged on the serving node, in work units:
/// the glue cost of layered interception.
constexpr double kInterceptorWork = 0.01;

}  // namespace

Application::Application(sim::EventLoop& loop, sim::Network& network,
                         component::ComponentRegistry& registry,
                         Config config)
    : loop_(loop),
      network_(network),
      registry_(registry),
      config_(config),
      rng_(config.seed) {
  obs::Registry& reg = obs::Registry::global();
  obs_calls_ = &reg.counter("runtime.calls");
  obs_failed_calls_ = &reg.counter("runtime.failed_calls");
  obs_retries_ = &reg.counter("runtime.retries");
  obs_retry_exhausted_ = &reg.counter("runtime.retry_exhausted");
  obs_call_timeout_ = &reg.counter("runtime.call_timeout");
  obs_call_latency_ = &reg.histogram("runtime.call_latency_us");
  load_probe_ = [this](ComponentId provider) -> std::int64_t {
    const NodeId node = placement(provider);
    if (!node.valid()) return std::numeric_limits<std::int64_t>::max();
    return network_.node(node).backlog(loop_.now());
  };
}

Application::RelayContext* Application::acquire_relay_context() {
  if (relay_free_.empty()) {
    relay_contexts_.push_back(std::make_unique<RelayContext>());
    return relay_contexts_.back().get();
  }
  RelayContext* context = relay_free_.back();
  relay_free_.pop_back();
  return context;
}

void Application::release_relay_context(RelayContext* context) {
  // Drop payload/callback references before parking so pooled contexts do
  // not pin COW value trees or captured state between relays.
  context->message = Message{};
  context->callback = nullptr;
  context->result = Value{};
  relay_free_.push_back(context);
}

// --- construction -------------------------------------------------------------

Result<ComponentId> Application::instantiate(const std::string& type,
                                             const std::string& instance_name,
                                             NodeId node,
                                             const Value& attributes) {
  if (components_by_name_.count(instance_name)) {
    return Error{ErrorCode::kAlreadyExists,
                 "instance '" + instance_name + "' already exists"};
  }
  Result<std::unique_ptr<Component>> created =
      registry_.create(type, instance_name);
  if (!created.ok()) return created.error();
  std::unique_ptr<Component> instance = std::move(created).value();
  const ComponentId id = component_ids_.next();
  instance->set_id(id);
  if (Status s = instance->initialize(attributes); !s.ok()) return s.error();
  if (Status s = instance->activate(); !s.ok()) return s.error();
  instance->set_sender(make_sender(id));
  components_by_name_[instance_name] = id;
  components_.emplace(id, Placed{std::move(instance), node});
  return id;
}

Status Application::destroy(ComponentId id) {
  auto it = components_.find(id);
  if (it == components_.end()) {
    return Error{ErrorCode::kNotFound, "no such component"};
  }
  if (in_flight_to(id) > 0 || held_to(id) > 0) {
    return Error{ErrorCode::kNotQuiescent,
                 it->second.component->instance_name() +
                     ": messages in flight or held; drain first"};
  }
  // Detach from all connectors.
  for (auto& [cid, conn] : connectors_) {
    if (conn->has_provider(id)) {
      (void)conn->remove_provider(id);
    }
  }
  // Remove channels feeding it.
  std::erase(blocked_, id);
  channel_memo_ = nullptr;
  for (auto chan_it = channels_.begin(); chan_it != channels_.end();) {
    if (chan_it->first.second == id) {
      chan_it = channels_.erase(chan_it);
    } else {
      ++chan_it;
    }
  }
  // Remove bindings from it.
  for (auto bind_it = bindings_.begin(); bind_it != bindings_.end();) {
    if (bind_it->first.caller == id) {
      bind_it = bindings_.erase(bind_it);
    } else {
      ++bind_it;
    }
  }
  (void)it->second.component->remove();
  components_by_name_.erase(it->second.component->instance_name());
  components_.erase(it);
  return Status::success();
}

Result<ConnectorId> Application::create_connector(
    ConnectorSpec spec, const std::vector<std::string>& aspects) {
  if (connectors_by_name_.count(spec.name)) {
    return Error{ErrorCode::kAlreadyExists,
                 "connector '" + spec.name + "' already exists"};
  }
  Result<std::unique_ptr<Connector>> created =
      factory_.create(std::move(spec), aspects);
  if (!created.ok()) return created.error();
  std::unique_ptr<Connector> conn = std::move(created).value();
  const ConnectorId id = conn->id();
  connectors_by_name_[conn->name()] = id;
  connectors_.emplace(id, std::move(conn));
  return id;
}

Status Application::remove_connector(ConnectorId id) {
  auto it = connectors_.find(id);
  if (it == connectors_.end()) {
    return Error{ErrorCode::kNotFound, "no such connector"};
  }
  for (const auto& [key, chan] : channels_) {
    if (key.first == id && (chan->in_flight() > 0 || chan->held_count() > 0)) {
      return Error{ErrorCode::kNotQuiescent,
                   it->second->name() + ": channel traffic pending"};
    }
  }
  channel_memo_ = nullptr;
  for (auto chan_it = channels_.begin(); chan_it != channels_.end();) {
    if (chan_it->first.first == id) {
      chan_it = channels_.erase(chan_it);
    } else {
      ++chan_it;
    }
  }
  for (auto bind_it = bindings_.begin(); bind_it != bindings_.end();) {
    if (bind_it->second == id) {
      bind_it = bindings_.erase(bind_it);
    } else {
      ++bind_it;
    }
  }
  connectors_by_name_.erase(it->second->name());
  connectors_.erase(it);
  return Status::success();
}

Status Application::add_provider(ConnectorId connector, ComponentId provider) {
  Connector* conn = find_connector(connector);
  if (conn == nullptr) return Error{ErrorCode::kNotFound, "no such connector"};
  Component* comp = find_component(provider);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  if (Status s = fits_bound_ports(*conn, *comp); !s.ok()) return s;
  return conn->add_provider(provider);
}

Status Application::fits_bound_ports(const Connector& conn,
                                     const Component& provider) const {
  for (const auto& [key, bound_conn] : bindings_) {
    if (bound_conn != conn.id()) continue;
    const Component* caller = find_component(key.caller);
    if (caller == nullptr) continue;
    for (const component::RequiredPort& port : caller->required()) {
      if (port.name != key.port) continue;
      if (Status s = provider.provided().satisfies(port.interface); !s.ok()) {
        return Error{ErrorCode::kIncompatible,
                     conn.name() + ": provider " + provider.instance_name() +
                         " incompatible with bound port " + key.port + ": " +
                         s.error().message()};
      }
    }
  }
  return Status::success();
}

Status Application::remove_provider(ConnectorId connector,
                                    ComponentId provider) {
  Connector* conn = find_connector(connector);
  if (conn == nullptr) return Error{ErrorCode::kNotFound, "no such connector"};
  return conn->remove_provider(provider);
}

Status Application::bind(ComponentId caller, const std::string& port,
                         ConnectorId connector) {
  Component* comp = find_component(caller);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  Connector* conn = find_connector(connector);
  if (conn == nullptr) return Error{ErrorCode::kNotFound, "no such connector"};
  const component::RequiredPort* declared = nullptr;
  for (const component::RequiredPort& p : comp->required()) {
    if (p.name == port) {
      declared = &p;
      break;
    }
  }
  if (declared == nullptr) {
    return Error{ErrorCode::kNotFound,
                 comp->instance_name() + " has no required port '" + port +
                     "'"};
  }
  for (ComponentId provider : conn->providers()) {
    const Component* prov = find_component(provider);
    if (prov == nullptr) continue;
    if (Status s = prov->provided().satisfies(declared->interface); !s.ok()) {
      return Error{ErrorCode::kIncompatible,
                   "binding " + comp->instance_name() + "." + port + ": " +
                       s.error().message()};
    }
  }
  bindings_[BindingKey{caller, port}] = connector;
  return Status::success();
}

Status Application::unbind(ComponentId caller, const std::string& port) {
  auto it = bindings_.find(BindingKey{caller, port});
  if (it == bindings_.end()) {
    return Error{ErrorCode::kNotFound, "port not bound"};
  }
  bindings_.erase(it);
  return Status::success();
}

// --- lookup -------------------------------------------------------------------

Component* Application::find_component(ComponentId id) {
  auto it = components_.find(id);
  return it == components_.end() ? nullptr : it->second.component.get();
}

const Component* Application::find_component(ComponentId id) const {
  auto it = components_.find(id);
  return it == components_.end() ? nullptr : it->second.component.get();
}

ComponentId Application::component_id(const std::string& name) const {
  auto it = components_by_name_.find(name);
  return it == components_by_name_.end() ? ComponentId::invalid() : it->second;
}

Connector* Application::find_connector(ConnectorId id) {
  auto it = connectors_.find(id);
  return it == connectors_.end() ? nullptr : it->second.get();
}

ConnectorId Application::connector_id(const std::string& name) const {
  auto it = connectors_by_name_.find(name);
  return it == connectors_by_name_.end() ? ConnectorId::invalid()
                                         : it->second;
}

NodeId Application::placement(ComponentId id) const {
  auto it = components_.find(id);
  return it == components_.end() ? NodeId::invalid() : it->second.node;
}

std::vector<ComponentId> Application::component_ids() const {
  std::vector<ComponentId> out;
  out.reserve(components_.size());
  for (const auto& [id, comp] : components_) out.push_back(id);
  return out;
}

std::vector<ConnectorId> Application::connector_ids() const {
  std::vector<ConnectorId> out;
  out.reserve(connectors_.size());
  for (const auto& [id, conn] : connectors_) out.push_back(id);
  return out;
}

ConnectorId Application::binding(ComponentId caller,
                                 const std::string& port) const {
  auto it = bindings_.find(BindingKey{caller, port});
  return it == bindings_.end() ? ConnectorId::invalid() : it->second;
}

std::vector<Channel*> Application::channels_to(ComponentId provider) {
  std::vector<Channel*> out;
  for (auto& [key, chan] : channels_) {
    if (key.second == provider) out.push_back(chan.get());
  }
  return out;
}

Channel& Application::channel(ConnectorId connector, ComponentId provider) {
  const auto key = std::make_pair(connector, provider);
  if (channel_memo_ != nullptr && channel_memo_key_ == key) {
    return *channel_memo_;
  }
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    auto chan =
        std::make_unique<Channel>(channel_ids_.next(), connector, provider);
    chan->set_audit_window(config_.channel_audit_window);
    if (config_.channel_hold_limit != 0) {
      chan->set_hold_limit(config_.channel_hold_limit);
    } else if (const Connector* conn = find_connector(connector)) {
      chan->set_hold_limit(conn->spec().queue_capacity);
    }
    if (std::ranges::count(blocked_, provider) != 0) chan->block();
    it = channels_.emplace(key, std::move(chan)).first;
  }
  channel_memo_key_ = key;
  channel_memo_ = it->second.get();
  return *channel_memo_;
}

// --- invocation ----------------------------------------------------------------

namespace {

// Which failures are worth retrying: transient infrastructure trouble, not
// admission decisions. kRejected in particular covers interceptor kBlock
// short-circuits — retrying those would re-ask a question already answered.
// kOverloaded is deliberately absent: it is a backpressure signal, and
// retrying against it would amplify exactly the load being shed.
bool retryable(ErrorCode code) {
  return code == ErrorCode::kTimeout || code == ErrorCode::kUnavailable ||
         code == ErrorCode::kResourceExhausted || code == ErrorCode::kInternal;
}

/// Work charged on the serving node: the glue of each interceptor plus the
/// operation's cost, scaled by control.work_scale (quality-dependent work).
double node_work(const Connector& conn, const Component& provider,
                 const Message& message) {
  return kInterceptorWork * static_cast<double>(conn.interceptor_count()) +
         provider.work_cost(message.operation) *
             message.control.work_scale.value_or(1.0);
}

}  // namespace

bool Application::intercept(Connector& conn, Message& message,
                            Result<Value>& outcome, std::size_t& seen) {
  conn.count_relay();
  const Interceptor::Verdict verdict =
      conn.run_before(message, &outcome, &seen);
  if (verdict == Interceptor::Verdict::kPass) {
    seen = Connector::kAllInterceptors;
    return true;
  }
  if (verdict == Interceptor::Verdict::kBlock && outcome.ok()) {
    outcome = Error{ErrorCode::kRejected,
                    conn.name() + ": blocked by interceptor"};
  }
  return false;
}

Result<ComponentId> Application::route(Connector& conn,
                                       const Message& message) {
  // Interceptors (injectors) may force a target via control.route_to,
  // bypassing the connector's policy.
  if (const ComponentId forced = message.control.route_to; forced.valid()) {
    if (find_component(forced) == nullptr) {
      return Error{ErrorCode::kNotFound, "injected route target missing"};
    }
    return forced;
  }
  if (conn.routing() == RoutingPolicy::kBroadcast) {
    if (message.kind == MessageKind::kRequest) {
      return Error{ErrorCode::kInvalidArgument,
                   conn.name() + ": cannot request over broadcast"};
    }
    // An event fans out; with no provider it fails like any other call.
    if (!conn.providers().empty()) return ComponentId{};
  }
  return conn.select_target(message, load_probe());
}

void Application::finish_call(Connector& conn, const Message& message,
                              Result<Value>& result, NodeId origin,
                              const ResponseCallback& callback,
                              SimTime departed, std::size_t seen) {
  conn.run_after(message, result, seen);
  if (!result.ok() && callback &&
      maybe_schedule_retry(conn, message, result.error(), origin, callback,
                           departed)) {
    return;
  }
  record_call(conn.id(), message, result, loop_.now() - departed, callback);
}

void Application::record_call(ConnectorId connector, const Message& message,
                              Result<Value>& result, Duration latency,
                              const ResponseCallback& callback) {
  ++total_calls_;
  obs_calls_->inc();
  if (!result.ok()) {
    ++failed_calls_;
    obs_failed_calls_->inc();
  }
  obs_call_latency_->observe(static_cast<double>(latency));
  const CallRecord record{connector, message.target, message.operation,
                          latency,   result.ok(),    loop_.now()};
  for (const CallListener& listener : listeners_) listener(record);
  if (callback) callback(std::move(result), latency);
}

bool Application::maybe_schedule_retry(Connector& conn, const Message& message,
                                       const util::Error& error, NodeId origin,
                                       const ResponseCallback& callback,
                                       SimTime departed) {
  const component::Control& control = message.control;
  if (!control.retry_budget || !retryable(error.code())) return false;
  const std::int32_t attempt = control.retry_attempt;
  if (attempt >= *control.retry_budget) {
    ++retries_exhausted_;
    obs_retry_exhausted_->inc();
    return false;
  }
  // Exponential backoff with a cap: base * 2^attempt, clamped.
  const int shift = attempt < 30 ? attempt : 30;
  const Duration backoff =
      std::min<Duration>(control.backoff_base << shift, control.backoff_cap);

  Message retry = message;
  ++retry.control.retry_attempt;
  if (control.failover && message.target.valid()) {
    // Remember the failed provider so select_target can fail over.
    retry.control.route_avoid.push_back(message.target);
  }
  retry.target = ComponentId{};
  retry.sequence = 0;

  const ConnectorId conn_id = conn.id();
  ++pending_retries_;
  ++retries_scheduled_;
  obs_retries_->inc();
  loop_.schedule_after(backoff, [this, conn_id, retry, origin, callback,
                                 departed, error]() mutable {
    --pending_retries_;
    Connector* target_conn = find_connector(conn_id);
    if (target_conn == nullptr) {
      // The connector was removed while the retry waited out its backoff:
      // finish the call with the original failure.
      Result<Value> failure = std::move(error);
      record_call(conn_id, retry, failure, loop_.now() - departed, callback);
      return;
    }
    relay_event_driven(*target_conn, std::move(retry), origin, callback);
  });
  return true;
}

Application::ResponseCallback Application::arm_timeout(
    Message& message, ResponseCallback callback) {
  if (!callback || message.kind != MessageKind::kRequest) return callback;
  if (message.control.timeout <= 0) return callback;
  if (message.control.timeout_armed) {
    return callback;  // a retry of a call whose deadline is already running
  }
  message.control.timeout_armed = true;
  const Duration deadline = message.control.timeout;
  auto fired = std::make_shared<bool>(false);
  auto inner = std::make_shared<ResponseCallback>(std::move(callback));
  loop_.schedule_after(deadline, [this, fired, inner, deadline] {
    if (*fired) return;
    *fired = true;
    ++calls_timed_out_;
    obs_call_timeout_->inc();
    (*inner)(Error{ErrorCode::kTimeout, "deadline exceeded"}, deadline);
  });
  return [fired, inner](Result<Value> result, Duration latency) {
    if (*fired) return;
    *fired = true;
    (*inner)(std::move(result), latency);
  };
}

void Application::invoke_async(ConnectorId connector, util::Symbol operation,
                               const Value& args, NodeId origin,
                               ResponseCallback callback,
                               component::Control control) {
  Connector* conn = find_connector(connector);
  util::require(conn != nullptr, "invoke_async: unknown connector");
  Message message;
  message.id = message_ids_.next();
  message.kind = MessageKind::kRequest;
  message.operation = operation;
  message.payload = args;
  message.control = std::move(control);
  message.sent_at = loop_.now();
  relay_event_driven(*conn, std::move(message), origin, std::move(callback));
}

Status Application::send_event(ConnectorId connector, util::Symbol operation,
                               const Value& args, NodeId origin,
                               component::Control control) {
  Message event;
  event.operation = operation;
  event.payload = args;
  event.control = std::move(control);
  return send_event(connector, std::move(event), origin);
}

Status Application::send_event(ConnectorId connector, Message event,
                               NodeId origin) {
  Connector* conn = find_connector(connector);
  if (conn == nullptr) return Error{ErrorCode::kNotFound, "no such connector"};
  event.id = message_ids_.next();
  event.kind = MessageKind::kEvent;
  event.sent_at = loop_.now();
  relay_event_driven(*conn, std::move(event), origin, nullptr);
  return Status::success();
}

void Application::relay_event_driven(Connector& conn, Message message,
                                     NodeId origin,
                                     ResponseCallback callback) {
  const SimTime departed = loop_.now();
  Result<Value> outcome = Value{};
  std::size_t seen = 0;
  if (!intercept(conn, message, outcome, seen)) {
    loop_.schedule_after(0, [this, &conn, message, outcome, origin, callback,
                             departed, seen]() mutable {
      finish_call(conn, message, outcome, origin, callback, departed, seen);
    });
    return;
  }
  // Deadline: interceptors may have stamped a timeout above; arm it once
  // per logical call (retries share the original deadline).
  callback = arm_timeout(message, std::move(callback));
  const Result<ComponentId> target = route(conn, message);
  if (!target.ok()) {
    outcome = target.error();
    finish_call(conn, message, outcome, origin, callback, departed);
    return;
  }
  if (target.value().valid()) {
    relay_to(conn, std::move(message), target.value(), origin,
             std::move(callback), departed);
    return;
  }
  // A broadcast event: one copy per provider.  Copy the target list: a
  // hold-overflow reject can re-enter the connector while this loop runs.
  const std::vector<ComponentId> targets = conn.broadcast_targets();
  for (ComponentId provider : targets) {
    Message copy = message;
    if (targets.size() > 1) copy.id = message_ids_.next();
    relay_to(conn, std::move(copy), provider, origin, callback, departed);
  }
}

void Application::relay_to(Connector& conn, Message message, ComponentId target,
                           NodeId origin, ResponseCallback callback,
                           SimTime departed) {
  message.target = target;
  Channel& chan = channel(conn.id(), target);
  message.sequence = chan.next_sequence();
  if (!chan.blocked()) {
    deliver(conn, chan, std::move(message), origin, std::move(callback),
            departed);
    return;
  }
  HeldMessage held;
  held.message = message;
  held.priority = static_cast<int>(component::message_priority(message));
  held.resume = [this, &conn, &chan, origin, callback,
                 departed](Message replayed) {
    deliver(conn, chan, std::move(replayed), origin, callback, departed);
  };
  held.reject = [this, &conn, origin, callback, departed](
                    Message rejected, util::Error error) {
    Result<Value> outcome = std::move(error);
    finish_call(conn, rejected, outcome, origin, callback, departed);
  };
  Status parked = chan.hold(std::move(held));
  if (!parked.ok()) {
    chan.record_drop();
    Result<Value> outcome = Error{
        parked.error().code(), conn.name() + ": " + parked.error().message()};
    finish_call(conn, message, outcome, origin, callback, departed);
  }
}

void Application::deliver(Connector& conn, Channel& chan, Message message,
                          NodeId origin, ResponseCallback callback,
                          SimTime departed) {
  chan.on_depart();
  const NodeId target_node = placement(message.target);
  if (!target_node.valid()) {
    drop(conn, chan, message,
         Error{ErrorCode::kUnavailable, "provider has no placement"}, origin,
         callback, departed);
    return;
  }
  const sim::TransferOutcome transfer =
      network_.transfer(origin, target_node, message.byte_size(), rng_);
  if (!transfer.delivered) {
    drop(conn, chan, message, Error{ErrorCode::kTimeout, "network loss"},
         origin, callback, departed);
    return;
  }
  // From here the relay rides a pooled context: each hop schedules a
  // {this, context} closure, small enough to stay inline in the event
  // loop's slab.
  RelayContext* context = acquire_relay_context();
  context->message = std::move(message);
  context->callback = std::move(callback);
  context->origin = origin;
  context->departed = departed;
  context->conn = &conn;
  context->chan = &chan;
  loop_.schedule_after(transfer.delay,
                       [this, context] { relay_arrive(context); });
}

void Application::drop(Connector& conn, Channel& chan, const Message& message,
                       Error error, NodeId origin,
                       const ResponseCallback& callback, SimTime departed) {
  chan.record_drop();
  chan.on_arrive();
  Result<Value> outcome = std::move(error);
  finish_call(conn, message, outcome, origin, callback, departed);
}

void Application::relay_arrive(RelayContext* context) {
  const auto placed = components_.find(context->message.target);
  if (placed == components_.end()) {
    drop(*context->conn, *context->chan, context->message,
         Error{ErrorCode::kUnavailable, "provider removed"}, context->origin,
         context->callback, context->departed);
    release_relay_context(context);
    return;
  }
  // FIFO processing on the serving node, read on arrival: a migrate while
  // the message was in transit moves its work to the new node.
  context->node_id = placed->second.node;
  const double work =
      node_work(*context->conn, *placed->second.component, context->message);
  const SimTime completion =
      network_.node(context->node_id).execute(loop_.now(), work);
  loop_.schedule_at(completion, [this, context] { relay_execute(context); });
}

void Application::relay_execute(RelayContext* context) {
  Component* provider = find_component(context->message.target);
  // Handle before acknowledging arrival: drain waiters (the
  // quiescence protocol) must only fire once the message's effect has
  // been applied.
  context->result =
      provider == nullptr
          ? Result<Value>(Error{ErrorCode::kUnavailable, "provider removed"})
          : provider->handle(context->message);
  context->chan->record_delivery(context->message.sequence);
  context->chan->record_delay(loop_.now() - context->message.sent_at);
  context->chan->on_arrive();
  if (context->message.kind != MessageKind::kRequest) {
    relay_respond(context);
    return;
  }
  // Response trip back to the origin.
  const sim::TransferOutcome back = network_.transfer(
      context->node_id, context->origin,
      component::response_byte_size(context->message, Value{}), rng_);
  const Duration back_delay = back.delivered ? back.delay : 0;
  loop_.schedule_after(back_delay,
                       [this, context] { relay_respond(context); });
}

void Application::relay_respond(RelayContext* context) {
  finish_call(*context->conn, context->message, context->result,
              context->origin, context->callback, context->departed);
  release_relay_context(context);
}

Application::CallOutcome Application::invoke_sync(ConnectorId connector,
                                                  util::Symbol operation,
                                                  const Value& args,
                                                  NodeId origin) {
  CallOutcome outcome{Value{}, 0};
  Connector* conn = find_connector(connector);
  if (conn == nullptr) {
    outcome.result = Error{ErrorCode::kNotFound, "no such connector"};
    return outcome;
  }
  Message message;
  message.id = message_ids_.next();
  message.kind = MessageKind::kRequest;
  message.operation = operation;
  message.payload = args;
  message.sent_at = loop_.now();
  std::size_t seen = 0;
  if (intercept(*conn, message, outcome.result, seen)) {
    relay_in_line(*conn, message, origin, outcome);
  }
  // The call completes within the current event, so it departed `latency`
  // before now as far as its record is concerned.
  finish_call(*conn, message, outcome.result, origin, nullptr,
              loop_.now() - outcome.latency, seen);
  return outcome;
}

void Application::relay_in_line(Connector& conn, Message& message,
                                NodeId origin, CallOutcome& outcome) {
  const Result<ComponentId> target = route(conn, message);
  if (!target.ok()) {
    outcome.result = target.error();
    return;
  }
  message.target = target.value();
  Channel& chan = channel(conn.id(), message.target);
  message.sequence = chan.next_sequence();
  const auto placed = components_.find(message.target);
  if (chan.blocked() || placed == components_.end()) {
    chan.record_drop();
    outcome.result = Error{ErrorCode::kUnavailable,
                           chan.blocked() ? conn.name() + ": channel blocked"
                                          : std::string("provider removed")};
    return;
  }
  Component& provider = *placed->second.component;
  const NodeId target_node = placed->second.node;
  const sim::TransferOutcome out_trip =
      network_.transfer(origin, target_node, message.byte_size(), rng_);
  if (!out_trip.delivered) {
    chan.record_drop();
    outcome.result = Error{ErrorCode::kTimeout, "network loss"};
    return;
  }
  const SimTime completion = network_.node(target_node).execute(
      loop_.now() + out_trip.delay, node_work(conn, provider, message));
  outcome.latency = completion - loop_.now();
  chan.record_delivery(message.sequence);
  chan.record_delay(outcome.latency);
  outcome.result = provider.handle(message);
  const sim::TransferOutcome back_trip = network_.transfer(
      target_node, origin, component::response_byte_size(message, Value{}),
      rng_);
  if (back_trip.delivered) outcome.latency += back_trip.delay;
}

component::Component::Sender Application::make_sender(ComponentId caller) {
  return [this, caller](const std::string& port, util::Symbol operation,
                        const Value& args) -> Result<Value> {
    const ConnectorId conn_id = binding(caller, port);
    if (!conn_id.valid()) {
      return Error{ErrorCode::kUnavailable, "port '" + port + "' not bound"};
    }
    const NodeId origin = placement(caller);
    CallOutcome outcome = invoke_sync(conn_id, operation, args, origin);
    return std::move(outcome.result);
  };
}

// --- management ------------------------------------------------------------------

Status Application::passivate_component(ComponentId id) {
  Component* comp = find_component(id);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  return comp->passivate();
}

Status Application::activate_component(ComponentId id) {
  Component* comp = find_component(id);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  return comp->activate();
}

Status Application::block_channels_to(ComponentId id) {
  std::erase(blocked_, id);
  blocked_.push_back(id);
  for (Channel* chan : channels_to(id)) chan->block();
  return Status::success();
}

Status Application::unblock_channels_to(ComponentId id) {
  std::erase(blocked_, id);
  for (Channel* chan : channels_to(id)) chan->unblock();
  return Status::success();
}

std::size_t Application::in_flight_to(ComponentId id) const {
  std::size_t total = 0;
  for (const auto& [key, chan] : channels_) {
    if (key.second == id) total += chan->in_flight();
  }
  return total;
}

std::size_t Application::held_to(ComponentId id) const {
  std::size_t total = 0;
  for (const auto& [key, chan] : channels_) {
    if (key.second == id) total += chan->held_count();
  }
  return total;
}

void Application::when_drained(ComponentId id,
                               std::function<void()> callback) {
  std::vector<Channel*> chans = channels_to(id);
  if (chans.empty()) {
    callback();
    return;
  }
  // Wait for every channel; the last one fires the callback.
  auto remaining = std::make_shared<std::size_t>(chans.size());
  auto shared_cb = std::make_shared<std::function<void()>>(std::move(callback));
  for (Channel* chan : chans) {
    chan->notify_drained([remaining, shared_cb]() {
      if (--*remaining == 0) (*shared_cb)();
    });
  }
}

std::size_t Application::replay_held(ComponentId id) {
  std::size_t replayed = 0;
  for (Channel* chan : channels_to(id)) {
    while (auto held = chan->take_held()) {
      held->resume(std::move(held->message));
      ++replayed;
    }
  }
  return replayed;
}

Status Application::redirect(ComponentId from, ComponentId to) {
  Component* target = find_component(to);
  if (target == nullptr) {
    return Error{ErrorCode::kNotFound, "redirect target missing"};
  }
  // Refuse before changing anything: a connector that `to` already serves
  // would refuse it a second time half-way through the swap, and `to` must
  // satisfy every port bound to a connector it takes over, as
  // add_provider requires.
  for (const auto& [cid, conn] : connectors_) {
    if (to == from || !conn->has_provider(from)) continue;
    if (conn->has_provider(to)) {
      return Error{ErrorCode::kAlreadyExists,
                   conn->name() + ": provider already attached"};
    }
    if (Status s = fits_bound_ports(*conn, *target); !s.ok()) return s;
  }
  // Serving side: swap provider registration in every connector.
  for (auto& [cid, conn] : connectors_) {
    if (conn->has_provider(from)) {
      if (Status s = conn->remove_provider(from); !s.ok()) return s;
      if (Status s = conn->add_provider(to); !s.ok()) return s;
    }
  }
  // Re-key channels so sequence/audit state carries over; a block moves
  // with them.
  std::replace(blocked_.begin(), blocked_.end(), from, to);
  channel_memo_ = nullptr;
  std::vector<std::pair<ConnectorId, ComponentId>> to_move;
  for (const auto& [key, chan] : channels_) {
    if (key.second == from) to_move.push_back(key);
  }
  for (const auto& key : to_move) {
    auto node = channels_.extract(key);
    node.mapped()->set_provider(to);
    node.mapped()->retarget_held(to);
    node.key() = std::make_pair(key.first, to);
    util::require(channels_.count(node.key()) == 0,
                  "redirect: channel to new provider already exists");
    channels_.insert(std::move(node));
  }
  // Caller side: move outgoing bindings of `from` to `to`.
  std::vector<std::pair<BindingKey, ConnectorId>> moved_bindings;
  for (auto it = bindings_.begin(); it != bindings_.end();) {
    if (it->first.caller == from) {
      moved_bindings.emplace_back(BindingKey{to, it->first.port}, it->second);
      it = bindings_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [key, conn] : moved_bindings) bindings_[key] = conn;
  return Status::success();
}

Status Application::migrate(ComponentId id, NodeId destination) {
  auto it = components_.find(id);
  if (it == components_.end()) {
    return Error{ErrorCode::kNotFound, "no such component"};
  }
  // Destination must exist (throws InvariantViolation when bogus).
  network_.node(destination);
  it->second.node = destination;
  return Status::success();
}

Result<Snapshot> Application::snapshot_component(ComponentId id) const {
  const Component* comp = find_component(id);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  if (!comp->quiescent()) {
    return Error{ErrorCode::kNotQuiescent,
                 comp->instance_name() + ": snapshot while active"};
  }
  return comp->snapshot();
}

Status Application::restore_component(ComponentId id,
                                      const Snapshot& snapshot) {
  Component* comp = find_component(id);
  if (comp == nullptr) return Error{ErrorCode::kNotFound, "no such component"};
  return comp->restore(snapshot);
}

// --- metrics ------------------------------------------------------------------

void Application::add_call_listener(CallListener listener) {
  util::require(static_cast<bool>(listener), "listener required");
  listeners_.push_back(std::move(listener));
}

std::uint64_t Application::messages_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [key, chan] : channels_) total += chan->dropped();
  return total;
}

std::uint64_t Application::messages_duplicated() const {
  std::uint64_t total = 0;
  for (const auto& [key, chan] : channels_) total += chan->duplicated();
  return total;
}

std::size_t Application::queue_depth(ConnectorId connector) const {
  std::size_t total = 0;
  for (const auto& [key, chan] : channels_) {
    if (key.first == connector) total += chan->in_flight() + chan->held_count();
  }
  return total;
}

std::uint64_t Application::hold_overflows_to(ComponentId component) const {
  std::uint64_t total = 0;
  for (const auto& [key, chan] : channels_) {
    if (key.second == component) total += chan->hold_overflows();
  }
  return total;
}

}  // namespace aars::runtime
