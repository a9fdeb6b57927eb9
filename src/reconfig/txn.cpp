#include "reconfig/txn.h"

#include <algorithm>
#include <utility>

#include "fault/injector.h"
#include "sim/network.h"
#include "util/logging.h"

namespace aars::reconfig {

using util::Error;
using util::ErrorCode;

Txn::Txn(Application& app, ReconfigurationEngine& engine, std::string label,
         Options options)
    : app_(app),
      engine_(engine),
      label_(std::move(label)),
      options_(options) {}

std::shared_ptr<Txn> Txn::create(Application& app,
                                 ReconfigurationEngine& engine,
                                 std::string label, Options options) {
  return std::shared_ptr<Txn>(
      new Txn(app, engine, std::move(label), options));
}

std::shared_ptr<Txn> Txn::create(Application& app,
                                 ReconfigurationEngine& engine,
                                 std::string label) {
  return create(app, engine, std::move(label), Options{});
}

void Txn::enqueue(TxnAction action) {
  util::require(!started_, "txn already running");
  actions_.push_back(std::move(action));
}

Txn& Txn::add_component(const std::string& type, const std::string& name,
                        const std::string& node) {
  TxnAction action;
  action.op = analysis::PlanOp::kAdd;
  action.type = util::Symbol(type);
  action.name = util::Symbol(name);
  action.node_name = util::Symbol(node);
  enqueue(std::move(action));
  return *this;
}

Txn& Txn::remove_component(const std::string& instance) {
  TxnAction action;
  action.op = analysis::PlanOp::kRemove;
  action.instance_name = util::Symbol(instance);
  enqueue(std::move(action));
  return *this;
}

Txn& Txn::replace_component(const std::string& instance,
                            const std::string& type,
                            const std::string& new_name) {
  TxnAction action;
  action.op = analysis::PlanOp::kReplace;
  action.instance_name = util::Symbol(instance);
  action.type = util::Symbol(type);
  action.name =
      util::Symbol(new_name.empty() ? instance + "_new" : new_name);
  enqueue(std::move(action));
  return *this;
}

Txn& Txn::migrate_component(const std::string& instance,
                            const std::string& node) {
  TxnAction action;
  action.op = analysis::PlanOp::kMigrate;
  action.instance_name = util::Symbol(instance);
  action.node_name = util::Symbol(node);
  enqueue(std::move(action));
  return *this;
}

Txn& Txn::rebind(const std::string& instance, const std::string& port,
                 const std::string& connector) {
  TxnAction action;
  action.op = analysis::PlanOp::kRebind;
  action.instance_name = util::Symbol(instance);
  action.port = util::Symbol(port);
  action.connector = app_.connector_id(connector);
  enqueue(std::move(action));
  return *this;
}

Txn& Txn::reroute(const std::string& instance, const std::string& replica) {
  TxnAction action;
  action.op = analysis::PlanOp::kReroute;
  action.instance_name = util::Symbol(instance);
  action.replica_name = util::Symbol(replica);
  enqueue(std::move(action));
  return *this;
}

void Txn::run(Done done) {
  util::require(!started_, "txn already running");
  started_ = true;
  done_ = std::move(done);
  report_.op = "txn";
  report_.started_at = app_.loop().now();
  if (options_.deadline > 0) {
    deadline_at_ = report_.started_at + options_.deadline;
  }
  report_.steps.resize(actions_.size());
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    report_.steps[i].op = actions_[i].op;
  }
  obs::Registry::global().trace(
      report_.started_at, obs::TraceKind::kTxn, label_,
      "begin steps=" + std::to_string(actions_.size()));
  step(0);
}

ComponentId Txn::resolve(ComponentId bound, util::Symbol name) const {
  if (bound.valid()) return bound;
  for (const auto& [entry, id] : scratch_) {
    if (entry == name) return id;
  }
  if (!name.str().empty()) return app_.component_id(name.str());
  return ComponentId::invalid();
}

NodeId Txn::resolve_node(NodeId bound, util::Symbol name) const {
  if (bound.valid()) return bound;
  if (!name.str().empty()) return app_.network().node_id(name.str());
  return NodeId::invalid();
}

ComponentId Txn::live(ComponentId id) const {
  // Follow the remap chain: a journal id may have been re-created more than
  // once across nested undo records.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& [from, to] : remap_) {
      if (from == id) {
        id = to;
        moved = true;
        break;
      }
    }
  }
  return id;
}

Txn::Bindings Txn::capture_bindings(ComponentId id) const {
  Bindings out;
  const component::Component* comp = app_.find_component(id);
  if (comp == nullptr) return out;
  out.reserve(comp->required().size());
  for (const component::RequiredPort& port : comp->required()) {
    out.emplace_back(port.name, app_.binding(id, port.name));
  }
  return out;
}

Txn::Resurrect Txn::capture_resurrect(ComponentId id) const {
  Resurrect r;
  const component::Component* comp = app_.find_component(id);
  if (comp == nullptr) return r;
  r.name = comp->instance_name();
  r.node = app_.placement(id);
  // The state snapshot is taken at the step boundary; messages the
  // component processes between here and the protocol's quiescence point
  // are not re-wound on rollback (see DESIGN.md on invertibility grades).
  r.snapshot = comp->snapshot();
  for (ConnectorId conn : app_.connector_ids()) {
    const connector::Connector* c = app_.find_connector(conn);
    if (c != nullptr && c->has_provider(id)) r.provided.push_back(conn);
  }
  for (auto& [port, conn] : capture_bindings(id)) {
    if (conn.valid()) r.bindings.emplace_back(port, conn);
  }
  return r;
}

void Txn::step(std::size_t index) {
  if (deadline_at_ > 0 && app_.loop().now() >= deadline_at_) {
    abort(index, Error{ErrorCode::kTimeout,
                       "txn deadline expired after step " +
                           std::to_string(index) + "/" +
                           std::to_string(actions_.size())});
    return;
  }
  if (index >= actions_.size()) {
    commit();
    return;
  }
  if (options_.injector != nullptr &&
      options_.injector->should_fail_step(index + 1, actions_.size())) {
    obs::Registry::global().counter("txn.step_faults").inc();
    fail_step(index,
              Error{ErrorCode::kUnavailable,
                    "injected fault: fail-step " + std::to_string(index + 1) +
                        " of " + std::to_string(actions_.size())});
    return;
  }

  const TxnAction& action = actions_[index];
  auto self = shared_from_this();
  const Done done = [this, self, index](const ReconfigReport& sub) {
    on_step_done(index, sub);
  };
  const auto unknown = [&](const std::string& what) {
    fail_step(index, Error{ErrorCode::kNotFound,
                           std::string(to_string(action.op)) + ": unknown " +
                               what});
  };
  const ComponentId target = resolve(action.instance, action.instance_name);
  const NodeId node = resolve_node(action.node, action.node_name);
  UndoRecord undo;
  undo.op = action.op;
  undo.target = target;

  switch (action.op) {
    case analysis::PlanOp::kAdd: {
      if (!node.valid()) {
        return unknown("node '" + action.node_name.str() + "'");
      }
      ReconfigReport sub;
      sub.op = "add";
      sub.started_at = app_.loop().now();
      Result<ComponentId> added = engine_.add_component(
          action.type.str(), action.name.str(), node, Value{});
      if (added.ok()) {
        sub.status = Status::success();
        sub.new_component = added.value();
      } else {
        sub.status = added.error();
      }
      on_step_done(index, sub);
      return;
    }
    case analysis::PlanOp::kRemove:
      if (!target.valid()) return unknown("instance");
      undo.resurrect = capture_resurrect(target);
      pending_undo_ = std::move(undo);
      engine_.remove_component(target, done);
      return;
    case analysis::PlanOp::kReplace:
      if (!target.valid()) return unknown("instance");
      undo.resurrect = capture_resurrect(target);
      pending_undo_ = std::move(undo);
      engine_.replace_component(target, action.type.str(), action.name.str(),
                                done);
      return;
    case analysis::PlanOp::kMigrate:
      if (!target.valid() || !node.valid()) return unknown("instance or node");
      undo.prev_node = app_.placement(target);
      pending_undo_ = std::move(undo);
      engine_.migrate_component(target, node, done);
      return;
    case analysis::PlanOp::kRedeploy:
      if (!target.valid() || !node.valid()) return unknown("instance or node");
      undo.resurrect = capture_resurrect(target);
      pending_undo_ = std::move(undo);
      engine_.redeploy_component(target, node, done);
      return;
    case analysis::PlanOp::kRebind: {
      if (!target.valid() || !action.connector.valid()) {
        return unknown("instance or connector");
      }
      undo.port = action.port.str();
      undo.prev_connector = app_.binding(target, undo.port);
      ReconfigReport sub;
      sub.op = "rebind";
      sub.started_at = app_.loop().now();
      sub.status = engine_.rebind(target, undo.port, action.connector);
      if (sub.ok()) pending_undo_ = std::move(undo);
      on_step_done(index, sub);
      return;
    }
    case analysis::PlanOp::kReroute: {
      const ComponentId replica = resolve(action.replica, action.replica_name);
      if (!target.valid() || !replica.valid()) {
        return unknown("instance or replica");
      }
      undo.replica = replica;
      undo.resurrect = capture_resurrect(target);
      for (ConnectorId conn : undo.resurrect->provided) {
        const connector::Connector* c = app_.find_connector(conn);
        if (c != nullptr && c->has_provider(replica)) {
          undo.replica_already_in.push_back(conn);
        }
      }
      undo.replica_bindings = capture_bindings(replica);
      pending_undo_ = std::move(undo);
      engine_.reroute_to_replica(target, replica, done);
      return;
    }
  }
  fail_step(index, Error{ErrorCode::kInternal, "unknown plan op"});
}

void Txn::on_step_done(std::size_t index, const ReconfigReport& sub) {
  StepOutcome& out = report_.steps[index];
  out.attempted = true;
  out.status = sub.status;
  report_.held_messages += sub.held_messages;
  report_.replayed_messages += sub.replayed_messages;

  if (!sub.ok()) {
    pending_undo_.reset();
    fail_step(index, sub.status);
    return;
  }

  // Step applied: complete and journal its inverse.
  const TxnAction& action = actions_[index];
  if (pending_undo_.has_value()) {
    if (action.op == analysis::PlanOp::kReplace ||
        action.op == analysis::PlanOp::kRedeploy) {
      pending_undo_->created = sub.new_component;
    }
    journal_.push_back(std::move(*pending_undo_));
    pending_undo_.reset();
  } else if (action.op == analysis::PlanOp::kAdd) {
    UndoRecord undo;
    undo.op = action.op;
    undo.created = sub.new_component;
    journal_.push_back(std::move(undo));
    scratch_.emplace_back(action.name, sub.new_component);
  }
  if (action.op == analysis::PlanOp::kReplace ||
      action.op == analysis::PlanOp::kRedeploy) {
    out.swapped_from = journal_.back().target;
    out.swapped_to = sub.new_component;
  } else if (action.op == analysis::PlanOp::kReroute) {
    out.swapped_from = journal_.back().target;
    out.swapped_to = journal_.back().replica;
  }
  step(index + 1);
}

void Txn::fail_step(std::size_t index, Status why) {
  StepOutcome& out = report_.steps[index];
  out.attempted = true;
  out.status = why;
  abort(index, std::move(why));
}

void Txn::commit() {
  report_.verdict = TxnVerdict::kCommitted;
  report_.status = Status::success();
  finish();
}

void Txn::abort(std::size_t failed_index, Status why) {
  report_.verdict = TxnVerdict::kRolledBack;
  report_.status = std::move(why);
  obs::Registry::global().trace(
      app_.loop().now(), obs::TraceKind::kTxn, label_,
      "abort at step " + std::to_string(failed_index + 1) + "/" +
          std::to_string(actions_.size()) + ": " + report_.error_message());
  rollback_cursor_ = journal_.size();
  rollback_next();
}

void Txn::rollback_next() {
  if (rollback_cursor_ == 0) {
    finish();
    return;
  }
  const UndoRecord& record = journal_[--rollback_cursor_];
  ++report_.rollback_steps;
  auto self = shared_from_this();
  apply_undo(record, [this, self] { rollback_next(); });
}

void Txn::destroy_when_drained(ComponentId id, std::function<void()> next) {
  auto self = shared_from_this();
  auto fired = std::make_shared<bool>(false);
  auto timeout = std::make_shared<sim::EventHandle>();
  auto attempt = [this, self, id, next = std::move(next), fired, timeout] {
    if (*fired) return;
    *fired = true;
    // The first of the two wins; the other is cancelled (the timeout) or
    // finds `fired` set (the drain, which cannot be withdrawn).
    timeout->cancel();
    if (app_.find_component(id) != nullptr) {
      if (Status s = app_.destroy(id); !s.ok()) {
        ++report_.rollback_failures;
        AARS_WARN << "txn rollback: could not destroy '" << id.raw()
                  << "': " << s.error().message();
      }
    }
    next();
  };
  // Whichever comes first: the drain, or the quiescence budget — a wedged
  // in-flight message must not wedge the rollback walk.  The timeout is
  // armed first because a component without channels drains at once.
  *timeout = app_.loop().schedule_after(engine_.options().quiescence_timeout,
                                        attempt);
  app_.when_drained(id, std::move(attempt));
}

void Txn::apply_undo(const UndoRecord& record, std::function<void()> next) {
  switch (record.op) {
    case analysis::PlanOp::kAdd: {
      // Inverse of add: detach from every connector (no new traffic), then
      // destroy once in-flight messages drained.
      const ComponentId id = live(record.created);
      if (app_.find_component(id) == nullptr) {
        ++report_.rollback_failures;
        next();
        return;
      }
      for (ConnectorId conn : app_.connector_ids()) {
        connector::Connector* c = app_.find_connector(conn);
        if (c != nullptr && c->has_provider(id)) {
          (void)app_.remove_provider(conn, id);
        }
      }
      destroy_when_drained(id, std::move(next));
      return;
    }
    case analysis::PlanOp::kRemove: {
      // Inverse of remove: resurrect from the boundary snapshot and
      // re-attach. Traffic the forward protocol dropped stays dropped.
      if (const ComponentId id = resurrect(record); id.valid()) {
        provide(id, record.resurrect->provided);
        restore_bindings(id, record.resurrect->bindings);
      }
      next();
      return;
    }
    case analysis::PlanOp::kReplace:
    case analysis::PlanOp::kRedeploy: {
      // Inverse of replace: resurrect the old implementation, point the
      // world back at it, retire the replacement.
      const ComponentId new_id = live(record.created);
      const ComponentId old_id = resurrect(record);
      if (!old_id.valid()) {
        next();
        return;
      }
      if (app_.find_component(new_id) == nullptr) {
        ++report_.rollback_failures;
        next();
        return;
      }
      if (!app_.redirect(new_id, old_id).ok()) ++report_.rollback_failures;
      destroy_when_drained(new_id, std::move(next));
      return;
    }
    case analysis::PlanOp::kMigrate: {
      const ComponentId id = live(record.target);
      if (!app_.migrate(id, record.prev_node).ok()) {
        ++report_.rollback_failures;
      }
      next();
      return;
    }
    case analysis::PlanOp::kRebind:
      restore_bindings(live(record.target),
                       {{record.port, record.prev_connector}});
      next();
      return;
    case analysis::PlanOp::kReroute: {
      // Inverse of reroute: resurrect the retired instance, withdraw the
      // replica from connectors it only joined through the reroute, then
      // re-register the resurrected instance there.  The withdrawal comes
      // first: a direct connector admits a single provider.
      const ComponentId id = resurrect(record);
      if (!id.valid()) {
        next();
        return;
      }
      const Resurrect& r = *record.resurrect;
      const ComponentId rep = live(record.replica);
      for (ConnectorId conn : r.provided) {
        const bool was_member =
            std::find(record.replica_already_in.begin(),
                      record.replica_already_in.end(),
                      conn) != record.replica_already_in.end();
        if (was_member) continue;
        connector::Connector* c = app_.find_connector(conn);
        if (c != nullptr && c->has_provider(rep)) {
          (void)app_.remove_provider(conn, rep);
        }
      }
      provide(id, r.provided);
      restore_bindings(id, r.bindings);
      // The forward redirect moved the dead instance's bindings onto the
      // replica; restore the replica's own pre-step binding state.
      restore_bindings(rep, record.replica_bindings);
      next();
      return;
    }
  }
  next();
}

ComponentId Txn::resurrect(const UndoRecord& record) {
  const Resurrect& r = *record.resurrect;
  Result<ComponentId> created = app_.instantiate(
      r.snapshot.type_name, r.name, r.node, r.snapshot.attributes);
  if (!created.ok()) {
    ++report_.rollback_failures;
    return ComponentId::invalid();
  }
  const ComponentId id = created.value();
  if (!app_.restore_component(id, r.snapshot).ok()) {
    ++report_.rollback_failures;
  }
  remap_.emplace_back(record.target, id);
  return id;
}

void Txn::provide(ComponentId id, const std::vector<ConnectorId>& connectors) {
  for (ConnectorId conn : connectors) {
    if (!app_.add_provider(conn, id).ok()) ++report_.rollback_failures;
  }
}

void Txn::restore_bindings(ComponentId id, const Bindings& bindings) {
  for (const auto& [port, conn] : bindings) {
    const Status s =
        conn.valid() ? app_.bind(id, port, conn) : app_.unbind(id, port);
    if (!s.ok()) ++report_.rollback_failures;
  }
}

void Txn::finish() {
  finished_ = true;
  report_.finished_at = app_.loop().now();
  engine_.record_txn(report_);
  obs::Registry& reg = obs::Registry::global();
  // commit() and abort() are the only ways in: every txn ends committed
  // or rolled back.
  if (report_.verdict == TxnVerdict::kCommitted) {
    reg.trace(report_.finished_at, obs::TraceKind::kTxn, label_,
              "committed steps=" + std::to_string(actions_.size()));
  } else {
    if (report_.rollback_steps > 0) {
      reg.counter("txn.rollback_steps").inc(report_.rollback_steps);
    }
    if (report_.rollback_failures > 0) {
      reg.counter("txn.rollback_failures").inc(report_.rollback_failures);
    }
    reg.trace(report_.finished_at, obs::TraceKind::kTxn, label_,
              "rolled_back undo=" + std::to_string(report_.rollback_steps) +
                  " failures=" + std::to_string(report_.rollback_failures) +
                  ": " + report_.error_message());
  }
  if (done_) {
    // Move out first: the callback may drop the last owning reference.
    Done done = std::move(done_);
    done_ = nullptr;
    done(report_);
  }
}

}  // namespace aars::reconfig
