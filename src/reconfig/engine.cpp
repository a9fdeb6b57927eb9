#include "reconfig/engine.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"

namespace aars::reconfig {

using component::Snapshot;
using util::Error;
using util::ErrorCode;

namespace {

/// Strips a previously generated "_r<n>" suffix so repeated repairs of the
/// same component never compound names ("a_r1_r2_r3"...) — generated names
/// feed metric labels and trace events, where unbounded suffix chains would
/// explode cardinality over long chaos runs.
std::string base_instance_name(const std::string& name) {
  const auto pos = name.rfind("_r");
  if (pos == std::string::npos || pos + 2 >= name.size()) return name;
  for (std::size_t i = pos + 2; i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return name;
  }
  return name.substr(0, pos);
}

}  // namespace

ReconfigurationEngine::ReconfigurationEngine(Application& app)
    : ReconfigurationEngine(app, Options{}) {}

ReconfigurationEngine::ReconfigurationEngine(Application& app, Options options)
    : app_(app), options_(options) {}

std::string ReconfigurationEngine::node_name(NodeId node) {
  // Node ids are dense from 1 and nodes are never removed.
  const sim::Network& network = app_.network();
  if (!node.valid() || node.raw() > network.node_count()) return {};
  return network.node(node).name();
}

const adl::Diagnostics& ReconfigurationEngine::review_step(
    const analysis::PlanStep& step) {
  analysis::model_from(app_, snapshot_);
  for (std::size_t i = 0; i < remembered_; ++i) {
    const Review& review = reviews_[i];
    if (review.step == step && review.model == snapshot_) {
      return review.findings;
    }
  }
  Review& review = reviews_[next_review_];
  next_review_ = (next_review_ + 1) % kRememberedReviews;
  remembered_ = std::min(remembered_ + 1, kRememberedReviews);
  analysis::VerifierOptions vopts;
  vopts.max_states = options_.verify_max_states;
  review.findings = analysis::verify_plan(snapshot_, {step}, vopts).report;
  review.step = step;
  // The snapshot becomes the key; the model it displaces is the next
  // snapshot's buffer.
  std::swap(review.model, snapshot_);
  return review.findings;
}

Status ReconfigurationEngine::verify_step(const analysis::PlanStep& step,
                                          const std::string& op) {
  if (options_.verify_mode == analysis::VerifyMode::kOff) {
    return Status::success();
  }
  const adl::Diagnostics& findings = review_step(step);
  if (findings.ok()) return Status::success();
  obs::Registry& reg = obs::Registry::global();
  const std::string verdict = findings.first_error();
  if (options_.verify_mode == analysis::VerifyMode::kWarn) {
    op_counter(obs_warned_, "verify.warned", op).inc();
    reg.trace(app_.loop().now(), obs::TraceKind::kReconfig, op,
              "verify-warn: " + verdict);
    AARS_WARN << "plan verification (" << op << "): " << verdict
              << " (mode=warn, proceeding)";
    return Status::success();
  }
  ++verify_rejected_;
  op_counter(obs_rejected_, "verify.rejected", op).inc();
  reg.trace(app_.loop().now(), obs::TraceKind::kReconfig, op,
            "verify-reject: " + verdict);
  return Error{ErrorCode::kVerificationFailed,
               "plan verification failed: " + verdict};
}

bool ReconfigurationEngine::redeploy_would_verify(ComponentId component,
                                                  NodeId destination) {
  if (options_.verify_mode == analysis::VerifyMode::kOff) return true;
  const component::Component* comp = app_.find_component(component);
  if (comp == nullptr) return false;
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kRedeploy;
  step.instance = comp->instance_name();
  step.node = node_name(destination);
  return review_step(step).ok();
}

Result<ComponentId> ReconfigurationEngine::add_component(
    const std::string& type, const std::string& name, NodeId node,
    const Value& attributes) {
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kAdd;
  step.instance = name;
  step.type = type;
  step.node = node_name(node);
  if (Status s = verify_step(step, "add"); !s.ok()) return s.error();
  return app_.instantiate(type, name, node, attributes);
}

Status ReconfigurationEngine::rebind(ComponentId caller,
                                     const std::string& port,
                                     ConnectorId new_connector) {
  const component::Component* comp = app_.find_component(caller);
  const connector::Connector* conn = app_.find_connector(new_connector);
  if (comp != nullptr && conn != nullptr) {
    analysis::PlanStep step;
    step.op = analysis::PlanOp::kRebind;
    step.instance = comp->instance_name();
    step.port = port;
    step.connector = conn->name();
    if (Status s = verify_step(step, "rebind"); !s.ok()) return s;
  }
  // bind() validates interface compatibility against the new connector's
  // providers before overwriting the existing binding.
  return app_.bind(caller, port, new_connector);
}

void ReconfigurationEngine::wait_quiescent(ComponentId component,
                                           SimTime deadline,
                                           std::function<void(bool)> next) {
  const component::Component* comp = app_.find_component(component);
  if (comp == nullptr) {
    next(false);
    return;
  }
  if (comp->quiescent()) {
    next(true);
    return;
  }
  if (app_.loop().now() >= deadline) {
    next(false);
    return;
  }
  app_.loop().schedule_after(options_.quiescence_poll,
                             [this, component, deadline, next] {
                               wait_quiescent(component, deadline, next);
                             });
}

void ReconfigurationEngine::record_phase(const std::string& op,
                                         const char* phase, SimTime since) {
  const SimTime now = app_.loop().now();
  histogram(op, phase).observe(static_cast<double>(now - since));
  obs::Registry::global().trace(now, obs::TraceKind::kReconfig, op, phase);
}

obs::HistogramMetric& ReconfigurationEngine::histogram(
    const std::string& op, std::string_view phase) {
  for (const PhaseHistogram& known : histograms_) {
    if (known.phase == phase && known.op == op) return *known.metric;
  }
  obs::Registry& reg = obs::Registry::global();
  obs::HistogramMetric& metric =
      phase.empty()
          ? reg.histogram("reconfig.duration_us", {{"op", op}})
          : reg.histogram("reconfig.phase_us",
                          {{"op", op}, {"phase", std::string(phase)}});
  histograms_.push_back(PhaseHistogram{op, std::string(phase), &metric});
  return metric;
}

obs::Counter& ReconfigurationEngine::op_counter(std::vector<OpCounter>& known,
                                               const char* name,
                                               const std::string& op) {
  for (const OpCounter& counter : known) {
    if (counter.op == op) return *counter.metric;
  }
  obs::Counter& metric = obs::Registry::global().counter(name, {{"op", op}});
  known.push_back(OpCounter{op, &metric});
  return metric;
}

obs::Counter& ReconfigurationEngine::counter(obs::Counter*& slot,
                                            const char* name) {
  if (slot == nullptr) slot = &obs::Registry::global().counter(name);
  return *slot;
}

void ReconfigurationEngine::record_txn(const ReconfigReport& report) {
  TxnMetrics& metrics = txn_metrics_[static_cast<std::size_t>(report.verdict)];
  if (metrics.duration_us == nullptr) {
    obs::Registry& reg = obs::Registry::global();
    metrics.duration_us = &reg.histogram(
        "txn.duration_us", {{"verdict", to_string(report.verdict)}});
    metrics.settled = &reg.counter(report.verdict == TxnVerdict::kCommitted
                                       ? "txn.committed"
                                       : "txn.rolled_back");
  }
  metrics.duration_us->observe(static_cast<double>(report.duration()));
  metrics.settled->inc();
  if (report.rollback_steps > 0) {
    counter(obs_rollback_steps_, "txn.rollback_steps")
        .inc(report.rollback_steps);
  }
  if (report.rollback_failures > 0) {
    counter(obs_rollback_failures_, "txn.rollback_failures")
        .inc(report.rollback_failures);
  }
}

void ReconfigurationEngine::record_step_fault() {
  counter(obs_step_faults_, "txn.step_faults").inc();
}

void ReconfigurationEngine::record_explore_findings(std::size_t findings) {
  counter(obs_explore_findings_, "rules.explore_findings").inc(findings);
}

// --- phases ----------------------------------------------------------------

ReconfigReport ReconfigurationEngine::start(const char* op) {
  ++started_;
  ReconfigReport report;
  report.op = op;
  report.started_at = app_.loop().now();
  return report;
}

bool ReconfigurationEngine::admit(ReconfigReport& report,
                                  const analysis::PlanStep& step,
                                  const Done& done) {
  if (Status s = verify_step(step, report.op); !s.ok()) {
    finish(std::move(report), std::move(s), done);
    return false;
  }
  obs::Registry::global().trace(report.started_at, obs::TraceKind::kReconfig,
                                report.op, "start");
  return true;
}

void ReconfigurationEngine::drain(ComponentId component, ReconfigReport report,
                                  Done done, Next next) {
  // New traffic is held from here on; messages in transit still arrive.
  app_.block_channels_to(component);
  app_.when_drained(component, [this, report = std::move(report),
                                done = std::move(done),
                                next = std::move(next)]() mutable {
    record_phase(report.op, "drain", report.started_at);
    next(std::move(report), std::move(done));
  });
}

void ReconfigurationEngine::quiesce(ComponentId component,
                                    ReconfigReport report, Done done,
                                    Next next) {
  drain(component, std::move(report), std::move(done),
        [this, component, next = std::move(next)](ReconfigReport report,
                                                  Done done) mutable {
          const SimTime drained_at = app_.loop().now();
          wait_quiescent(
              component, drained_at + options_.quiescence_timeout,
              [this, component, drained_at, report = std::move(report),
               done = std::move(done),
               next = std::move(next)](bool quiescent) mutable {
                record_phase(report.op, "quiesce", drained_at);
                if (!quiescent) {
                  resume(component);
                  finish(std::move(report),
                         Error{ErrorCode::kNotQuiescent,
                               "component did not reach a reconfiguration "
                               "point"},
                         done);
                  return;
                }
                next(std::move(report), std::move(done));
              });
        });
}

bool ReconfigurationEngine::passivate(ComponentId component,
                                      std::uint64_t overflows_before,
                                      ReconfigReport& report,
                                      const Done& done) {
  // A hold buffer that overflowed while we were quiescing already shed
  // traffic: abort cleanly rather than stretch the outage.
  Status s = app_.hold_overflows_to(component) > overflows_before
                 ? Error{ErrorCode::kOverloaded,
                         "hold buffer overflowed during quiescence"}
                 : app_.find_component(component)->passivate();
  if (s.ok()) return true;
  resume(component);
  finish(std::move(report), std::move(s), done);
  return false;
}

void ReconfigurationEngine::swap(ComponentId old, const std::string& type,
                                 const std::string& name, NodeId node,
                                 const Snapshot& snapshot, const char* phase,
                                 SimTime since, ReconfigReport report,
                                 const Done& done) {
  // Create the new module, transfer the state strongly, then redirect
  // bindings and channels (sequence state carries over).
  Result<ComponentId> created =
      app_.instantiate(type, name, node, snapshot.attributes);
  Status s = created.ok() ? app_.restore_component(created.value(), snapshot)
                          : Status(created.error());
  if (s.ok()) {
    report.held_messages = app_.held_to(old);
    s = app_.redirect(old, created.value());
  }
  if (!s.ok()) {
    if (created.ok()) (void)app_.destroy(created.value());
    (void)app_.activate_component(old);
    resume(old);
    finish(std::move(report), std::move(s), done);
    return;
  }
  hand_over(old, created.value(), phase, since, std::move(report), done);
}

void ReconfigurationEngine::hand_over(ComponentId old, ComponentId successor,
                                      const char* phase, SimTime since,
                                      ReconfigReport report,
                                      const Done& done) {
  report.replayed_messages = resume(successor);
  record_phase(report.op, phase, since);
  if (Status s = app_.destroy(old); !s.ok()) {
    AARS_WARN << report.op << ": retired component not removed: "
              << s.error().message();
  }
  report.new_component = successor;
  finish(std::move(report), Status::success(), done);
}

std::size_t ReconfigurationEngine::resume(ComponentId component) {
  app_.unblock_channels_to(component);
  return app_.replay_held(component);
}

void ReconfigurationEngine::finish(ReconfigReport report, Status status,
                                   const Done& done) {
  report.status = std::move(status);
  report.finished_at = app_.loop().now();
  if (report.ok()) ++succeeded_;
  histogram(report.op, {}).observe(static_cast<double>(report.duration()));
  obs::Registry::global().trace(
      report.finished_at, obs::TraceKind::kReconfig, report.op,
      report.ok() ? "done" : "failed: " + report.error_message());
  if (done) done(report);
}

// --- protocols -------------------------------------------------------------

void ReconfigurationEngine::remove_component(ComponentId component,
                                             Done done) {
  ReconfigReport report = start("remove");
  const component::Component* comp = app_.find_component(component);
  if (comp == nullptr) {
    finish(std::move(report), Error{ErrorCode::kNotFound, "no such component"},
           done);
    return;
  }
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kRemove;
  step.instance = comp->instance_name();
  if (!admit(report, step, done)) return;
  // No hold-overflow guard: the held traffic is dropped anyway.
  quiesce(component, std::move(report), std::move(done),
          [this, component](ReconfigReport report, Done done) {
            // Held messages towards a removed component are rejected
            // explicitly, each call through its own exit, as the relay
            // fails a message that finds its provider gone.
            for (runtime::Channel* chan : app_.channels_to(component)) {
              while (auto held = chan->take_held()) {
                chan->record_drop();
                ++report.held_messages;
                if (held->reject) {
                  held->reject(std::move(held->message),
                               Error{ErrorCode::kUnavailable,
                                     "provider removed"});
                }
              }
            }
            finish(std::move(report), app_.destroy(component), done);
          });
}

void ReconfigurationEngine::replace_component(ComponentId old_component,
                                              const std::string& new_type,
                                              const std::string& new_name,
                                              Done done) {
  ReconfigReport report = start("replace");
  const component::Component* old_comp = app_.find_component(old_component);
  if (old_comp == nullptr) {
    finish(std::move(report), Error{ErrorCode::kNotFound, "no such component"},
           done);
    return;
  }
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kReplace;
  step.instance = old_comp->instance_name();
  step.type = new_type;
  if (!admit(report, step, done)) return;
  const std::uint64_t overflows_before =
      app_.hold_overflows_to(old_component);
  quiesce(old_component, std::move(report), std::move(done),
          [this, old_component, new_type, new_name, overflows_before](
              ReconfigReport report, Done done) {
            const SimTime quiescent_at = app_.loop().now();
            if (!passivate(old_component, overflows_before, report, done)) {
              return;
            }
            // Encode the module context; the new module lives on the same
            // node.
            swap(old_component, new_type, new_name,
                 app_.placement(old_component),
                 app_.find_component(old_component)->snapshot(),
                 "swap_replay", quiescent_at, std::move(report), done);
          });
}

void ReconfigurationEngine::migrate_component(ComponentId component,
                                              NodeId destination, Done done) {
  ReconfigReport report = start("migrate");
  const component::Component* comp = app_.find_component(component);
  if (comp == nullptr) {
    finish(std::move(report), Error{ErrorCode::kNotFound, "no such component"},
           done);
    return;
  }
  const NodeId source = app_.placement(component);
  if (source == destination) {
    // Already there: succeeds before screening.
    finish(std::move(report), Status::success(), done);
    return;
  }
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kMigrate;
  step.instance = comp->instance_name();
  step.node = node_name(destination);
  if (!admit(report, step, done)) return;
  const std::uint64_t overflows_before = app_.hold_overflows_to(component);
  quiesce(component, std::move(report), std::move(done),
          [this, component, source, destination, overflows_before](
              ReconfigReport report, Done done) {
            if (!passivate(component, overflows_before, report, done)) return;
            // Charge the state transfer to the network.
            const Snapshot snapshot =
                app_.find_component(component)->snapshot();
            const std::size_t bytes = 256 + snapshot.state.byte_size() +
                                      snapshot.attributes.byte_size();
            if (app_.network().route(source, destination).empty()) {
              // Unreachable destination: abort, reactivate in place.
              (void)app_.activate_component(component);
              resume(component);
              finish(std::move(report),
                     Error{ErrorCode::kUnavailable, "destination unreachable"},
                     done);
              return;
            }
            sim::TransferOutcome transfer = app_.network().transfer(
                source, destination, bytes, app_.rng());
            if (!transfer.delivered) {
              // Reliable state transfer: a lost transfer is retransmitted,
              // which shows up as extra delay rather than failure.
              transfer.delay *= 2;
            }
            report.held_messages = app_.held_to(component);
            app_.loop().schedule_after(
                transfer.delay, [this, component, destination,
                                 report = std::move(report),
                                 done = std::move(done)]() mutable {
                  Status s = app_.migrate(component, destination);
                  if (s.ok()) {
                    (void)app_.activate_component(component);
                    report.replayed_messages = resume(component);
                  }
                  finish(std::move(report), std::move(s), done);
                });
          });
}

void ReconfigurationEngine::redeploy_component(ComponentId failed,
                                               NodeId destination, Done done) {
  ReconfigReport report = start("redeploy");
  const component::Component* comp = app_.find_component(failed);
  if (comp == nullptr) {
    finish(std::move(report), Error{ErrorCode::kNotFound, "no such component"},
           done);
    return;
  }
  if (app_.placement(failed) == destination) {
    // Nothing to repair: the component already lives on the target host.
    report.new_component = failed;
    finish(std::move(report), Status::success(), done);
    return;
  }
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kRedeploy;
  step.instance = comp->instance_name();
  step.node = node_name(destination);
  if (!admit(report, step, done)) return;
  const std::string new_name = base_instance_name(comp->instance_name()) +
                               "_r" + std::to_string(++redeploys_);
  // In-flight messages towards the dead host fail on their own (no route),
  // so the drain completes without the host.  No quiescence wait: the host
  // is gone.
  drain(failed, std::move(report), std::move(done),
        [this, failed, destination, new_name](ReconfigReport report,
                                              Done done) {
          const SimTime drained_at = app_.loop().now();
          component::Component* comp = app_.find_component(failed);
          if (comp == nullptr) {
            finish(std::move(report),
                   Error{ErrorCode::kNotFound, "component vanished"}, done);
            return;
          }
          // The failed instance is not consulted again: passivate if
          // possible so the snapshot is clean, but a wedged component
          // cannot veto its own repair.
          (void)comp->passivate();
          swap(failed, comp->type_name(), new_name, destination,
               comp->snapshot(), "redeploy_replay", drained_at,
               std::move(report), done);
        });
}

void ReconfigurationEngine::reroute_to_replica(ComponentId dead,
                                               ComponentId replica,
                                               Done done) {
  ReconfigReport report = start("reroute");
  const component::Component* dead_comp = app_.find_component(dead);
  const component::Component* replica_comp = app_.find_component(replica);
  Status invalid = Status::success();
  if (dead_comp == nullptr) {
    invalid = Error{ErrorCode::kNotFound, "no such component"};
  } else if (replica_comp == nullptr) {
    invalid = Error{ErrorCode::kNotFound, "no such replica"};
  } else if (dead == replica) {
    invalid =
        Error{ErrorCode::kInvalidArgument, "replica is the dead component"};
  }
  if (!invalid.ok()) {
    finish(std::move(report), std::move(invalid), done);
    return;
  }
  analysis::PlanStep step;
  step.op = analysis::PlanOp::kReroute;
  step.instance = dead_comp->instance_name();
  step.replica = replica_comp->instance_name();
  if (!admit(report, step, done)) return;
  // The replica already runs: no quiescence wait, nothing to passivate.
  drain(dead, std::move(report), std::move(done),
        [this, dead, replica](ReconfigReport report, Done done) {
          const SimTime drained_at = app_.loop().now();
          report.held_messages = app_.held_to(dead);
          if (Status s = app_.redirect(dead, replica); !s.ok()) {
            resume(dead);
            finish(std::move(report), std::move(s), done);
            return;
          }
          hand_over(dead, replica, "reroute_replay", drained_at,
                    std::move(report), done);
        });
}

}  // namespace aars::reconfig
