#include "fault/injector.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace aars::fault {

using util::Duration;
using util::Error;
using util::ErrorCode;
using util::SimTime;
using util::Status;

namespace {

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

FaultInjector::FaultInjector(runtime::Application& app) : app_(app) {}

Status FaultInjector::arm(const FaultScenario& scenario) {
  sim::Network& net = app_.network();
  // Resolve every name first so a bad scenario is rejected atomically.
  struct Armed {
    FaultSpec spec;
    NodeId host;
    NodeId a;
    NodeId b;
  };
  std::vector<Armed> armed;
  armed.reserve(scenario.size());
  for (const FaultSpec& spec : scenario.faults()) {
    Armed entry;
    entry.spec = spec;
    if (spec.kind == FaultKind::kStepFault) {
      // Targets the reconfiguration path, not the topology: nothing to
      // resolve.
      armed.push_back(std::move(entry));
      continue;
    }
    if (spec.kind == FaultKind::kHostCrash) {
      entry.host = net.node_id(spec.host);
      if (!entry.host.valid()) {
        return Error{ErrorCode::kNotFound,
                     "scenario references unknown host '" + spec.host + "'"};
      }
    } else {
      entry.a = net.node_id(spec.link_a);
      entry.b = net.node_id(spec.link_b);
      if (!entry.a.valid() || !entry.b.valid()) {
        return Error{ErrorCode::kNotFound,
                     "scenario references unknown link endpoint in '" +
                         spec.link_a + "-" + spec.link_b + "'"};
      }
      if (!net.has_link(entry.a, entry.b) && !net.has_link(entry.b, entry.a)) {
        return Error{ErrorCode::kNotFound, "scenario references missing link " +
                                               spec.link_a + "-" + spec.link_b};
      }
    }
    armed.push_back(std::move(entry));
  }
  for (const Armed& entry : armed) {
    app_.loop().schedule_at(entry.spec.at, [this, entry] {
      begin(entry.spec, entry.host, entry.a, entry.b);
    });
    app_.loop().schedule_at(entry.spec.ends_at(), [this, entry] {
      end(entry.spec, entry.host, entry.a, entry.b);
    });
  }
  return Status::success();
}

Status FaultInjector::arm_text(const std::string& text) {
  auto scenario = FaultScenario::parse(text);
  if (!scenario.ok()) return scenario.error();
  return arm(scenario.value());
}

void FaultInjector::crash_host(NodeId host) {
  if (++crash_depth_[host] > 1) return;
  crashed_.insert(host);
  for (const auto& [from, to] : app_.network().links_of(host)) {
    auto spec = app_.network().remove_link(from, to);
    if (spec.has_value() && severed_.count({from, to}) == 0) {
      severed_[{from, to}] = *spec;
    }
  }
}

void FaultInjector::restore_host(NodeId host) {
  if (--crash_depth_[host] > 0) return;
  crashed_.erase(host);
  // Restore saved links touching this host, but only when the far endpoint
  // is itself up and the link is not held down by an active partition.
  for (auto it = severed_.begin(); it != severed_.end();) {
    const auto& [from, to] = it->first;
    if (from != host && to != host) {
      ++it;
      continue;
    }
    const NodeId other = (from == host) ? to : from;
    auto cut = cut_depth_.find(ordered(from, to));
    const bool partitioned = cut != cut_depth_.end() && cut->second > 0;
    if (crashed_.count(other) > 0 || partitioned) {
      ++it;
      continue;
    }
    app_.network().add_link(from, to, it->second);
    it = severed_.erase(it);
  }
}

void FaultInjector::cut_link(NodeId a, NodeId b) {
  if (++cut_depth_[ordered(a, b)] > 1) return;
  for (const auto& [from, to] :
       {std::make_pair(a, b), std::make_pair(b, a)}) {
    auto spec = app_.network().remove_link(from, to);
    if (spec.has_value() && severed_.count({from, to}) == 0) {
      severed_[{from, to}] = *spec;
    }
  }
}

void FaultInjector::heal_link(NodeId a, NodeId b) {
  if (--cut_depth_[ordered(a, b)] > 0) return;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    auto it = severed_.find(key);
    if (it == severed_.end()) continue;
    // A crashed endpoint keeps the link down until the host restarts.
    if (crashed_.count(key.first) > 0 || crashed_.count(key.second) > 0) {
      continue;
    }
    app_.network().add_link(key.first, key.second, it->second);
    severed_.erase(it);
  }
}

void FaultInjector::degrade_link(NodeId a, NodeId b, Duration extra_latency,
                                 Duration extra_jitter) {
  bool touched = false;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    sim::LinkSpec* spec = app_.network().find_link(key.first, key.second);
    if (spec == nullptr) continue;
    if (pristine_.count(key) == 0) pristine_[key] = *spec;
    spec->latency = pristine_[key].latency + extra_latency;
    spec->jitter = pristine_[key].jitter + extra_jitter;
    touched = true;
  }
  if (touched) ++degrade_depth_[ordered(a, b)];
}

void FaultInjector::restore_link_quality(NodeId a, NodeId b) {
  auto depth = degrade_depth_.find(ordered(a, b));
  if (depth == degrade_depth_.end() || depth->second == 0) return;
  if (--depth->second > 0) return;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    auto saved = pristine_.find(key);
    if (saved == pristine_.end()) continue;
    sim::LinkSpec* spec = app_.network().find_link(key.first, key.second);
    if (spec != nullptr) {
      spec->latency = saved->second.latency;
      spec->jitter = saved->second.jitter;
    }
  }
}

void FaultInjector::set_link_loss(NodeId a, NodeId b, double probability) {
  bool touched = false;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    sim::LinkSpec* spec = app_.network().find_link(key.first, key.second);
    if (spec == nullptr) continue;
    if (pristine_.count(key) == 0) pristine_[key] = *spec;
    spec->loss_probability = probability;
    touched = true;
  }
  if (touched) ++loss_depth_[ordered(a, b)];
}

void FaultInjector::restore_link_loss(NodeId a, NodeId b) {
  auto depth = loss_depth_.find(ordered(a, b));
  if (depth == loss_depth_.end() || depth->second == 0) return;
  if (--depth->second > 0) return;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    auto saved = pristine_.find(key);
    if (saved == pristine_.end()) continue;
    sim::LinkSpec* spec = app_.network().find_link(key.first, key.second);
    if (spec != nullptr) {
      spec->loss_probability = saved->second.loss_probability;
    }
  }
}

std::vector<NodeId> FaultInjector::up_hosts() const {
  std::vector<NodeId> out;
  for (NodeId id : app_.network().node_ids()) {
    if (crashed_.count(id) == 0) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> FaultInjector::down_hosts() const {
  return std::vector<NodeId>(crashed_.begin(), crashed_.end());
}

bool FaultInjector::should_fail_step(std::size_t step, std::size_t n) const {
  for (const auto& [k, of] : step_faults_) {
    if (static_cast<std::size_t>(k) != step) continue;
    if (of > 0 && static_cast<std::size_t>(of) != n) continue;
    return true;
  }
  return false;
}

std::uint64_t FaultInjector::dropped_during_faults() const {
  if (active_ > 0) {
    return dropped_during_faults_ +
           (app_.messages_dropped() - drops_at_activation_);
  }
  return dropped_during_faults_;
}

void FaultInjector::begin(const FaultSpec& spec, NodeId host, NodeId a,
                          NodeId b) {
  switch (spec.kind) {
    case FaultKind::kHostCrash: crash_host(host); break;
    case FaultKind::kLinkPartition: cut_link(a, b); break;
    case FaultKind::kLinkDegrade:
      degrade_link(a, b, spec.extra_latency, spec.extra_jitter);
      break;
    case FaultKind::kLinkLoss:
      set_link_loss(a, b, spec.loss_probability);
      break;
    case FaultKind::kStepFault:
      step_faults_.emplace_back(spec.step, spec.of);
      break;
  }
  note_fault_started();
  publish(spec, FaultEvent::Phase::kBegin, host, a, b);
}

void FaultInjector::end(const FaultSpec& spec, NodeId host, NodeId a,
                        NodeId b) {
  switch (spec.kind) {
    case FaultKind::kHostCrash: restore_host(host); break;
    case FaultKind::kLinkPartition: heal_link(a, b); break;
    case FaultKind::kLinkDegrade: restore_link_quality(a, b); break;
    case FaultKind::kLinkLoss: restore_link_loss(a, b); break;
    case FaultKind::kStepFault: {
      const auto it = std::find(step_faults_.begin(), step_faults_.end(),
                                std::make_pair(spec.step, spec.of));
      if (it != step_faults_.end()) step_faults_.erase(it);
      break;
    }
  }
  note_fault_ended();
  publish(spec, FaultEvent::Phase::kEnd, host, a, b);
}

void FaultInjector::publish(const FaultSpec& spec, FaultEvent::Phase phase,
                            NodeId host, NodeId a, NodeId b) {
  ++injected_;
  FaultEvent event;
  event.kind = spec.kind;
  event.phase = phase;
  event.at = app_.loop().now();
  event.began_at = spec.at;
  event.host = host;
  event.link_a = a;
  event.link_b = b;
  event.subject = spec.subject();

  obs::Registry& reg = obs::Registry::global();
  obs::Counter*& injected = obs_injected_[static_cast<std::size_t>(spec.kind)];
  if (injected == nullptr) {
    injected = &reg.counter("fault.injected", {{"kind", to_string(spec.kind)}});
  }
  injected->inc();
  if (obs_active_ == nullptr) obs_active_ = &reg.gauge("fault.active");
  obs_active_->set(static_cast<double>(active_));
  reg.trace(event.at, obs::TraceKind::kFault, event.subject,
            std::string(to_string(spec.kind)) +
                (phase == FaultEvent::Phase::kBegin ? " begin" : " end"));

  for (const FaultListener& listener : listeners_) listener(event);
}

void FaultInjector::note_fault_started() {
  if (active_++ == 0) drops_at_activation_ = app_.messages_dropped();
}

void FaultInjector::note_fault_ended() {
  if (active_ == 0) return;
  if (--active_ == 0) {
    const std::uint64_t delta =
        app_.messages_dropped() - drops_at_activation_;
    dropped_during_faults_ += delta;
    if (delta > 0) {
      if (obs_dropped_ == nullptr) {
        obs_dropped_ =
            &obs::Registry::global().counter("fault.dropped_during_fault");
      }
      obs_dropped_->inc(delta);
    }
  }
}

}  // namespace aars::fault
