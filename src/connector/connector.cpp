#include "connector/connector.h"

#include <algorithm>

namespace aars::connector {

using util::Error;
using util::ErrorCode;

Connector::Connector(ConnectorId id, ConnectorSpec spec)
    : id_(id), spec_(std::move(spec)) {
  util::require(!spec_.name.empty(), "connector name required");
  obs::Registry& reg = obs::Registry::global();
  obs_relayed_ = &reg.counter("connector.relayed",
                              {{"policy", to_string(spec_.routing)}});
  obs_verdict_pass_ = &reg.counter("connector.verdict", {{"verdict", "pass"}});
  obs_verdict_block_ =
      &reg.counter("connector.verdict", {{"verdict", "block"}});
  obs_verdict_handled_ =
      &reg.counter("connector.verdict", {{"verdict", "handled"}});
}

Status Connector::add_provider(ComponentId provider) {
  util::require(provider.valid(), "invalid provider id");
  if (has_provider(provider)) {
    return Error{ErrorCode::kAlreadyExists,
                 name() + ": provider already attached"};
  }
  if (spec_.routing == RoutingPolicy::kDirect && !providers_.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 name() + ": direct connector allows a single provider"};
  }
  providers_.push_back(provider);
  return Status::success();
}

Status Connector::remove_provider(ComponentId provider) {
  auto it = std::find(providers_.begin(), providers_.end(), provider);
  if (it == providers_.end()) {
    return Error{ErrorCode::kNotFound, name() + ": provider not attached"};
  }
  const std::size_t index =
      static_cast<std::size_t>(std::distance(providers_.begin(), it));
  providers_.erase(it);
  // Keep the cursor on the provider that was due next: removing an entry
  // before the cursor shifts everything after it down one; removing the due
  // entry itself (or anything after it) leaves the index of the next
  // survivor unchanged.  Wrap when the cursor falls off the end.
  if (round_robin_next_ > index) --round_robin_next_;
  if (round_robin_next_ >= providers_.size()) round_robin_next_ = 0;
  return Status::success();
}

bool Connector::has_provider(ComponentId provider) const {
  return std::find(providers_.begin(), providers_.end(), provider) !=
         providers_.end();
}

Result<ComponentId> Connector::select_target(const Message& message,
                                             const LoadProbe& probe) {
  if (providers_.empty()) {
    return Error{ErrorCode::kUnavailable, name() + ": no provider attached"};
  }
  // Failover support: retried messages carry control.route_avoid, the
  // providers that already failed; prefer any provider not on it.  When the
  // list covers every provider, fall back to normal selection — avoiding
  // everything would turn a degraded service into an unavailable one.
  // The unfiltered case (virtually every message) selects straight from
  // providers_ — no candidate vector is materialised on the hot path.
  const std::vector<ComponentId>& avoid = message.control.route_avoid;
  const auto listed = [&avoid](ComponentId provider) {
    return std::find(avoid.begin(), avoid.end(), provider) != avoid.end();
  };
  const bool filter =
      !avoid.empty() && !std::all_of(providers_.begin(), providers_.end(),
                                     listed);
  const auto allowed = [&](ComponentId provider) {
    return !filter || !listed(provider);
  };
  switch (spec_.routing) {
    case RoutingPolicy::kDirect: {
      for (ComponentId provider : providers_) {
        if (allowed(provider)) return provider;
      }
      return providers_.front();
    }
    case RoutingPolicy::kRoundRobin: {
      // Scan from the cursor for the next allowed provider, then park the
      // cursor just past the pick.  Indexing a filtered pool with the
      // providers_-based cursor (as this used to do) skewed the rotation:
      // a filtered pick could repeat the same provider on the next
      // unfiltered call while another provider lost its turn.
      for (std::size_t step = 0; step < providers_.size(); ++step) {
        const std::size_t i =
            (round_robin_next_ + step) % providers_.size();
        if (allowed(providers_[i])) {
          round_robin_next_ = (i + 1) % providers_.size();
          return providers_[i];
        }
      }
      return providers_[round_robin_next_];
    }
    case RoutingPolicy::kLeastBacklog: {
      ComponentId best;
      std::int64_t best_backlog = 0;
      for (ComponentId provider : providers_) {
        if (!allowed(provider)) continue;
        if (!best.valid()) {
          best = provider;
          if (!probe) return best;
          best_backlog = probe(best);
          continue;
        }
        const std::int64_t backlog = probe(provider);
        if (backlog < best_backlog) {
          best = provider;
          best_backlog = backlog;
        }
      }
      return best;
    }
    case RoutingPolicy::kBroadcast:
      return Error{ErrorCode::kInvalidArgument,
                   name() + ": broadcast connector cannot select one target"};
  }
  return Error{ErrorCode::kInternal, "unknown routing policy"};
}

Status Connector::attach_interceptor(std::shared_ptr<Interceptor> interceptor,
                                     int priority) {
  util::require(interceptor != nullptr, "interceptor required");
  const std::string iname = interceptor->name();
  for (const Slot& slot : interceptors_) {
    if (slot.interceptor->name() == iname) {
      return Error{ErrorCode::kAlreadyExists,
                   name() + ": interceptor '" + iname + "' already attached"};
    }
  }
  interceptors_.push_back(
      Slot{priority, attach_counter_++, std::move(interceptor)});
  std::stable_sort(interceptors_.begin(), interceptors_.end(),
                   [](const Slot& a, const Slot& b) {
                     if (a.priority != b.priority) {
                       return a.priority < b.priority;
                     }
                     return a.order < b.order;
                   });
  rebuild_chain();
  return Status::success();
}

Status Connector::detach_interceptor(const std::string& name_to_remove) {
  for (auto it = interceptors_.begin(); it != interceptors_.end(); ++it) {
    if (it->interceptor->name() == name_to_remove) {
      interceptors_.erase(it);
      rebuild_chain();
      return Status::success();
    }
  }
  return Error{ErrorCode::kNotFound,
               name() + ": interceptor '" + name_to_remove + "' not attached"};
}

void Connector::rebuild_chain() {
  chain_.clear();
  chain_.reserve(interceptors_.size());
  for (const Slot& slot : interceptors_) {
    chain_.push_back(slot.interceptor.get());
  }
}

std::vector<std::string> Connector::interceptor_names() const {
  std::vector<std::string> out;
  out.reserve(interceptors_.size());
  for (const Slot& slot : interceptors_) {
    out.push_back(slot.interceptor->name());
  }
  return out;
}

Interceptor::Verdict Connector::run_before(Message& request,
                                           Result<Value>* reply_out,
                                           std::size_t* seen_out) {
  Interceptor::Verdict verdict = Interceptor::Verdict::kPass;
  std::size_t seen = 0;
  for (Interceptor* interceptor : chain_) {
    ++seen;
    verdict = interceptor->before(request, reply_out);
    if (verdict != Interceptor::Verdict::kPass) break;
  }
  if (seen_out != nullptr) *seen_out = seen;
  switch (verdict) {
    case Interceptor::Verdict::kPass: obs_verdict_pass_->inc(); break;
    case Interceptor::Verdict::kBlock: obs_verdict_block_->inc(); break;
    case Interceptor::Verdict::kHandled: obs_verdict_handled_->inc(); break;
  }
  return verdict;
}

void Connector::run_after(const Message& request, Result<Value>& reply,
                          std::size_t seen) {
  // Unwind only the prefix that saw the request: when run_before stopped
  // early (kBlock/kHandled), interceptors past the stopping point never ran
  // and must not see the reply either.
  for (std::size_t i = std::min(seen, chain_.size()); i-- > 0;) {
    chain_[i]->after(request, reply);
  }
}

}  // namespace aars::connector
