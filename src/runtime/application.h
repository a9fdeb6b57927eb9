// The application runtime: components + connectors + channels on a
// simulated topology, driven by one event loop.
//
// Every call passes one pipeline (interceptors, routing, channel, network,
// the provider's node and handler) in one of two timings:
//   * queued — invoke_async()/send_event(): each hop is an event.  Blocked
//     channels hold messages and replay them on unblock, which is what
//     makes strong dynamic reconfiguration (§1) observable.
//   * in-line — invoke_sync(), behind Component::call(): resolved within the
//     current event, its latency added up; a blocked channel fails it, and
//     it is never retried nor given a deadline.
// Every attempt whose before() ran leaves through finish_call(): after()
// runs once over the interceptors that saw it, then a retry or one record.
//
// The management section (passivate/block/drain/swap/migrate/...) provides
// the intercession primitives the reconfiguration engine and RAML build on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "component/component.h"
#include "component/registry.h"
#include "connector/connector.h"
#include "connector/factory.h"
#include "obs/metrics.h"
#include "runtime/channel.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/errors.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/symbol.h"

namespace aars::runtime {

using component::Component;
using component::Message;
using component::Snapshot;
using connector::Connector;
using connector::ConnectorSpec;
using util::ComponentId;
using util::ConnectorId;
using util::NodeId;
using util::Result;
using util::Status;
using util::Value;

/// Completion record for one finished call, fed to listeners (QoS monitors,
/// benchmarks, RAML sensors).
struct CallRecord {
  ConnectorId connector;
  ComponentId provider;
  util::Symbol operation;
  util::Duration latency = 0;
  bool ok = true;
  util::SimTime completed_at = 0;
};

class Application {
 public:
  struct Config {
    std::uint64_t seed = 42;
    /// Quiescence hold-buffer bound applied to every channel; 0 sizes each
    /// channel's buffer by its connector's queue_capacity (the legacy
    /// rule).  At million-session scale the hold buffers are a real memory
    /// term, so capacity runs pin them explicitly.
    std::size_t channel_hold_limit = 0;
    /// Out-of-order span each channel's duplicate audit tracks exactly
    /// (entries beyond it force the delivered watermark forward).
    std::size_t channel_audit_window = 1024;
  };

  using ResponseCallback =
      std::function<void(Result<Value>, util::Duration latency)>;
  using CallListener = std::function<void(const CallRecord&)>;

  Application(sim::EventLoop& loop, sim::Network& network,
              component::ComponentRegistry& registry, Config config);
  Application(sim::EventLoop& loop, sim::Network& network,
              component::ComponentRegistry& registry)
      : Application(loop, network, registry, Config{}) {}

  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return network_; }
  component::ComponentRegistry& registry() { return registry_; }
  connector::ConnectorFactory& connector_factory() { return factory_; }
  util::Rng& rng() { return rng_; }

  // --- construction ------------------------------------------------------------
  Result<ComponentId> instantiate(const std::string& type,
                                  const std::string& instance_name,
                                  NodeId node, const Value& attributes);
  Status destroy(ComponentId component);
  Result<ConnectorId> create_connector(
      ConnectorSpec spec, const std::vector<std::string>& aspects = {});
  Status remove_connector(ConnectorId connector);
  /// Attaches a serving component; checks its provided interface against
  /// the required interfaces of ports already bound to the connector.
  Status add_provider(ConnectorId connector, ComponentId provider);
  Status remove_provider(ConnectorId connector, ComponentId provider);
  /// Binds a required port of `caller` to a connector; checks interface
  /// compatibility against every attached provider.
  Status bind(ComponentId caller, const std::string& port,
              ConnectorId connector);
  Status unbind(ComponentId caller, const std::string& port);

  // --- lookup & introspection -----------------------------------------------
  Component* find_component(ComponentId id);
  const Component* find_component(ComponentId id) const;
  ComponentId component_id(const std::string& instance_name) const;
  Connector* find_connector(ConnectorId id);
  ConnectorId connector_id(const std::string& name) const;
  NodeId placement(ComponentId component) const;
  std::vector<ComponentId> component_ids() const;
  std::vector<ConnectorId> connector_ids() const;
  /// The connector a caller port is bound to (invalid id when unbound).
  ConnectorId binding(ComponentId caller, const std::string& port) const;
  /// All channels feeding `provider`.
  std::vector<Channel*> channels_to(ComponentId provider);
  /// Lazily creates the channel (connector -> provider).
  Channel& channel(ConnectorId connector, ComponentId provider);

  // --- invocation ----------------------------------------------------------------
  /// External request entering through `connector` from `origin`; fully
  /// event-driven. The callback fires when the response returns to origin.
  /// `control` seeds the message's control envelope (e.g. its work_scale
  /// multiplies the provider's operation cost — quality-dependent work —
  /// and its priority sets the traffic class).
  void invoke_async(ConnectorId connector, util::Symbol operation,
                    const Value& args, NodeId origin,
                    ResponseCallback callback,
                    component::Control control = {});
  /// One-way event from an external origin through `connector`.
  Status send_event(ConnectorId connector, util::Symbol operation,
                    const Value& args, NodeId origin,
                    component::Control control = {});
  /// Sends `event`'s operation, payload, headers and control as a one-way
  /// event under a fresh id; its other fields must be unset.  Re-sends an
  /// event held elsewhere (reconfig::CrossShardMigrator's replay).
  Status send_event(ConnectorId connector, Message event, NodeId origin);
  /// Immediate call used for nested component-to-component invocations and
  /// micro-benchmarks; returns in-line with cost accounting.
  struct CallOutcome {
    Result<Value> result;
    util::Duration latency = 0;
  };
  CallOutcome invoke_sync(ConnectorId connector, util::Symbol operation,
                          const Value& args, NodeId origin);

  // --- management (intercession primitives) -------------------------------------
  Status passivate_component(ComponentId component);
  Status activate_component(ComponentId component);
  /// Blocks the channels to `component`, also those opened before the
  /// unblock; redirect() moves the block, destroy() drops it.
  Status block_channels_to(ComponentId component);
  Status unblock_channels_to(ComponentId component);
  std::size_t in_flight_to(ComponentId component) const;
  std::size_t held_to(ComponentId component) const;
  /// Fires `callback` once no message is in flight towards `component`
  /// (held messages do not count: they are parked, not in transit).
  void when_drained(ComponentId component, std::function<void()> callback);
  /// Replays messages held on channels to `component` (after unblock).
  std::size_t replay_held(ComponentId component);
  /// Re-targets every channel and connector from `from` to `to` and moves
  /// port bindings; the integrity accounting carries over.
  Status redirect(ComponentId from, ComponentId to);
  Status migrate(ComponentId component, NodeId destination);
  Result<Snapshot> snapshot_component(ComponentId component) const;
  Status restore_component(ComponentId component, const Snapshot& snapshot);

  // --- metrics -------------------------------------------------------------------
  void add_call_listener(CallListener listener);
  std::uint64_t total_calls() const { return total_calls_; }
  std::uint64_t failed_calls() const { return failed_calls_; }
  /// Retries currently waiting out a backoff window.
  std::size_t pending_retries() const { return pending_retries_; }
  /// Retried relays + budget exhaustions + deadline expiries so far.
  std::uint64_t retries_scheduled() const { return retries_scheduled_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }
  std::uint64_t calls_timed_out() const { return calls_timed_out_; }
  /// Aggregated over all channels.
  std::uint64_t messages_dropped() const;
  std::uint64_t messages_duplicated() const;
  /// Messages queued towards `connector`'s providers: in flight + held.
  /// Admission gates probe this as the backpressure signal.
  std::size_t queue_depth(ConnectorId connector) const;
  /// Hold-buffer overflows on channels to `component` (see Channel::hold).
  std::uint64_t hold_overflows_to(ComponentId component) const;

 private:
  struct BindingKey {
    ComponentId caller;
    std::string port;
    bool operator<(const BindingKey& other) const {
      if (caller != other.caller) return caller < other.caller;
      return port < other.port;
    }
  };

  /// Pooled per-relay state for the event-driven path.  The message,
  /// callback and bookkeeping ride one recycled context through the hop
  /// chain (arrive → execute → respond), so each hop's closure captures two
  /// pointers and stays inline in the event loop's slab — no per-message
  /// heap traffic in steady state.
  struct RelayContext {
    Message message;
    ResponseCallback callback;
    NodeId origin;
    NodeId node_id;
    util::SimTime departed = 0;
    Connector* conn = nullptr;
    Channel* chan = nullptr;
    Result<Value> result{Value{}};
  };
  RelayContext* acquire_relay_context();
  void release_relay_context(RelayContext* context);

  // Stages both timings share; intercept and route are inline for the
  // in-line call (defined in application.cpp, their only user).
  /// before(); false when an interceptor answered (`outcome`, `seen`).
  inline bool intercept(Connector& conn, Message& message,
                        Result<Value>& outcome, std::size_t& seen);
  /// route_to, else the connector's pick; invalid for a broadcast event.
  inline Result<ComponentId> route(Connector& conn, const Message& message);
  /// The one exit: after() over the first `seen` interceptors, then a retry
  /// or record_call() with latency now - `departed`.
  void finish_call(Connector& conn, const Message& message,
                   Result<Value>& result, NodeId origin,
                   const ResponseCallback& callback, util::SimTime departed,
                   std::size_t seen = Connector::kAllInterceptors);
  /// Counts the call, tells the listeners, then hands `result` on.
  void record_call(ConnectorId connector, const Message& message,
                   Result<Value>& result, util::Duration latency,
                   const ResponseCallback& callback);
  /// Retry driver: when a failed request carries a retry budget (stamped by
  /// fault::RetryInterceptor) and budget remains, schedules a re-relay after
  /// an exponential backoff and returns true (the call is not finished yet).
  bool maybe_schedule_retry(Connector& conn, const Message& message,
                            const util::Error& error, NodeId origin,
                            const ResponseCallback& callback,
                            util::SimTime departed);

  // The queued timing.  When `callback` is empty the message is one-way.
  void relay_event_driven(Connector& conn, Message message, NodeId origin,
                          ResponseCallback callback);
  /// Stamps target/sequence and either parks the message (blocked channel)
  /// or starts the delivery chain.
  void relay_to(Connector& conn, Message message, ComponentId target,
                NodeId origin, ResponseCallback callback,
                util::SimTime departed);
  void deliver(Connector& conn, Channel& chan, Message message, NodeId origin,
               ResponseCallback callback, util::SimTime departed);
  /// Fails a relay lost before its provider handled it.
  void drop(Connector& conn, Channel& chan, const Message& message,
            util::Error error, NodeId origin, const ResponseCallback& callback,
            util::SimTime departed);
  /// Delivery-chain hops (each scheduled as a {this, context} closure).
  void relay_arrive(RelayContext* context);
  void relay_execute(RelayContext* context);
  void relay_respond(RelayContext* context);
  /// Wraps `callback` with a deadline when the message carries a timeout;
  /// the loser of the race (completion vs. deadline) is suppressed.
  ResponseCallback arm_timeout(Message& message, ResponseCallback callback);
  /// The in-line timing of the stages after interception.
  void relay_in_line(Connector& conn, Message& message, NodeId origin,
                     CallOutcome& outcome);
  /// Refuses `provider` for `conn` (kIncompatible) unless it satisfies the
  /// required interface of every port already bound to `conn`.
  Status fits_bound_ports(const Connector& conn,
                          const Component& provider) const;
  const connector::LoadProbe& load_probe() const { return load_probe_; }
  component::Component::Sender make_sender(ComponentId caller);

  sim::EventLoop& loop_;
  sim::Network& network_;
  component::ComponentRegistry& registry_;
  Config config_;
  util::Rng rng_;
  connector::ConnectorFactory factory_;

  util::IdGenerator<ComponentId> component_ids_;
  util::IdGenerator<ChannelId> channel_ids_;
  struct Placed {  // an instance and the node it runs on
    std::unique_ptr<Component> component;
    NodeId node;
  };
  std::map<ComponentId, Placed> components_;
  std::map<std::string, ComponentId> components_by_name_;
  std::map<ConnectorId, std::unique_ptr<Connector>> connectors_;
  std::map<std::string, ConnectorId> connectors_by_name_;
  std::map<BindingKey, ConnectorId> bindings_;
  std::map<std::pair<ConnectorId, ComponentId>, std::unique_ptr<Channel>>
      channels_;
  /// One-entry memo for channel(): steady-state relays hit the same
  /// (connector, provider) pair repeatedly. Invalidated wherever channels_
  /// erases or re-keys entries (destroy, remove_connector, redirect).
  std::pair<ConnectorId, ComponentId> channel_memo_key_;
  Channel* channel_memo_ = nullptr;
  /// Blocked providers (a few at a time, kept without a node allocation per
  /// block): a channel opened to one starts blocked.
  std::vector<ComponentId> blocked_;
  /// Relay-context freelist. Contexts are owned by relay_contexts_ (stable
  /// addresses); relay_free_ holds the recyclable ones.
  std::vector<std::unique_ptr<RelayContext>> relay_contexts_;
  std::vector<RelayContext*> relay_free_;
  connector::LoadProbe load_probe_;
  std::vector<CallListener> listeners_;
  std::uint64_t total_calls_ = 0;
  std::uint64_t failed_calls_ = 0;
  std::size_t pending_retries_ = 0;
  std::uint64_t retries_scheduled_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::uint64_t calls_timed_out_ = 0;
  util::IdGenerator<util::MessageId> message_ids_;
  // Observability mirrors (no-ops while the global registry is disabled).
  // Pre-resolved at construction so no relay-path code pays a registry
  // name lookup per message.
  obs::Counter* obs_calls_;
  obs::Counter* obs_failed_calls_;
  obs::Counter* obs_retries_;
  obs::Counter* obs_retry_exhausted_;
  obs::Counter* obs_call_timeout_;
  obs::HistogramMetric* obs_call_latency_;
};

}  // namespace aars::runtime
