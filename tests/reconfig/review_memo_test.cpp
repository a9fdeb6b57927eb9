// The engine remembers its last few plan reviews, keyed by the whole live
// snapshot and the step.  A remembered review must answer exactly as a
// fresh `verify_plan` over `model_from(app)` would, including after edits
// the engine did not make: links added or removed, a latency changed in
// place through Network::find_link, an instance added directly through
// Application.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/plan.h"
#include "reconfig/engine.h"
#include "testing/test_components.h"
#include "util/rng.h"

namespace aars::reconfig {
namespace {

using analysis::PlanOp;
using analysis::PlanStep;
using aars::testing::AppFixture;
using util::ComponentId;
using util::ConnectorId;
using util::ErrorCode;
using util::NodeId;
using util::Value;

ReconfigurationEngine::Options enforced() {
  ReconfigurationEngine::Options options;
  options.verify_mode = analysis::VerifyMode::kEnforce;
  return options;
}

/// What the engine's verify_step answers for `step`, from a fresh review
/// of the live world: empty when it proceeds, the rejection's message
/// otherwise.
std::string fresh_verdict(runtime::Application& app,
                          const ReconfigurationEngine& engine,
                          const PlanStep& step) {
  analysis::VerifierOptions options;
  options.max_states = engine.options().verify_max_states;
  const analysis::PlanReview review =
      analysis::verify_plan(analysis::model_from(app), {step}, options);
  return review.ok()
             ? std::string{}
             : "plan verification failed: " + review.report.first_error();
}

std::string verdict(const util::Status& status) {
  if (status.ok()) return {};
  EXPECT_EQ(status.code(), ErrorCode::kVerificationFailed);
  return status.error().message();
}

using ReviewMemoTest = AppFixture;

TEST_F(ReviewMemoTest, RemovingTheDestinationsOnlyLinkRejectsARememberedMigrate) {
  ReconfigurationEngine engine(app_, enforced());
  const ConnectorId conn = direct_to("EchoServer", "server", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_b_, Value{});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(app_.bind(client.value(), "out", conn).ok());

  PlanStep step;
  step.op = PlanOp::kMigrate;
  step.instance = "server";
  step.node = "node_c";
  ASSERT_TRUE(engine.verify_step(step, "migrate").ok());

  // node_c's only link goes; the canonical configuration key, which leaves
  // links out, does not change.
  ASSERT_TRUE(network_.remove_link(node_b_, node_c_).has_value());
  ASSERT_TRUE(network_.remove_link(node_c_, node_b_).has_value());
  const std::string rejected = verdict(engine.verify_step(step, "migrate"));
  EXPECT_FALSE(rejected.empty());
  EXPECT_EQ(rejected, fresh_verdict(app_, engine, step));

  const ComponentId server = app_.component_id("server");
  ReconfigReport report;
  engine.migrate_component(server, node_c_,
                           [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_EQ(report.status.code(), ErrorCode::kVerificationFailed);
  EXPECT_EQ(app_.placement(server), node_a_);
}

/// The fixture's three hosts (a - b - c), with a server on a serving a
/// client on b through `main`, and a backup on c behind `spare`.
struct World {
  explicit World(component::ComponentRegistry& types)
      : app(loop, network, types) {
    for (const char* name : {"node_a", "node_b", "node_c"}) {
      hosts.push_back(network.add_node(name, 10000).id());
    }
    link.latency = util::milliseconds(1);
    network.add_duplex_link(hosts[0], hosts[1], link);
    network.add_duplex_link(hosts[1], hosts[2], link);
    main = connector("main");
    spare = connector("spare");
    const ComponentId server = instance("EchoServer", "server", hosts[0]);
    const ComponentId backup = instance("EchoServer", "backup", hosts[2]);
    const ComponentId client = instance("EchoClient", "client", hosts[1]);
    EXPECT_TRUE(app.add_provider(main, server).ok());
    EXPECT_TRUE(app.add_provider(spare, backup).ok());
    EXPECT_TRUE(app.bind(client, "out", main).ok());
  }

  ConnectorId connector(const std::string& name) {
    connector::ConnectorSpec spec;
    spec.name = name;
    auto id = app.create_connector(spec);
    EXPECT_TRUE(id.ok());
    return id.ok() ? id.value() : ConnectorId::invalid();
  }

  ComponentId instance(const std::string& type, const std::string& name,
                       NodeId node) {
    auto id = app.instantiate(type, name, node, Value{});
    return id.ok() ? id.value() : ComponentId::invalid();
  }

  sim::EventLoop loop;
  sim::Network network;
  runtime::Application app;
  std::vector<NodeId> hosts;
  sim::LinkSpec link;
  ConnectorId main;
  ConnectorId spare;
};

// Seeded random engine protocols interleaved with edits the engine does not
// make.  Each round reviews a sibling of the protocol's step (the same op
// and target, another host, connector, replica or type), then the step
// itself, then makes the edit and reviews the step again: every verdict,
// through verify_step and, for a redeploy, redeploy_would_verify, must
// equal a fresh review's.  The protocol then reviews the step once more and
// must be rejected exactly when the fresh review rejects.  The world keeps
// returning to configurations it has seen, so many of these reviews are
// answered from memory.
TEST_F(ReviewMemoTest, RememberedReviewsAnswerLikeFreshOnes) {
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world(registry_);
    runtime::Application& app = world.app;
    sim::Network& network = world.network;
    const std::vector<NodeId>& hosts = world.hosts;
    ReconfigurationEngine engine(app, enforced());
    util::Rng rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto toggle_duplex = [&](NodeId a, NodeId b) {
      if (network.has_link(a, b)) {
        (void)network.remove_link(a, b);
        (void)network.remove_link(b, a);
      } else {
        network.add_duplex_link(a, b, world.link);
      }
    };
    // An edit the engine does not make, in half the rounds.
    const auto edit = [&] {
      switch (pick(8)) {
        case 0: toggle_duplex(hosts[0], hosts[2]); break;
        case 1: toggle_duplex(hosts[1], hosts[2]); break;
        case 2:
          if (sim::LinkSpec* spec = network.find_link(hosts[0], hosts[1])) {
            spec->latency = spec->latency == util::milliseconds(1)
                                ? util::milliseconds(3)
                                : util::milliseconds(1);
          }
          break;
        case 3:
          // Named as the add protocol names its instances.
          (void)world.instance("EchoServer", "added" + std::to_string(pick(2)),
                               hosts[pick(hosts.size())]);
          break;
        default: break;
      }
    };
    const auto check = [&](const PlanStep& step, const std::string& op) {
      const std::string expected = fresh_verdict(app, engine, step);
      EXPECT_EQ(verdict(engine.verify_step(step, op)), expected);
      return expected;
    };

    for (int round = 0; round < 150; ++round) {
      const std::vector<ComponentId> ids = app.component_ids();
      if (ids.empty()) {
        edit();
        continue;
      }
      const ComponentId target = ids[pick(ids.size())];
      const component::Component* comp = app.find_component(target);
      const std::size_t host_index = pick(hosts.size());
      const NodeId host = hosts[host_index];
      const std::string other_host =
          network.node(hosts[(host_index + 1) % hosts.size()]).name();
      // A migrate or redeploy onto the target's own host, and a reroute
      // onto itself, finish before the protocol reviews its step.
      bool reviews = true;
      PlanStep step;
      step.instance = comp->instance_name();
      PlanStep sibling;
      std::string op;
      ReconfigReport report;
      const Done record = [&report](const ReconfigReport& r) { report = r; };
      std::function<void()> run;
      switch (pick(7)) {
        case 0:
          op = "migrate";
          step.op = PlanOp::kMigrate;
          step.node = network.node(host).name();
          sibling = step;
          sibling.node = other_host;
          reviews = app.placement(target) != host;
          run = [&] { engine.migrate_component(target, host, record); };
          break;
        case 1:
          op = "redeploy";
          step.op = PlanOp::kRedeploy;
          step.node = network.node(host).name();
          sibling = step;
          sibling.node = other_host;
          reviews = app.placement(target) != host;
          run = [&] { engine.redeploy_component(target, host, record); };
          break;
        case 2: {
          op = "add";
          const std::string type = pick(2) == 0 ? "EchoServer" : "EchoClient";
          step.op = PlanOp::kAdd;
          step.instance = "added" + std::to_string(pick(2));
          step.type = type;
          step.node = network.node(host).name();
          sibling = step;
          sibling.node = other_host;
          run = [&, type] {
            auto added = engine.add_component(type, step.instance, host,
                                              Value{});
            report.status = added.ok() ? util::Status::success()
                                       : util::Status(added.error());
          };
          break;
        }
        case 3:
          op = "remove";
          step.op = PlanOp::kRemove;
          sibling = step;
          sibling.instance = app.find_component(ids[pick(ids.size())])
                                 ->instance_name();
          run = [&] { engine.remove_component(target, record); };
          break;
        case 4: {
          op = "replace";
          const std::string name = "replaced" + std::to_string(pick(2));
          step.op = PlanOp::kReplace;
          step.type = comp->type_name();
          sibling = step;
          sibling.type =
              step.type == "EchoServer" ? "EchoClient" : "EchoServer";
          run = [&, name] {
            engine.replace_component(target, step.type, name, record);
          };
          break;
        }
        case 5: {
          op = "reroute";
          const ComponentId replica = ids[pick(ids.size())];
          step.op = PlanOp::kReroute;
          step.replica = app.find_component(replica)->instance_name();
          sibling = step;
          sibling.replica = app.find_component(ids[pick(ids.size())])
                                ->instance_name();
          reviews = replica != target;
          run = [&, replica] {
            engine.reroute_to_replica(target, replica, record);
          };
          break;
        }
        default: {
          op = "rebind";
          const bool to_main = pick(2) == 0;
          const ConnectorId via = to_main ? world.main : world.spare;
          step.op = PlanOp::kRebind;
          step.port = "out";
          step.connector = app.find_connector(via)->name();
          sibling = step;
          sibling.connector =
              app.find_connector(to_main ? world.spare : world.main)->name();
          run = [&, via] { report.status = engine.rebind(target, "out", via); };
          break;
        }
      }
      SCOPED_TRACE("round " + std::to_string(round) + ": " + op + " " +
                   step.instance);
      check(sibling, op);
      check(step, op);
      edit();
      const std::string expected = check(step, op);
      if (step.op == PlanOp::kRedeploy) {
        EXPECT_EQ(engine.redeploy_would_verify(target, host),
                  expected.empty());
      }

      report = ReconfigReport{};
      run();
      world.loop.run();
      if (reviews) {
        if (expected.empty()) {
          ++accepted;
          EXPECT_NE(report.status.code(), ErrorCode::kVerificationFailed)
              << report.error_message();
        } else {
          ++rejected;
          EXPECT_EQ(report.status.code(), ErrorCode::kVerificationFailed);
          EXPECT_EQ(report.error_message(), expected);
        }
      }
      if (HasFailure()) return;
    }
  }
  // Both verdicts occur often, so neither passes by default.
  EXPECT_GE(accepted, 100);
  EXPECT_GE(rejected, 30);
}

}  // namespace
}  // namespace aars::reconfig
