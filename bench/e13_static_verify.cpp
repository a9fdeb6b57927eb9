// E13 — static verification: seeded-defect catch rate and cost vs size.
//
// Claim (§3 / prospective vision): correctness of dynamic architectures can
// be checked *statically* from semantic models (connector graph + LTS
// protocols) before any reconfiguration runs.  This experiment measures the
// verifier on synthetic pipeline architectures:
//
//   1. catch rate — ten defect classes are seeded into otherwise-clean
//      architectures of several sizes; the verifier must flag every one
//      with the expected diagnostic code (bar: >= 95%),
//   2. false positives — clean architectures must verify with zero
//      diagnostics at every size,
//   3. cost — wall time and joint protocol states explored as the
//      architecture grows, for whole-architecture and single-plan checks.
//
// Exit code 0 only if the catch-rate bar is met with zero false positives.
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "analysis/architecture.h"
#include "analysis/plan.h"
#include "analysis/verifier.h"
#include "common.h"
#include "lts/lts.h"

namespace aars::bench {
namespace {

using analysis::ArchitectureModel;
using analysis::ModelBinding;
using analysis::ModelConnector;
using analysis::ModelInstance;
using analysis::ModelLink;

constexpr std::size_t kHosts = 4;

std::string stage_type(std::size_t i) { return "Stage" + std::to_string(i); }
std::string stage_name(std::size_t i) { return "s" + std::to_string(i); }
std::string host_name(std::size_t i) {
  return "h" + std::to_string(i % kHosts);
}

/// Request/response channel labels between stage i and stage i+1.
std::string req(std::size_t i) { return "req" + std::to_string(i); }
std::string rsp(std::size_t i) { return "rsp" + std::to_string(i); }

/// The driver fires req0 and awaits rsp0; middle stages relay; the sink
/// answers.  Composed n-way this is deadlock-free with one token in flight.
lts::Lts stage_protocol(std::size_t i, std::size_t n) {
  lts::Lts lts(stage_type(i));
  lts.set_final(0, true);
  if (i == 0) {
    const lts::StateId wait = lts.add_state();
    lts.add_transition(0, lts::out(req(0)), wait);
    lts.add_transition(wait, lts::in(rsp(0)), 0);
  } else if (i + 1 == n) {
    const lts::StateId busy = lts.add_state();
    lts.add_transition(0, lts::in(req(i - 1)), busy);
    lts.add_transition(busy, lts::out(rsp(i - 1)), 0);
  } else {
    const lts::StateId a = lts.add_state();
    const lts::StateId b = lts.add_state();
    const lts::StateId c = lts.add_state();
    lts.add_transition(0, lts::in(req(i - 1)), a);
    lts.add_transition(a, lts::out(req(i)), b);
    lts.add_transition(b, lts::in(rsp(i)), c);
    lts.add_transition(c, lts::out(rsp(i - 1)), 0);
  }
  return lts;
}

/// A clean n-stage pipeline over a 4-host ring: s0 (driver) -> s1 -> ... ->
/// s(n-1), one sync connector per hop, protocols on every stage type.
ArchitectureModel pipeline(std::size_t n, bool with_protocols) {
  ArchitectureModel model;
  for (std::size_t h = 0; h < kHosts; ++h) model.nodes.push_back(host_name(h));
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string from = host_name(h);
    const std::string to = host_name(h + 1);
    model.links.push_back(ModelLink{from, to, 100});
    model.links.push_back(ModelLink{to, from, 100});
  }
  for (std::size_t i = 0; i < n; ++i) {
    ModelInstance inst;
    inst.name = stage_name(i);
    inst.type = stage_type(i);
    inst.node = host_name(i);
    if (i + 1 < n) inst.required.push_back({"out", "Stage"});
    model.instances.push_back(std::move(inst));
    if (with_protocols) {
      model.protocols.emplace(stage_type(i), stage_protocol(i, n));
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ModelConnector conn;
    conn.name = "hop" + std::to_string(i);
    conn.sync_delivery = true;
    conn.providers = {stage_name(i + 1)};
    model.connectors.push_back(std::move(conn));
    ModelBinding bind;
    bind.caller = stage_name(i);
    bind.port = "out";
    bind.connector = "hop" + std::to_string(i);
    bind.providers = {stage_name(i + 1)};
    model.bindings.push_back(std::move(bind));
  }
  return model;
}

/// One seeded defect: a mutation of the clean model plus the diagnostic
/// code the verifier is required to emit for it.
struct Defect {
  const char* name;
  const char* expected_code;
  std::function<void(ArchitectureModel&)> seed;
};

std::vector<Defect> defect_classes() {
  return {
      {"drop-provider", "dangling-binding",
       [](ArchitectureModel& m) { m.bindings[1].providers.clear(); }},
      {"unknown-provider", "dangling-binding",
       [](ArchitectureModel& m) { m.bindings[1].providers = {"ghost"}; }},
      {"double-bind", "duplicate-binding",
       [](ArchitectureModel& m) { m.bindings.push_back(m.bindings[1]); }},
      {"bogus-port", "unknown-port",
       [](ArchitectureModel& m) { m.bindings[1].port = "nonesuch"; }},
      {"unbound-port", "unbound-port",
       [](ArchitectureModel& m) {
         m.instances.back().required.push_back({"audit", ""});
       }},
      {"stale-connector", "connector-unused",
       [](ArchitectureModel& m) {
         ModelConnector conn;
         conn.name = "stale";
         m.connectors.push_back(std::move(conn));
       }},
      {"orphan-instance", "unreachable-component",
       [](ArchitectureModel& m) {
         ModelInstance inst;
         inst.name = "orphan";
         inst.type = "Orphan";
         inst.node = m.nodes.front();
         m.instances.push_back(std::move(inst));
       }},
      {"sync-back-edge", "sync-call-cycle",
       [](ArchitectureModel& m) {
         // The sink calls the driver back synchronously: the whole chain
         // becomes one all-sync cycle.
         m.instances.back().required.push_back({"back", ""});
         ModelConnector conn;
         conn.name = "back";
         conn.sync_delivery = true;
         conn.providers = {m.instances.front().name};
         m.connectors.push_back(std::move(conn));
         ModelBinding bind;
         bind.caller = m.instances.back().name;
         bind.port = "back";
         bind.connector = "back";
         bind.providers = {m.instances.front().name};
         m.bindings.push_back(std::move(bind));
       }},
      {"island-host", "no-route",
       [](ArchitectureModel& m) {
         m.nodes.push_back("island");
         m.instances[1].node = "island";
       }},
      {"tight-budget", "qos-infeasible",
       [](ArchitectureModel& m) { m.connectors[0].budget_us = 1; }},
      {"protocol-order-swap", "protocol-deadlock",
       [](ArchitectureModel& m) {
         // The sink answers before it listens: joint deadlock at start.
         const std::size_t n = m.instances.size();
         lts::Lts bad(stage_type(n - 1));
         const lts::StateId start = bad.add_state();
         bad.set_final(0, false);
         bad.add_transition(0, lts::out(rsp(n - 2)), start);
         bad.add_transition(start, lts::in(req(n - 2)), 0);
         m.protocols[stage_type(n - 1)] = bad;
       }},
  };
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars::bench;
  namespace adl = aars::adl;
  namespace analysis = aars::analysis;
  banner("E13 — static verification",
         "Seeded-defect catch rate and verification cost vs architecture "
         "size (connector graph + n-way LTS composition).");
  enable_metrics();

  const std::vector<std::size_t> catch_sizes = {8, 16, 32};
  const std::vector<std::size_t> cost_sizes = {4, 8, 16, 32, 64, 128};

  // --- 1. catch rate --------------------------------------------------------
  Table catches({"defect", "expected code", "caught/sizes"});
  std::size_t seeded = 0;
  std::size_t caught = 0;
  for (const Defect& defect : defect_classes()) {
    std::size_t hit = 0;
    for (const std::size_t n : catch_sizes) {
      ArchitectureModel model = pipeline(n, /*with_protocols=*/true);
      defect.seed(model);
      const adl::Diagnostics report = analysis::verify_architecture(model);
      ++seeded;
      if (report.has(defect.expected_code)) {
        ++hit;
        ++caught;
      }
    }
    catches.add_row({defect.name, defect.expected_code,
                     std::to_string(hit) + "/" +
                         std::to_string(catch_sizes.size())});
  }
  catches.print();
  const double catch_rate =
      seeded == 0 ? 0.0 : static_cast<double>(caught) / seeded;

  // --- 2. false positives ---------------------------------------------------
  std::size_t false_positives = 0;
  for (const std::size_t n : cost_sizes) {
    const adl::Diagnostics report =
        analysis::verify_architecture(pipeline(n, true));
    false_positives += report.items.size();
  }

  // --- 3. cost vs size ------------------------------------------------------
  Table cost({"stages", "bindings", "verify(us)", "joint states",
              "structural(us)", "plan(us)"});
  for (const std::size_t n : cost_sizes) {
    const ArchitectureModel model = pipeline(n, true);

    auto start = std::chrono::steady_clock::now();
    const adl::Diagnostics full = analysis::verify_architecture(model);
    const double full_us = elapsed_us(start);

    analysis::VerifierOptions structural;
    structural.check_protocols = false;
    start = std::chrono::steady_clock::now();
    (void)analysis::verify_architecture(model, structural);
    const double structural_us = elapsed_us(start);

    analysis::PlanStep step;
    step.op = analysis::PlanOp::kMigrate;
    step.instance = stage_name(n / 2);
    step.node = host_name(0);
    start = std::chrono::steady_clock::now();
    (void)analysis::verify_plan(model, {step});
    const double plan_us = elapsed_us(start);

    cost.add_row({std::to_string(n), std::to_string(model.bindings.size()),
                  fmt(full_us, 1), std::to_string(full.states_explored),
                  fmt(structural_us, 1), fmt(plan_us, 1)});
  }
  std::printf("\n");
  cost.print();

  std::printf("\ncatch rate: %zu/%zu (%.1f%%), false positives on clean "
              "architectures: %zu\n",
              caught, seeded, catch_rate * 100.0, false_positives);
  std::printf(
      "\nExpected shape: every seeded defect row reads %zu/%zu; clean "
      "architectures stay at zero diagnostics; structural checks scale "
      "linearly with bindings while joint protocol states grow with the "
      "pipeline's token interleavings, bounded by --max-states.\n",
      catch_sizes.size(), catch_sizes.size());
  write_metrics_json("e13_static_verify");
  return catch_rate >= 0.95 && false_positives == 0 ? 0 : 1;
}
