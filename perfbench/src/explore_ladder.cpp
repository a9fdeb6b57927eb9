// explore_ladder: compile and explore e18's removal ladder.  One permanent
// worker plus k removable spares reaches exactly 2^k configurations over
// k*2^(k-1) committed firings.  The seed permutes the spares' names and the
// order of their declarations and rules, which leaves the closed form and
// the cost unchanged.  An op is one configuration discovered and verified;
// a rung whose counts miss the closed form fails all of its ops.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/adl_screen.h"
#include "analysis/architecture.h"
#include "analysis/explorer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace analysis = aars::analysis;

std::string ladder_source(std::uint64_t seed, std::size_t spares) {
  aars::util::Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < spares; ++i) {
    std::string name = "w";
    name += std::to_string(rng.uniform_int(100000, 999999));
    name += "_";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  const auto shuffled = [&rng](std::vector<std::string> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
    }
    return v;
  };
  std::string s = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on main;
instance driver: Driver on client;
)";
  const std::vector<std::string> declared = shuffled(names);
  for (const std::string& name : declared) {
    s += "instance " + name + ": Worker on main;\n";
  }
  s += "connector jobs { routing round_robin; delivery queued; capacity 64; }\n";
  s += "bind driver.work -> worker";
  for (const std::string& name : declared) s += ", " + name;
  s += " via jobs;\n";
  for (const std::string& name : shuffled(names)) {
    s += "when queue_depth(jobs) < 4 reconfigure shed_" + name + " { remove " +
         name + "; }\n";
  }
  return s;
}

class ExploreLadder final : public Workload {
 public:
  explicit ExploreLadder(const Context& ctx)
      : ctx_(ctx),
        spares_(ctx.smoke ? 4 : 9),
        source_(ladder_source(ctx.seed, spares_)) {
    options_.max_configs = 4096;
    options_.max_depth = 64;
  }

  RefKind step_reference() const override { return RefKind::kCompact; }
  RefKind setup_reference() const override { return RefKind::kCompact; }

  void setup(std::size_t) override {
    {
      Span span(*ctx_.tracer, "adl.compile", "adl");
      compiled_ = analysis::compile_adl(source_);
    }
    if (compiled_->ok()) model_ = analysis::model_from(compiled_->config);
  }

  bool step() override {
    if (!model_) return false;
    {
      Span span(*ctx_.tracer, "analysis.explore", "analysis");
      result_ = analysis::explore(*model_, compiled_->program, options_);
    }
    if (ctx_.tracer->keep_spans) {
      ctx_.tracer->counter(
          "explore",
          {{"configs", static_cast<double>(result_->graph.states.size())},
           {"edges", static_cast<double>(result_->graph.edges.size())},
           {"aborted", static_cast<double>(result_->aborted_firings)}});
    }
    return false;
  }

  void settle(Values& rep) override {
    if (!compiled_->ok()) {
      ctx_.fail("ladder ADL does not compile");
      return;
    }
    const std::size_t configs = result_->graph.states.size();
    const std::size_t edges = result_->graph.edges.size();
    const std::size_t want_configs = std::size_t{1} << spares_;
    const std::size_t want_edges = spares_ * (std::size_t{1} << (spares_ - 1));
    const bool exact = configs == want_configs && edges == want_edges &&
                       result_->report.ok() && !result_->report.truncated &&
                       !result_->report.has("exploration-truncated");
    if (!exact) {
      ctx_.fail("ladder counts miss the closed form (" +
                std::to_string(configs) + " configs, " +
                std::to_string(edges) + " edges; want " +
                std::to_string(want_configs) + ", " +
                std::to_string(want_edges) + ") or were truncated");
    }
    rep["ops"] += static_cast<double>(configs);
    rep["failed"] += exact ? 0.0 : static_cast<double>(configs);
    rep["analysis.configs"] = static_cast<double>(configs);
    rep["analysis.edges"] = static_cast<double>(edges);
    rep["analysis.aborted_firings"] =
        static_cast<double>(result_->aborted_firings);
  }

  void teardown() override {
    result_.reset();
    model_.reset();
    compiled_.reset();
  }

 private:
  const Context& ctx_;
  const std::size_t spares_;
  const std::string source_;
  analysis::ExplorerOptions options_;
  std::optional<aars::adl::CompilationResult> compiled_;
  std::optional<analysis::ArchitectureModel> model_;
  std::optional<analysis::ExplorationResult> result_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_ladder(const Context& ctx) {
  return std::make_unique<ExploreLadder>(ctx);
}

}  // namespace perfbench
