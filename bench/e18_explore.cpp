// E18 — configuration-space exploration: exact closure counts, cost vs
// graph size, bounded-exploration honesty, and corpus catch rate.
//
// Claim (§3 / prospective vision): correctness of *dynamic* architectures
// is checkable ahead of time by enumerating the configurations the
// reconfiguration rules can reach and verifying each one.  This experiment
// measures the explorer on a removal ladder with a known closed form —
// 1 permanent worker + k independently removable spares yields exactly 2^k
// reachable configurations and k*2^(k-1) committed firings — so any
// deviation is a state-space bug, not noise:
//
//   1. exactness — discovered configurations and edges must match the
//      closed form at every rung,
//   2. cost — configurations/sec of the explorer alone as the graph
//      doubles: each rung is compiled and modelled once, explored once
//      untimed, then timed over kTimedExplorations explorations and
//      reported as the median with its quartiles,
//   3. honesty — capping the exploration must yield an explicit
//      "exploration-truncated" finding, never a silently partial verdict,
//   4. corpus — the shipped configs explore clean (zero false positives)
//      and every seeded path defect (d18..d20) is caught with its code,
//   5. allocations — exploring the 9-spare ladder makes at most
//      kMaxAllocsPerFiring heap allocations per committed firing.
//
// Exit code 0 only if all five hold.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "analysis/adl_screen.h"
#include "analysis/architecture.h"
#include "analysis/explorer.h"
#include "common.h"
#include "util/stats.h"

namespace aars::bench {
namespace {

using analysis::ExplorationResult;
using analysis::ExplorerOptions;

// Heap allocations per committed firing on the 9-spare ladder (512
// configurations, 2,304 firings).  1,793 of the firings reach a known
// configuration and allocate nothing; each new configuration pays for its
// stored model, its key and its verification pass, 6.25 per firing in all.
// A per-firing model copy, key buffer or probe finding (28.32 before the
// explorer reused them) fails the gate.
constexpr double kMaxAllocsPerFiring = 8.0;
constexpr std::size_t kAllocSpares = 9;

/// Timed explorations per ladder rung, after one untimed warm-up; odd, so
/// the median is one of them.
constexpr int kTimedExplorations = 15;

/// The closed form of the `k`-spare ladder: 2^k configurations reached by
/// k*2^(k-1) committed firings.
std::size_t ladder_configs(std::size_t k) { return std::size_t{1} << k; }
std::size_t ladder_edges(std::size_t k) { return k * ladder_configs(k) / 2; }

/// 1 permanent worker + `spares` removable spares, one shed rule per spare:
/// the reachable closure is every subset of the spares.
std::string ladder_source(std::size_t spares) {
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
  for (std::size_t i = 0; i < spares; ++i) {
    s += "instance s" + std::to_string(i) + ": Worker on main;\n";
  }
  s += "connector jobs { routing round_robin; delivery queued; capacity 64; }\n";
  s += "bind driver.work -> worker";
  for (std::size_t i = 0; i < spares; ++i) s += ", s" + std::to_string(i);
  s += " via jobs;\n";
  for (std::size_t i = 0; i < spares; ++i) {
    s += "when queue_depth(jobs) < 4 reconfigure shed_s" + std::to_string(i) +
         " { remove s" + std::to_string(i) + "; }\n";
  }
  return s;
}

std::string read_config(const std::string& relative) {
  const std::string path = std::string(AARS_CONFIG_DIR) + "/" + relative;
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ExplorationResult explore_source(const std::string& source,
                                 const ExplorerOptions& options = {}) {
  const adl::CompilationResult result = analysis::compile_adl(source);
  if (!result.ok()) {
    std::fprintf(stderr, "compile failed:\n%s\n",
                 adl::render_text(result.diagnostics, "<input>", source)
                     .c_str());
    return {};
  }
  return analysis::explore(analysis::model_from(result.config),
                           result.program, options);
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Allocs {
  double per_firing = 0.0;
  double per_config = 0.0;
};

/// Heap allocations of one exploration of the `spares` ladder (compiling and
/// modelling it excluded); zero per firing when the counts miss the closed
/// form.
Allocs explore_allocs(std::size_t spares) {
  const adl::CompilationResult compiled =
      analysis::compile_adl(ladder_source(spares));
  if (!compiled.ok()) return {};
  const analysis::ArchitectureModel model =
      analysis::model_from(compiled.config);
  const std::uint64_t before = alloc_count();
  const ExplorationResult result =
      analysis::explore(model, compiled.program, ExplorerOptions{});
  const auto allocs = static_cast<double>(alloc_count() - before);
  const std::size_t configs = result.graph.states.size();
  const std::size_t firings = result.graph.edges.size();
  if (configs != ladder_configs(spares) || firings != ladder_edges(spares)) {
    return {};
  }
  return Allocs{allocs / static_cast<double>(firings),
                allocs / static_cast<double>(configs)};
}

struct Rung {
  std::size_t spares = 0;
  std::size_t configs = 0;
  std::size_t edges = 0;
  double wall_us = 0.0;  // median exploration
  // Configurations per second: median and quartiles.
  double configs_per_sec = 0.0;
  double configs_per_sec_q1 = 0.0;
  double configs_per_sec_q3 = 0.0;
  bool exact = false;
};

/// Explores the `k`-spare ladder once untimed, then kTimedExplorations times
/// under the clock; compiling and modelling it are outside both.  The rung
/// is exact when every exploration matches the closed form.
Rung time_rung(std::size_t k) {
  Rung rung;
  rung.spares = k;
  const adl::CompilationResult compiled =
      analysis::compile_adl(ladder_source(k));
  if (!compiled.ok()) return rung;
  const analysis::ArchitectureModel model =
      analysis::model_from(compiled.config);
  ExplorerOptions options;
  options.max_configs = 4096;
  options.max_depth = 64;
  const auto exact = [k](const ExplorationResult& result) {
    return result.graph.states.size() == ladder_configs(k) &&
           result.graph.edges.size() == ladder_edges(k) &&
           result.report.ok() && !result.report.truncated;
  };
  const ExplorationResult warm_up =
      analysis::explore(model, compiled.program, options);
  rung.configs = warm_up.graph.states.size();
  rung.edges = warm_up.graph.edges.size();
  rung.exact = exact(warm_up);
  util::Histogram wall_us;
  util::Histogram configs_per_sec;
  for (int i = 0; i < kTimedExplorations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const ExplorationResult result =
        analysis::explore(model, compiled.program, options);
    const double us = elapsed_us(start);
    rung.exact = rung.exact && exact(result);
    wall_us.add(us);
    configs_per_sec.add(us > 0 ? rung.configs / (us / 1e6) : 0.0);
  }
  rung.wall_us = wall_us.p50();
  rung.configs_per_sec = configs_per_sec.p50();
  rung.configs_per_sec_q1 = configs_per_sec.percentile(0.25);
  rung.configs_per_sec_q3 = configs_per_sec.percentile(0.75);
  return rung;
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars::bench;
  namespace analysis = aars::analysis;
  banner("E18 — configuration-space exploration",
         "Exact reachable-closure counts on a removal ladder (2^k "
         "configurations), exploration cost as the graph doubles, explicit "
         "truncation under caps, and path-defect catch rate on the corpus.");
  enable_metrics();

  bool ok = true;

  // --- 1+2. exactness and cost on the removal ladder ------------------------
  const std::vector<std::size_t> rungs_k = {2, 4, 6, 8, 10};
  std::vector<Rung> rungs;
  Table ladder({"spares", "configs", "expected", "edges", "expected",
                "wall(us) p50", "configs/s p50", "configs/s q1-q3"});
  for (const std::size_t k : rungs_k) {
    const Rung rung = time_rung(k);
    ok = ok && rung.exact;
    ladder.add_row({std::to_string(k), std::to_string(rung.configs),
                    std::to_string(ladder_configs(k)),
                    std::to_string(rung.edges),
                    std::to_string(ladder_edges(k)),
                    fmt(rung.wall_us, 1), fmt(rung.configs_per_sec, 0),
                    fmt(rung.configs_per_sec_q1, 0) + "-" +
                        fmt(rung.configs_per_sec_q3, 0)});
    rungs.push_back(rung);
  }
  ladder.print();

  // --- 3. bounded exploration is honest --------------------------------------
  analysis::ExplorerOptions capped;
  capped.max_configs = 100;
  const ExplorationResult truncated =
      explore_source(ladder_source(10), capped);
  const bool honest = truncated.report.truncated &&
                      truncated.report.has("exploration-truncated") &&
                      truncated.graph.states.size() <= 100;
  std::printf("\ncapped run (max-configs 100 on the 2^10 ladder): %zu "
              "configs, truncated finding %s\n",
              truncated.graph.states.size(), honest ? "present" : "MISSING");
  ok = ok && honest;

  // --- 4. corpus: clean configs stay clean, path defects are caught ----------
  const std::vector<std::string> clean = {
      "quickstart.adl", "load_balancing.adl", "self_healing.adl",
      "telecom.adl",    "three_tier.adl",     "adaptive.adl",
  };
  std::size_t false_positives = 0;
  for (const std::string& file : clean) {
    const ExplorationResult result = explore_source(read_config(file));
    false_positives += result.report.items.size();
  }

  struct PathDefect {
    const char* file;
    const char* code;
  };
  const std::vector<PathDefect> defects = {
      {"defects/d18_unsafe_reachable.adl", "unsafe-config"},
      {"defects/d19_eventually_starved.adl", "eventually-starved"},
      {"defects/d20_rollback_witness.adl", "transient-violation"},
  };
  Table catches({"defect", "expected code", "caught"});
  std::size_t caught = 0;
  for (const PathDefect& defect : defects) {
    const ExplorationResult result = explore_source(read_config(defect.file));
    const bool hit = result.report.has(defect.code);
    if (hit) ++caught;
    catches.add_row({defect.file, defect.code, hit ? "yes" : "NO"});
  }
  std::printf("\n");
  catches.print();
  std::printf("\npath-defect catch rate: %zu/%zu, false positives on clean "
              "corpus: %zu\n",
              caught, defects.size(), false_positives);
  ok = ok && caught == defects.size() && false_positives == 0;

  // --- 5. a firing that reaches a known configuration allocates nothing ----
  const Allocs allocs = explore_allocs(kAllocSpares);
  std::printf("\n%zu-spare ladder: %.2f heap allocations per committed "
              "firing (gate %.1f), %.1f per configuration\n",
              kAllocSpares, allocs.per_firing, kMaxAllocsPerFiring,
              allocs.per_config);
  if (allocs.per_firing == 0.0 || allocs.per_firing > kMaxAllocsPerFiring) {
    std::printf("FAIL: %.2f allocations per committed firing (want (0, "
                "%.1f])\n",
                allocs.per_firing, kMaxAllocsPerFiring);
    ok = false;
  }

  std::printf(
      "\nExpected shape: every ladder rung reads exactly 2^k configurations "
      "and k*2^(k-1) edges; wall time grows with the configuration count "
      "(each new configuration is stored, keyed and re-verified, while a "
      "firing that reaches a known one only re-keys it); the capped run "
      "reports an explicit truncation finding; all seeded path defects are "
      "caught with zero false positives; a committed firing costs at most "
      "%.1f heap allocations.\n",
      kMaxAllocsPerFiring);

  // Ladder rows land in BENCH_e18_explore.json for the perf-smoke gate.
  std::string ladder_json = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s{\"spares\": %zu, \"configs\": %zu, \"edges\": %zu, "
                  "\"wall_us\": %.1f, \"configs_per_sec\": %.1f, "
                  "\"configs_per_sec_q1\": %.1f, \"configs_per_sec_q3\": %.1f}",
                  i == 0 ? "" : ", ", rungs[i].spares, rungs[i].configs,
                  rungs[i].edges, rungs[i].wall_us, rungs[i].configs_per_sec,
                  rungs[i].configs_per_sec_q1, rungs[i].configs_per_sec_q3);
    ladder_json += row;
  }
  ladder_json += "]";
  char corpus_json[128];
  std::snprintf(corpus_json, sizeof(corpus_json),
                "{\"caught\": %zu, \"seeded\": %zu, \"false_positives\": %zu}",
                caught, defects.size(), false_positives);
  char allocs_json[160];
  std::snprintf(allocs_json, sizeof(allocs_json),
                "{\"spares\": %zu, \"per_firing\": %.2f, \"per_config\": "
                "%.1f, \"max_per_firing\": %.1f}",
                kAllocSpares, allocs.per_firing, allocs.per_config,
                kMaxAllocsPerFiring);
  const std::string extra = "\"explore\": {\"ladder\": " + ladder_json +
                            ", \"corpus\": " + std::string(corpus_json) +
                            ", \"allocations\": " + allocs_json + "}";
  write_metrics_json("e18_explore", extra);
  return ok ? 0 : 1;
}
