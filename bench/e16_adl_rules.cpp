// E16 — reconfiguration-native ADL: compile cost and rule-evaluation cost.
//
// Claim (DESIGN.md §ADL): `when … reconfigure` rules are compiled to
// pre-resolved artifacts — interned Symbols, enum metric sources, bound id
// tables — so the steady-state MAPE tick evaluates every rule with zero
// allocations and no string parsing, and the whole shipped corpus compiles
// (including the compile-time plan screen) in well under 50 ms.
//
// Exit-code assertions:
//   * all configs/*.adl compile clean, total wall < 50 ms
//   * RuleSet::evaluate() steady state performs zero heap allocations
//   * an ADL-declared rule fires end-to-end (topology actually mutates)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "analysis/adl_screen.h"
#include "common.h"
#include "reconfig/rules.h"
#include "testing_components.h"
#include "util/time.h"

// --- counting allocator hook ------------------------------------------------
// Counts every global operator new (same pattern as e14); deltas around the
// probe region prove the steady-state claim.
namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p != nullptr) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aars::bench {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr const char* kRuleWorld = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node edge { capacity 10000; }
node core { capacity 10000; }
link edge <-> core { latency 1ms; bandwidth 100mbps; }
instance server: EchoServer on core;
instance client: EchoClient on edge;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;

when queue_depth(main) > 1000000 for 2 ticks reconfigure never {
  cooldown 1s;
  migrate server to edge;
}
when backlog(core) > 1000000000 reconfigure never_either {
  cooldown 1s;
  migrate server to edge;
}
)";

util::Result<std::unique_ptr<Runtime>> build_rule_world(
    const std::string& source) {
  return Runtime::builder()
      .component_class<bench_testing::EchoServer>("EchoServer")
      .component_class<bench_testing::EchoClient>("EchoClient")
      .adl(source)
      .build();
}

}  // namespace
}  // namespace aars::bench

int main() {
  using namespace aars;
  using namespace aars::bench;
  banner("E16: ADL compile cost + rule evaluation cost",
         "The multi-stage compiler pre-resolves `when ... reconfigure` "
         "rules to Symbol/id tables. Whole shipped corpus compiles <50ms; "
         "steady-state rule evaluation is allocation-free; a declared rule "
         "fires end-to-end.");
  enable_metrics();
  bool ok = true;

  // --- 1. compile the shipped corpus (full pipeline incl. plan screen) ----
  std::vector<std::filesystem::path> configs;
  for (const auto& entry :
       std::filesystem::directory_iterator(AARS_CONFIG_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".adl") {
      configs.push_back(entry.path());
    }
  }
  std::sort(configs.begin(), configs.end());

  Table compile_table({"config", "compile ms", "rules", "goals"});
  const auto compile_start = std::chrono::steady_clock::now();
  double total_ms = 0;
  std::string compile_json = "[";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    adl::CompilationResult result =
        analysis::compile_adl_file(configs[i].string());
    const double ms = ms_since(start);
    total_ms += ms;
    if (!result.ok()) {
      std::printf("FAIL: %s does not compile:\n%s\n",
                  configs[i].filename().c_str(),
                  adl::render_text(result.diagnostics, configs[i].string(),
                                   result.source)
                      .c_str());
      ok = false;
      continue;
    }
    compile_table.add_row({configs[i].filename().string(), fmt(ms, 3),
                           std::to_string(result.program.rules.size()),
                           std::to_string(result.program.goals.size())});
    compile_json += std::string(i ? ", " : "") + "{\"file\": \"" +
                    configs[i].filename().string() +
                    "\", \"ms\": " + fmt(ms, 4) + "}";
  }
  compile_json += "]";
  const double corpus_ms = ms_since(compile_start);
  compile_table.print();
  std::printf("\ncorpus compile total: %.3f ms over %zu files "
              "(target < 50 ms)\n",
              total_ms, configs.size());

  // --- 2. steady-state evaluation: zero allocations ------------------------
  auto built = build_rule_world(kRuleWorld);
  if (!built.ok()) {
    std::printf("FAIL: rule world does not build: %s\n",
                built.error().message().c_str());
    std::printf("\nE16 FAIL\n");
    return 1;
  }
  auto rt = std::move(built).value();
  reconfig::RuleSet* rules = rt->adl_rules();

  constexpr std::uint64_t kEvals = 1000000;
  // Warm up once (first sample may touch lazily-built state), then probe.
  rules->evaluate(0);
  const std::uint64_t allocs_before = g_alloc_count;
  const auto eval_start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1; i <= kEvals; ++i) {
    rules->evaluate(static_cast<util::SimTime>(i));
  }
  const double eval_ms = ms_since(eval_start);
  const std::uint64_t eval_allocs = g_alloc_count - allocs_before;
  const double ns_per_eval = eval_ms * 1e6 / static_cast<double>(kEvals);
  std::printf("\nsteady-state evaluate(): %.1f ns per evaluation over %llu "
              "iterations (2 metric rules), %llu allocations (want 0)\n",
              ns_per_eval, static_cast<unsigned long long>(kEvals),
              static_cast<unsigned long long>(eval_allocs));

  // --- 3. end-to-end firing -------------------------------------------------
  const std::string firing_world = [] {
    std::string s = kRuleWorld;
    const std::string needle = "queue_depth(main) > 1000000 for 2 ticks";
    s.replace(s.find(needle), needle.size(), "queue_depth(main) >= 0");
    return s;
  }();
  auto firing = build_rule_world(firing_world);
  if (!firing.ok()) {
    std::printf("FAIL: firing world does not build: %s\n",
                firing.error().message().c_str());
    std::printf("\nE16 FAIL\n");
    return 1;
  }
  auto frt = std::move(firing).value();
  frt->raml().start();
  frt->loop().run_until(util::milliseconds(100));
  const reconfig::RuleSet::Stats stats = frt->adl_rules()->stats();
  const bool moved = frt->app().placement(frt->component("server")) ==
                     frt->host("edge");
  std::printf("\nend-to-end: fired=%llu actions=%llu failed=%llu "
              "suppressed=%llu, server migrated to edge: %s\n",
              static_cast<unsigned long long>(stats.fired),
              static_cast<unsigned long long>(stats.actions),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.suppressed),
              moved ? "yes" : "no");

  const std::string extra =
      std::string("\"adl_rules\": {") + "\"corpus_files\": " +
      std::to_string(configs.size()) +
      ", \"corpus_compile_ms\": " + fmt(corpus_ms, 4) +
      ", \"per_file\": " + compile_json +
      ", \"eval_ns\": " + fmt(ns_per_eval, 2) +
      ", \"eval_allocs\": " + std::to_string(eval_allocs) +
      ", \"fired\": " + std::to_string(stats.fired) +
      ", \"failed\": " + std::to_string(stats.failed) + "}";
  write_metrics_json("e16_adl_rules", extra);

  // Exit-code assertions.
  if (corpus_ms >= 50.0) {
    std::printf("FAIL: corpus compile %.3f ms >= 50 ms budget\n", corpus_ms);
    ok = false;
  }
  if (eval_allocs != 0) {
    std::printf("FAIL: evaluate() allocated %llu times at steady state "
                "(want 0)\n",
                static_cast<unsigned long long>(eval_allocs));
    ok = false;
  }
  if (stats.fired == 0 || stats.failed != 0 || !moved) {
    std::printf("FAIL: ADL rule did not fire cleanly end-to-end\n");
    ok = false;
  }
  std::printf("\nE16 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
