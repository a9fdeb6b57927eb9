// `property { ... }` blocks: grammar, sema name resolution and lowering
// into the flat CompiledPathProperty clause table the explorer consumes.
#include <gtest/gtest.h>

#include <string>

#include "adl/compiler.h"

namespace aars::adl {
namespace {

constexpr const char* kBase = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component CheapWorker provides Work;
component Driver { requires work: Work; }
node primary { capacity 10000; }
node standby { capacity 10000; }
link primary <-> standby { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on primary;
instance driver: Driver on standby;
connector jobs { routing direct; delivery queued; capacity 64; }
bind driver.work -> worker via jobs;
when queue_depth(jobs) > 10 reconfigure degrade {
  replace worker with CheapWorker;
}
)";

std::string with_base(const std::string& extra) {
  return std::string(kBase) + extra;
}

bool has_error(const CompilationResult& result, const std::string& code) {
  for (const Diagnostic& d : result.diagnostics.items) {
    if (d.severity == Severity::kError && d.code == code) return true;
  }
  return false;
}

TEST(PropertyTest, LowersEveryClauseForm) {
  CompilationResult result = compile(with_base(R"(property resilience {
  always replicas(Worker) >= 1;
  eventually running(worker, Worker);
  always not exists(driver);
  always routed(jobs);
  reverts degrade;
}
)"));
  ASSERT_TRUE(result.ok()) << render_text(result.diagnostics, "<input>");
  ASSERT_EQ(result.program.properties.size(), 5u);
  EXPECT_FALSE(result.program.empty());

  const auto& props = result.program.properties;
  EXPECT_EQ(props[0].property.str(), "resilience");
  EXPECT_EQ(props[0].kind, PathPropertyKind::kAlways);
  EXPECT_EQ(props[0].pred.kind, PredicateKind::kReplicas);
  EXPECT_EQ(props[0].pred.subject.str(), "Worker");
  EXPECT_EQ(props[0].pred.compare, AstCompare::kGe);
  EXPECT_EQ(props[0].pred.count, 1);

  EXPECT_EQ(props[1].kind, PathPropertyKind::kEventually);
  EXPECT_EQ(props[1].pred.kind, PredicateKind::kRunning);
  EXPECT_EQ(props[1].pred.subject.str(), "worker");
  EXPECT_EQ(props[1].pred.type.str(), "Worker");

  EXPECT_EQ(props[2].pred.kind, PredicateKind::kExists);
  EXPECT_TRUE(props[2].pred.negated);

  EXPECT_EQ(props[3].pred.kind, PredicateKind::kRouted);
  EXPECT_EQ(props[3].pred.subject.str(), "jobs");

  EXPECT_EQ(props[4].kind, PathPropertyKind::kReverts);
  EXPECT_EQ(props[4].rule.str(), "degrade");

  // Clause locations point into the property block (line, 1-based).
  EXPECT_GT(props[0].line, 0);
  EXPECT_GT(props[0].column, 0);
}

TEST(PropertyTest, InvariantIsASynonym) {
  CompilationResult result = compile(with_base(R"(invariant floor {
  always replicas(Worker) >= 1;
}
)"));
  ASSERT_TRUE(result.ok()) << render_text(result.diagnostics, "<input>");
  ASSERT_EQ(result.program.properties.size(), 1u);
  EXPECT_EQ(result.program.properties[0].property.str(), "floor");
}

TEST(PropertyTest, PredicateOverRuleIntroducedInstanceResolves) {
  // `add`-introduced names are part of the predicate universe even though
  // no declared instance carries them.
  CompilationResult result = compile(with_base(
      R"(when backlog(primary) > 100 reconfigure scale_out {
  add worker2: Worker on standby;
}
property grown { eventually exists(worker2); }
)"));
  ASSERT_TRUE(result.ok()) << render_text(result.diagnostics, "<input>");
}

TEST(PropertyTest, UnknownNamesAreErrors) {
  EXPECT_TRUE(has_error(
      compile(with_base("property p { always exists(ghost); }\n")),
      "unknown-instance"));
  EXPECT_TRUE(has_error(
      compile(with_base("property p { always routed(ghost); }\n")),
      "unknown-connector"));
  EXPECT_TRUE(has_error(
      compile(with_base("property p { always replicas(Ghost) >= 1; }\n")),
      "unknown-type"));
  EXPECT_TRUE(has_error(
      compile(with_base("property p { always running(worker, Ghost); }\n")),
      "unknown-type"));
  EXPECT_TRUE(has_error(compile(with_base("property p { reverts ghost; }\n")),
                        "unknown-rule"));
}

TEST(PropertyTest, DuplicatePropertyNameIsError) {
  EXPECT_TRUE(has_error(
      compile(with_base("property p { always exists(worker); }\n"
                        "property p { always exists(worker); }\n")),
      "duplicate-name"));
}

TEST(PropertyTest, SyntaxErrors) {
  EXPECT_TRUE(has_error(
      compile(with_base("property p {\n  always exists(worker);\n")),
      "unterminated-property"));
  EXPECT_FALSE(
      compile(with_base("property p { }\n")).ok());  // no clauses
  EXPECT_FALSE(
      compile(with_base("property p { sometimes exists(worker); }\n")).ok());
  EXPECT_FALSE(
      compile(with_base("property p { always replicas(Worker); }\n")).ok());
  EXPECT_FALSE(compile(with_base(
                   "property p { always not replicas(Worker) >= 1; }\n"))
                   .ok());
}

}  // namespace
}  // namespace aars::adl
