// The unified compiler entrypoint: structured diagnostics with line AND
// column, caret rendering, and the emitted RuleProgram whose names are
// pre-interned Symbols. Golden-diagnostic cases mirror the seeded defect
// corpus (configs/defects/d11+) so the codes stay stable.
#include "adl/compiler.h"

#include <gtest/gtest.h>

#include <string>

namespace aars::adl {
namespace {

using util::ErrorCode;

// Line numbers below assume this literal starts at line 1 (no leading
// newline) and spans 12 lines, so appended sources start at line 13.
constexpr const char* kBase = R"(interface Work {
  service run(cost: double) -> int;
}
component Worker provides Work;
component Driver { requires work: Work; }
node primary { capacity 10000; }
node standby { capacity 10000; }
link primary <-> standby { latency 1ms; bandwidth 100mbps; }
instance worker: Worker on primary;
instance driver: Driver on standby;
connector jobs { routing direct; delivery queued; capacity 64; }
bind driver.work -> worker via jobs;
)";

const Diagnostic& first_error(const CompilationResult& result) {
  for (const Diagnostic& d : result.diagnostics.items) {
    if (d.severity == Severity::kError) return d;
  }
  static const Diagnostic none;
  return none;
}

TEST(CompilerTest, CleanTopologyCompilesWithEmptyProgram) {
  CompilationResult result = compile(kBase);
  ASSERT_TRUE(result.ok()) << render_text(result.diagnostics, "<input>");
  EXPECT_TRUE(result.program.empty());
  EXPECT_EQ(result.config.instance_index.size(), 2u);
  EXPECT_EQ(result.config.connector_index.size(), 1u);
  EXPECT_EQ(result.source, kBase);
}

TEST(CompilerTest, RuleLoweredToPreResolvedProgram) {
  const std::string source = std::string(kBase) +
                             R"(when queue_depth(jobs) > 32 for 3 ticks reconfigure scale_out {
  cooldown 500ms;
  add w2: Worker on standby;
  reroute worker to w2;
}
)";
  CompilationResult result = compile(source);
  ASSERT_TRUE(result.ok())
      << render_text(result.diagnostics, "<input>", source);
  ASSERT_EQ(result.program.rules.size(), 1u);

  const CompiledRule& rule = result.program.rules[0];
  // Symbols are interned: equality against a fresh intern of the same text
  // is how the runtime compares them (pointer comparison underneath).
  EXPECT_EQ(rule.name, util::Symbol("scale_out"));
  EXPECT_FALSE(rule.condition.is_event);
  EXPECT_EQ(rule.condition.source, MetricSource::kQueueDepth);
  EXPECT_EQ(rule.condition.subject, util::Symbol("jobs"));
  EXPECT_EQ(rule.condition.compare, AstCompare::kGt);
  EXPECT_DOUBLE_EQ(rule.condition.threshold, 32.0);
  EXPECT_EQ(rule.condition.sustain_ticks, 3);
  EXPECT_EQ(rule.cooldown_us, 500000);

  ASSERT_EQ(rule.actions.size(), 2u);
  EXPECT_EQ(rule.actions[0].op, PlanOp::kAdd);
  EXPECT_EQ(rule.actions[0].name, util::Symbol("w2"));
  EXPECT_EQ(rule.actions[0].type, util::Symbol("Worker"));
  EXPECT_EQ(rule.actions[0].node, util::Symbol("standby"));
  EXPECT_EQ(rule.actions[1].op, PlanOp::kReroute);
  EXPECT_EQ(rule.actions[1].instance, util::Symbol("worker"));
  EXPECT_EQ(rule.actions[1].replica, util::Symbol("w2"));
}

TEST(CompilerTest, AnonymousRulesAreNamedByIndex) {
  const std::string source =
      std::string(kBase) +
      "when queue_depth(jobs) > 1 reconfigure { remove worker; }\n"
      "when backlog(primary) > 2 reconfigure { migrate worker to standby; }\n";
  CompilationResult result = compile(source);
  ASSERT_TRUE(result.ok())
      << render_text(result.diagnostics, "<input>", source);
  ASSERT_EQ(result.program.rules.size(), 2u);
  EXPECT_EQ(result.program.rules[0].name, util::Symbol("rule_0"));
  EXPECT_EQ(result.program.rules[1].name, util::Symbol("rule_1"));
  EXPECT_EQ(result.program.rules[1].condition.source,
            MetricSource::kNodeBacklog);
  EXPECT_EQ(result.program.rules[1].condition.subject,
            util::Symbol("primary"));
}

TEST(CompilerTest, EventConditionIsInterned) {
  const std::string source =
      std::string(kBase) +
      "when event fault.host_down reconfigure fail_over {\n"
      "  replace worker with Worker as worker_spare;\n"
      "}\n";
  CompilationResult result = compile(source);
  ASSERT_TRUE(result.ok())
      << render_text(result.diagnostics, "<input>", source);
  ASSERT_EQ(result.program.rules.size(), 1u);
  const CompiledRule& rule = result.program.rules[0];
  EXPECT_TRUE(rule.condition.is_event);
  EXPECT_EQ(rule.condition.event, util::Symbol("fault.host_down"));
  ASSERT_EQ(rule.actions.size(), 1u);
  EXPECT_EQ(rule.actions[0].op, PlanOp::kReplace);
  EXPECT_EQ(rule.actions[0].name, util::Symbol("worker_spare"));
}

TEST(CompilerTest, GoalsAndScenariosAreEmitted) {
  const std::string source = std::string(kBase) +
                             R"(goal responsive {
  latency jobs <= 10ms;
  replicas Worker >= 1;
  place worker on primary;
}
scenario outage {
  description "primary dies";
  goal responsive;
  fault "at 500ms crash host=primary for 300ms";
  duration 5s;
}
)";
  CompilationResult result = compile(source);
  ASSERT_TRUE(result.ok())
      << render_text(result.diagnostics, "<input>", source);
  ASSERT_EQ(result.program.goals.size(), 1u);
  const CompiledGoal& goal = result.program.goals[0];
  EXPECT_EQ(goal.name, util::Symbol("responsive"));
  ASSERT_EQ(goal.qos.size(), 1u);
  EXPECT_EQ(goal.qos[0].connector, util::Symbol("jobs"));
  EXPECT_TRUE(goal.qos[0].upper);
  EXPECT_EQ(goal.qos[0].latency_us, 10000);
  ASSERT_EQ(goal.replicas.size(), 1u);
  EXPECT_EQ(goal.replicas[0].type, util::Symbol("Worker"));
  ASSERT_EQ(result.program.scenarios.size(), 1u);
  const CompiledScenario& scenario = result.program.scenarios[0];
  EXPECT_EQ(scenario.name, util::Symbol("outage"));
  ASSERT_EQ(scenario.goals.size(), 1u);
  EXPECT_EQ(scenario.goals[0], util::Symbol("responsive"));
  ASSERT_EQ(scenario.faults.size(), 1u);
  EXPECT_EQ(scenario.duration_us, 5000000);
}

// --- golden diagnostics (mirroring configs/defects/d11..d14) --------------

TEST(CompilerTest, UnterminatedRuleBlockKeepsItsCode) {
  const std::string source =
      std::string(kBase) +
      "when queue_depth(jobs) > 1 reconfigure leak {\n  cooldown 1s;\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  // The explicit code survives even though the parser ran off the end of
  // the file.
  EXPECT_EQ(d.code, "unterminated-rule");
  EXPECT_EQ(d.line, 15);  // end of input, on the line after the last one
  EXPECT_EQ(d.column, 1);
}

TEST(CompilerTest, UnknownMetricHasLineAndColumn) {
  const std::string source =
      std::string(kBase) +
      "when qdepth(jobs) > 1 reconfigure r { remove worker; }\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  EXPECT_EQ(d.code, "unknown-metric");
  EXPECT_EQ(d.line, 13);
  EXPECT_EQ(d.column, 6);  // the metric name, just past "when "
  EXPECT_NE(d.message.find("qdepth"), std::string::npos);
}

TEST(CompilerTest, RuleReferencingUndeclaredInstance) {
  const std::string source = std::string(kBase) +
                             "when queue_depth(jobs) > 1 reconfigure r {\n"
                             "  remove ghost;\n"
                             "}\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  EXPECT_EQ(d.code, "unknown-instance");
  EXPECT_EQ(d.line, 14);
  EXPECT_EQ(d.column, 3);
  EXPECT_NE(d.message.find("ghost"), std::string::npos);
}

TEST(CompilerTest, ContradictoryQosBoundsInAGoal) {
  const std::string source = std::string(kBase) +
                             "goal g {\n"
                             "  latency jobs <= 2ms;\n"
                             "  latency jobs >= 5ms;\n"
                             "}\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  EXPECT_EQ(d.code, "contradictory-qos");
  EXPECT_EQ(d.line, 15);  // the second (contradicting) bound
  EXPECT_NE(d.message.find("2000us"), std::string::npos);
  EXPECT_NE(d.message.find("5000us"), std::string::npos);
}

TEST(CompilerTest, RenderDrawsACaretUnderTheColumn) {
  const std::string source =
      std::string(kBase) +
      "when qdepth(jobs) > 1 reconfigure r { remove worker; }\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const std::string rendered =
      render_text(result.diagnostics, "app.adl", result.source);
  EXPECT_NE(rendered.find("app.adl:13:6: error: [unknown-metric] "),
            std::string::npos);
  // The offending source line is echoed...
  EXPECT_NE(rendered.find("when qdepth(jobs)"), std::string::npos);
  // ...with a caret under column 6 (2-space indent + 5 pad spaces).
  EXPECT_NE(rendered.find("\n       ^"), std::string::npos);
}

TEST(CompilerTest, MultipleErrorsAreAllReported) {
  const std::string source =
      std::string(kBase) +
      "when qdepth(jobs) > 1 reconfigure a { remove worker; }\n"
      "when queue_depth(jobs) > 1 reconfigure b { remove ghost; }\n";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  // Sema keeps going after the first bad rule — both problems surface in
  // one compile.
  EXPECT_EQ(result.diagnostics.errors(), 2u);
}

// --- expected-token attribution -------------------------------------------

TEST(CompilerTest, MissingSemicolonAnchorsToTheLineItEnds) {
  // The ';' missing after "state busy" (line 7) must be reported on line 7,
  // after 'busy' — not wherever line 8 happens to start. This was the
  // multi-line protocol block off-by-one.
  constexpr const char* source = R"(interface Work {
  service run(cost: double) -> int;
}
component W provides Work {
  protocol {
    state idle;
    state busy
    state done final;
  }
}
)";
  CompilationResult result = compile(source);
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  EXPECT_EQ(d.code, "parse-error");
  EXPECT_EQ(d.line, 7);
  EXPECT_EQ(d.column, 15);  // one past the end of 'busy'
  EXPECT_NE(d.message.find("after 'busy'"), std::string::npos);
}

TEST(CompilerTest, MissingTokenOnTheSameLineStaysAtTheNextToken) {
  // When everything sits on one line the next token is the better anchor.
  CompilationResult result = compile("node n { capacity 10 42; }");
  ASSERT_FALSE(result.ok());
  const Diagnostic& d = first_error(result);
  EXPECT_EQ(d.line, 1);
  EXPECT_NE(d.message.find("';'"), std::string::npos);
}

// --- flattening to util::Error --------------------------------------------

TEST(CompilerTest, CompileFileReportsUnreadablePath) {
  CompilationResult result = compile_file("/nonexistent/x.adl");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(first_error(result).code, "unreadable-file");
  EXPECT_EQ(first_error(result).line, 0);
  EXPECT_EQ(result.diagnostics.to_error().code(), ErrorCode::kParseError);
}

TEST(CompilerTest, EveryStageFlattensToAParseError) {
  // A sema finding flattens like a parse error: the front end's one
  // ErrorCode, the first error's location and its message.
  CompilationResult result = compile("interface A {} interface A {}");
  ASSERT_FALSE(result.ok());
  const util::Error error = result.diagnostics.to_error();
  EXPECT_EQ(error.code(), ErrorCode::kParseError);
  EXPECT_EQ(error.message(), "line 1 col 16: duplicate interface 'A'");
}

}  // namespace
}  // namespace aars::adl
