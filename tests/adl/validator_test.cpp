// Semantic analysis: name resolution, typing and binding compatibility,
// driven through adl::compile().
#include <gtest/gtest.h>

#include "adl/compiler.h"
#include "adl/sema.h"

namespace aars::adl {
namespace {

CompiledConfiguration compile_ok(std::string_view src) {
  CompilationResult result = compile(src);
  EXPECT_TRUE(result.ok()) << render_text(result.diagnostics, "<input>", src);
  return std::move(result.config);
}

/// The first error compiling `src` reports (an empty one, after a test
/// failure, when it compiles).
Diagnostic first_error(std::string_view src) {
  const CompilationResult result = compile(src);
  for (const Diagnostic& d : result.diagnostics.items) {
    if (d.severity == Severity::kError) return d;
  }
  ADD_FAILURE() << "compiled cleanly:\n" << src;
  return {};
}

void expect_at(const Diagnostic& d, const char* code, int line, int column) {
  EXPECT_EQ(d.code, code);
  EXPECT_EQ(d.line, line);
  EXPECT_EQ(d.column, column);
}

constexpr const char* kBase = R"(
  interface Echo {
    service echo(text: string) -> string;
  }
  component EchoServer provides Echo;
  component Client { requires out: Echo; }
  node n1 { capacity 1000; }
  node n2 { capacity 1000; }
  link n1 <-> n2 { latency 1ms; }
  instance server: EchoServer on n1;
  instance client: Client on n2;
  connector c { routing direct; delivery sync; }
  bind client.out -> server via c;
)";

TEST(ValidatorTest, ValidConfigurationCompiles) {
  const CompiledConfiguration compiled = compile_ok(kBase);
  EXPECT_EQ(compiled.interfaces.count("Echo"), 1u);
  EXPECT_EQ(compiled.instance_index.size(), 2u);
  EXPECT_EQ(compiled.connector_index.size(), 1u);
}

TEST(ValidatorTest, InterfacesBecomeDescriptions) {
  const CompiledConfiguration compiled = compile_ok(kBase);
  ASSERT_EQ(compiled.interfaces.count("Echo"), 1u);
  const auto& echo = compiled.interfaces.at("Echo");
  EXPECT_EQ(echo.version(), 1);
  ASSERT_NE(echo.find("echo"), nullptr);
  EXPECT_EQ(echo.find("echo")->params[0].type, util::ValueType::kString);
}

TEST(ValidatorTest, DuplicateInterfaceRejected) {
  expect_at(first_error("interface A {} interface A {}"), "duplicate-name", 1,
            16);
}

TEST(ValidatorTest, UnknownProvidedInterfaceRejected) {
  expect_at(first_error("component C provides Ghost;"), "unknown-interface",
            1, 1);
}

TEST(ValidatorTest, UnknownRequiredInterfaceRejected) {
  expect_at(first_error("component C { requires p: Ghost; }"),
            "unknown-interface", 1, 24);
}

TEST(ValidatorTest, UnknownAttributeTypeRejected) {
  expect_at(first_error("component C { attribute a: widget; }"),
            "unknown-type", 1, 25);
}

TEST(ValidatorTest, DefaultValueTypeMismatchRejected) {
  expect_at(first_error("component C { attribute a: int = \"oops\"; }"),
            "type-mismatch", 1, 25);
}

TEST(ValidatorTest, DoubleAttributeAcceptsIntLiteral) {
  EXPECT_TRUE(compile("component C { attribute a: double = 3; }").ok());
}

TEST(ValidatorTest, LinkToUnknownNodeRejected) {
  expect_at(
      first_error("node a { capacity 1; } link a -> ghost { latency 1ms; }"),
      "unknown-node", 1, 24);
}

TEST(ValidatorTest, InstanceOfUnknownTypeRejected) {
  expect_at(first_error("node n { capacity 1; } instance x: Ghost on n;"),
            "unknown-type", 1, 24);
}

TEST(ValidatorTest, InstanceOnUnknownNodeRejected) {
  expect_at(first_error("component C; instance x: C on ghost;"),
            "unknown-node", 1, 14);
}

TEST(ValidatorTest, OverrideOfUnknownAttributeRejected) {
  expect_at(first_error("component C; node n { capacity 1; } "
                        "instance x: C on n { a = 1; }"),
            "unknown-attribute", 1, 37);
}

TEST(ValidatorTest, OverrideTypeMismatchRejected) {
  expect_at(
      first_error("component C { attribute a: int = 1; } node n { capacity 1; }"
                  "instance x: C on n { a = \"s\"; }"),
      "type-mismatch", 1, 61);
}

TEST(ValidatorTest, UnknownRoutingRejected) {
  expect_at(first_error("connector c { routing magic; }"), "unknown-routing",
            1, 1);
}

TEST(ValidatorTest, BindingFromUnknownInstanceRejected) {
  expect_at(first_error("bind ghost.p -> also_ghost;"), "unknown-instance", 1,
            1);
}

TEST(ValidatorTest, BindingUnknownPortRejected) {
  expect_at(first_error(R"(
    interface I { service f(); }
    component A provides I;
    component B { requires p: I; }
    node n { capacity 1; }
    instance a: A on n;
    instance b: B on n;
    bind b.ghost -> a;
  )"),
            "unknown-port", 8, 5);
}

TEST(ValidatorTest, BindingToNonProviderRejected) {
  expect_at(first_error(R"(
    interface I { service f(); }
    component A { requires p: I; }
    node n { capacity 1; }
    instance a: A on n;
    instance b: A on n;
    bind a.p -> b;
  )"),
            "no-provided-interface", 7, 5);
}

TEST(ValidatorTest, IncompatibleInterfaceBindingRejected) {
  const Diagnostic d = first_error(R"(
    interface I { service f(); }
    interface J { service g(); }
    component A provides J;
    component B { requires p: I; }
    node n { capacity 1; }
    instance a: A on n;
    instance b: B on n;
    bind b.p -> a;
  )");
  expect_at(d, "interface-mismatch", 9, 5);
  EXPECT_NE(d.message.find("interface mismatch"), std::string::npos);
}

TEST(ValidatorTest, MultiProviderNeedsExplicitConnector) {
  expect_at(first_error(R"(
    interface I { service f(); }
    component A provides I;
    component B { requires p: I; }
    node n { capacity 1; }
    instance a1: A on n;
    instance a2: A on n;
    instance b: B on n;
    bind b.p -> a1, a2;
  )"),
            "missing-connector", 9, 5);
}

TEST(ValidatorTest, MultiProviderOnDirectConnectorRejected) {
  expect_at(first_error(R"(
    interface I { service f(); }
    component A provides I;
    component B { requires p: I; }
    node n { capacity 1; }
    instance a1: A on n;
    instance a2: A on n;
    instance b: B on n;
    connector c { routing direct; }
    bind b.p -> a1, a2 via c;
  )"),
            "invalid-routing", 10, 5);
}

TEST(ValidatorTest, MultiProviderOnRoundRobinAccepted) {
  compile_ok(R"(
    interface I { service f(); }
    component A provides I;
    component B { requires p: I; }
    node n { capacity 1; }
    instance a1: A on n;
    instance a2: A on n;
    instance b: B on n;
    connector c { routing round_robin; }
    bind b.p -> a1, a2 via c;
  )");
}

TEST(ValidatorTest, ValueTypeNames) {
  EXPECT_EQ(value_type_from_name("int").value(), util::ValueType::kInt);
  EXPECT_EQ(value_type_from_name("any").value(), util::ValueType::kNull);
  EXPECT_FALSE(value_type_from_name("junk").ok());
}

// ---------------------------------------------------------------------------
// Protocol compilation.

TEST(ValidatorTest, ProtocolCompilesToLts) {
  const CompiledConfiguration compiled = compile_ok(R"(
    interface Echo { service echo(text: string) -> string; }
    component Server provides Echo {
      protocol {
        state idle final;
        state busy;
        idle -> busy on echo?;
        busy -> idle on done!;
      }
    }
  )");
  ASSERT_EQ(compiled.protocols.count("Server"), 1u);
  const lts::Lts& lts = compiled.protocols.at("Server");
  EXPECT_EQ(lts.state_count(), 2u);
  EXPECT_TRUE(lts.is_final(0));   // first declared state is initial
  EXPECT_FALSE(lts.is_final(1));
  EXPECT_EQ(lts.transition_count(), 2u);
}

TEST(ValidatorTest, EmptyProtocolRejected) {
  const Diagnostic d = first_error("component C {\n  protocol {\n  }\n}");
  expect_at(d, "empty-protocol", 2, 3);
  EXPECT_NE(d.message.find("declares no states"), std::string::npos);
}

TEST(ValidatorTest, DuplicateProtocolStateRejected) {
  const Diagnostic d = first_error(R"(
    component C {
      protocol {
        state s final;
        state s;
      }
    }
  )");
  expect_at(d, "duplicate-state", 5, 15);
  EXPECT_NE(d.message.find("duplicate protocol state"), std::string::npos);
}

TEST(ValidatorTest, TransitionFromUnknownStateRejected) {
  const Diagnostic d = first_error(R"(
    component C {
      protocol {
        state s final;
        ghost -> s on go?;
      }
    }
  )");
  expect_at(d, "unknown-state", 5, 9);
  EXPECT_NE(d.message.find("unknown state"), std::string::npos);
}

TEST(ValidatorTest, ConnectorBudgetIsCompiled) {
  const CompiledConfiguration compiled = compile_ok(R"(
    connector fast { routing direct; delivery sync; budget 5ms; }
  )");
  ASSERT_EQ(compiled.connector_index.count("fast"), 1u);
  const std::size_t index = compiled.connector_index.at("fast");
  EXPECT_EQ(compiled.ast.connectors[index].budget_us, 5000);
}

// ---------------------------------------------------------------------------
// Error paths must carry source locations so lint output is clickable.

TEST(ValidatorTest, DiagnosticsCarryLineNumbers) {
  struct Case {
    const char* src;
    const char* code;
    int line;
    int column;
  };
  const Case cases[] = {
      // Instance of unknown type on line 2.
      {"node n { capacity 1; }\ninstance x: Ghost on n;\n", "unknown-type", 2,
       1},
      // Instance on unknown node, line 3.
      {"interface I { service f(); }\ncomponent A provides I;\n"
       "instance a: A on nowhere;\n",
       "unknown-node", 3, 1},
      // Binding from unknown instance, line 1.
      {"bind ghost.p -> also_ghost;\n", "unknown-instance", 1, 1},
      // Duplicate protocol state, line 4.
      {"component C {\n  protocol {\n    state s final;\n    state s;\n  }\n}",
       "duplicate-state", 4, 11},
      // Transition from unknown state, line 4.
      {"component C {\n  protocol {\n    state s final;\n"
       "    ghost -> s on go?;\n  }\n}",
       "unknown-state", 4, 5},
      // Unknown routing policy, line 2.
      {"node n { capacity 1; }\nconnector c { routing psychic; }\n",
       "unknown-routing", 2, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.src);
    expect_at(first_error(c.src), c.code, c.line, c.column);
  }
}

}  // namespace
}  // namespace aars::adl
