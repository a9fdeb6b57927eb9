#include "adl/parser.h"

#include <gtest/gtest.h>

namespace aars::adl {
namespace {

Configuration parse_ok(std::string_view src) {
  Diagnostics diags;
  Configuration config = parse_ast(src, diags);
  EXPECT_TRUE(diags.ok()) << render_text(diags, "<input>", src);
  return config;
}

/// The one diagnostic parsing `src` reports: the parser stops at its first
/// error (an empty one, after a test failure, when there is not exactly
/// one).
Diagnostic parse_error(std::string_view src) {
  Diagnostics diags;
  parse_ast(src, diags);
  EXPECT_EQ(diags.items.size(), 1u) << render_text(diags, "<input>", src);
  return diags.items.size() == 1 ? diags.items[0] : Diagnostic{};
}

void expect_at(const Diagnostic& d, const char* code, int line, int column) {
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.code, code);
  EXPECT_EQ(d.line, line);
  EXPECT_EQ(d.column, column);
}

TEST(ParserTest, EmptySourceIsEmptyConfig) {
  const Configuration config = parse_ok("");
  EXPECT_TRUE(config.interfaces.empty());
  EXPECT_TRUE(config.instances.empty());
}

TEST(ParserTest, InterfaceWithServices) {
  const Configuration config = parse_ok(R"(
    interface Storage version 2 {
      service put(key: string, value: string) -> bool;
      service get(key: string) -> string;
      service flush();
    }
  )");
  ASSERT_EQ(config.interfaces.size(), 1u);
  const AstInterface& iface = config.interfaces[0];
  EXPECT_EQ(iface.name, "Storage");
  EXPECT_EQ(iface.version, 2);
  ASSERT_EQ(iface.services.size(), 3u);
  EXPECT_EQ(iface.services[0].name, "put");
  EXPECT_EQ(iface.services[0].params.size(), 2u);
  EXPECT_EQ(iface.services[0].result_type, "bool");
  EXPECT_EQ(iface.services[2].result_type, "any");  // default
}

TEST(ParserTest, OptionalParameters) {
  const Configuration config = parse_ok(R"(
    interface I { service f(optional x: int) -> int; }
  )");
  EXPECT_TRUE(config.interfaces[0].services[0].params[0].optional);
}

TEST(ParserTest, ComponentWithRequiresAndAttributes) {
  const Configuration config = parse_ok(R"(
    interface Video { service frame() -> map; }
    interface Clock { service now() -> int; }
    component Camera provides Video {
      requires clock: Clock;
      attribute fps: int = 30;
      attribute label: string = "cam";
      attribute scale: double = 1.5;
      attribute on: bool = true;
    }
  )");
  ASSERT_EQ(config.components.size(), 1u);
  const AstComponent& comp = config.components[0];
  EXPECT_EQ(comp.provides, "Video");
  ASSERT_EQ(comp.requires_.size(), 1u);
  EXPECT_EQ(comp.requires_[0].port, "clock");
  ASSERT_EQ(comp.attributes.size(), 4u);
  EXPECT_EQ(comp.attributes[0].default_value.as_int(), 30);
  EXPECT_EQ(comp.attributes[1].default_value.as_string(), "cam");
  EXPECT_DOUBLE_EQ(comp.attributes[2].default_value.as_double(), 1.5);
  EXPECT_TRUE(comp.attributes[3].default_value.as_bool());
}

TEST(ParserTest, BareComponentDeclaration) {
  const Configuration config = parse_ok("component Simple;");
  ASSERT_EQ(config.components.size(), 1u);
  EXPECT_TRUE(config.components[0].provides.empty());
}

TEST(ParserTest, NodesAndLinks) {
  const Configuration config = parse_ok(R"(
    node edge { capacity 2000; }
    node core { capacity 8000; }
    link edge -> core { latency 5ms; bandwidth 100mbps; }
    link edge <-> core { latency 1ms; jitter 100us; loss 0.01; }
  )");
  ASSERT_EQ(config.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(config.nodes[0].capacity, 2000.0);
  ASSERT_EQ(config.links.size(), 2u);
  EXPECT_FALSE(config.links[0].duplex);
  EXPECT_EQ(config.links[0].latency_us, 5000);
  EXPECT_DOUBLE_EQ(config.links[0].bandwidth_bytes_per_sec, 100e6 / 8.0);
  EXPECT_TRUE(config.links[1].duplex);
  EXPECT_EQ(config.links[1].jitter_us, 100);
  EXPECT_DOUBLE_EQ(config.links[1].loss, 0.01);
}

TEST(ParserTest, InstancesWithOverrides) {
  const Configuration config = parse_ok(R"(
    component Camera;
    node n { capacity 100; }
    instance cam: Camera on n { fps = 25; }
    instance cam2: Camera on n;
  )");
  ASSERT_EQ(config.instances.size(), 2u);
  EXPECT_EQ(config.instances[0].name, "cam");
  EXPECT_EQ(config.instances[0].type, "Camera");
  EXPECT_EQ(config.instances[0].node, "n");
  ASSERT_EQ(config.instances[0].attribute_overrides.size(), 1u);
  EXPECT_EQ(config.instances[0].attribute_overrides[0].second.as_int(), 25);
  EXPECT_TRUE(config.instances[1].attribute_overrides.empty());
}

TEST(ParserTest, ConnectorDeclaration) {
  const Configuration config = parse_ok(R"(
    connector c1 {
      routing round_robin;
      delivery queued;
      capacity 64;
      aspects [logging, metrics];
    }
  )");
  ASSERT_EQ(config.connectors.size(), 1u);
  const AstConnector& conn = config.connectors[0];
  EXPECT_EQ(conn.routing, "round_robin");
  EXPECT_EQ(conn.delivery, "queued");
  EXPECT_EQ(conn.capacity, 64);
  EXPECT_EQ(conn.aspects, (std::vector<std::string>{"logging", "metrics"}));
}

TEST(ParserTest, Bindings) {
  const Configuration config = parse_ok(R"(
    bind cam.clock -> clk via c1;
    bind cam.out -> s1, s2 via lb;
    bind a.p -> b;
  )");
  ASSERT_EQ(config.bindings.size(), 3u);
  EXPECT_EQ(config.bindings[0].from_instance, "cam");
  EXPECT_EQ(config.bindings[0].from_port, "clock");
  EXPECT_EQ(config.bindings[0].via_connector, "c1");
  EXPECT_EQ(config.bindings[1].to_instances.size(), 2u);
  EXPECT_TRUE(config.bindings[2].via_connector.empty());
}

TEST(ParserTest, ConnectorBudgetProperty) {
  const Configuration config = parse_ok(R"(
    connector fast { routing direct; delivery sync; budget 10ms; }
    connector slow { routing direct; delivery sync; }
  )");
  ASSERT_EQ(config.connectors.size(), 2u);
  EXPECT_EQ(config.connectors[0].budget_us, 10000);
  EXPECT_EQ(config.connectors[1].budget_us, 0);
}

TEST(ParserTest, ProtocolBlockWithStatesAndTransitions) {
  const Configuration config = parse_ok(R"(
    interface Echo { service echo(text: string) -> string; }
    component Server provides Echo {
      protocol {
        state idle final;
        state busy;
        idle -> busy on echo?;
        busy -> idle on done!;
        busy -> busy on tau;
      }
    }
  )");
  ASSERT_EQ(config.components.size(), 1u);
  ASSERT_TRUE(config.components[0].protocol.has_value());
  const AstProtocol& protocol = *config.components[0].protocol;
  ASSERT_EQ(protocol.states.size(), 2u);
  EXPECT_EQ(protocol.states[0].name, "idle");
  EXPECT_TRUE(protocol.states[0].final_state);
  EXPECT_FALSE(protocol.states[1].final_state);
  ASSERT_EQ(protocol.transitions.size(), 3u);
  EXPECT_EQ(protocol.transitions[0].action, "echo");
  EXPECT_EQ(protocol.transitions[0].direction, '?');
  EXPECT_EQ(protocol.transitions[1].direction, '!');
  EXPECT_EQ(protocol.transitions[2].direction, 't');
}

TEST(ParserTest, SecondProtocolBlockRejected) {
  const Diagnostic d = parse_error(R"(
    component C {
      protocol { state s final; }
      protocol { state t final; }
    }
  )");
  expect_at(d, "parse-error", 4, 7);  // the second `protocol`
}

TEST(ParserTest, ProtocolTransitionNeedsDirection) {
  // `on action` without ? / ! / tau is malformed.
  const Diagnostic d = parse_error(
      "component C {\n  protocol {\n    state a;\n    a -> a on echo;\n  }\n}");
  expect_at(d, "parse-error", 4, 19);  // the `;` where `?` or `!` belongs
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  const Diagnostic d = parse_error("interface I {\n  bogus x;\n}");
  expect_at(d, "parse-error", 2, 3);
  EXPECT_NE(d.message.find("bogus"), std::string::npos);
}

TEST(ParserTest, UnknownDeclarationFails) {
  expect_at(parse_error("widget W {}"), "parse-error", 1, 1);
}

TEST(ParserTest, BindingSourceMustBeDotted) {
  expect_at(parse_error("bind cam -> x;"), "parse-error", 1, 10);
}

TEST(ParserTest, MissingSemicolonFails) {
  expect_at(parse_error("node n { capacity 5 }"), "parse-error", 1, 21);
}

TEST(ParserTest, NegativeCapacityFails) {
  expect_at(parse_error("node n { capacity -5; }"), "parse-error", 1, 21);
}

TEST(ParserTest, LossOutOfRangeFails) {
  expect_at(parse_error("node a { capacity 1; } node b { capacity 1; }"
                        "link a -> b { loss 1.5; }"),
            "parse-error", 1, 68);  // just past the offending value
}

TEST(ParserTest, FullRealisticConfiguration) {
  const Configuration config = parse_ok(R"(
    // The quickstart topology.
    interface Echo {
      service echo(text: string) -> string;
      service ping() -> int;
    }
    component EchoServer provides Echo {
      attribute greeting: string = "hi";
    }
    component Client {
      requires out: Echo;
    }
    node edge { capacity 2000; }
    node core { capacity 10000; }
    link edge <-> core { latency 2ms; bandwidth 1gbps; }
    instance server: EchoServer on core;
    instance client: Client on edge;
    connector main { routing direct; delivery sync; }
    bind client.out -> server via main;
  )");
  EXPECT_EQ(config.interfaces.size(), 1u);
  EXPECT_EQ(config.components.size(), 2u);
  EXPECT_EQ(config.nodes.size(), 2u);
  EXPECT_EQ(config.instances.size(), 2u);
  EXPECT_EQ(config.bindings.size(), 1u);
}

}  // namespace
}  // namespace aars::adl
