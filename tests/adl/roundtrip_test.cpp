// Safety net for the compiler's stage wiring: every shipped .adl must
// compile through adl::compile() to exactly the topology its front-end
// stages (parse_ast, then analyze) produce when run one by one, and every
// declared rule, goal and scenario must survive into the emitted program.
// The comparison covers the full AST plus the resolved indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/compiler.h"
#include "adl/parser.h"
#include "adl/sema.h"

namespace aars::adl {
namespace {

std::vector<std::filesystem::path> shipped_configs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(AARS_CONFIG_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".adl") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_same_topology(const CompiledConfiguration& staged,
                          const CompiledConfiguration& unified,
                          const std::string& label) {
  const Configuration& a = staged.ast;
  const Configuration& b = unified.ast;

  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].name, b.nodes[i].name) << label;
    EXPECT_EQ(a.nodes[i].capacity, b.nodes[i].capacity) << label;
  }
  ASSERT_EQ(a.links.size(), b.links.size()) << label;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].from, b.links[i].from) << label;
    EXPECT_EQ(a.links[i].to, b.links[i].to) << label;
    EXPECT_EQ(a.links[i].latency_us, b.links[i].latency_us) << label;
    EXPECT_EQ(a.links[i].bandwidth_bytes_per_sec,
              b.links[i].bandwidth_bytes_per_sec)
        << label;
  }
  ASSERT_EQ(a.instances.size(), b.instances.size()) << label;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].name, b.instances[i].name) << label;
    EXPECT_EQ(a.instances[i].type, b.instances[i].type) << label;
    EXPECT_EQ(a.instances[i].node, b.instances[i].node) << label;
  }
  ASSERT_EQ(a.connectors.size(), b.connectors.size()) << label;
  for (std::size_t i = 0; i < a.connectors.size(); ++i) {
    EXPECT_EQ(a.connectors[i].name, b.connectors[i].name) << label;
    EXPECT_EQ(a.connectors[i].routing, b.connectors[i].routing) << label;
    EXPECT_EQ(a.connectors[i].delivery, b.connectors[i].delivery) << label;
    EXPECT_EQ(a.connectors[i].capacity, b.connectors[i].capacity) << label;
  }
  ASSERT_EQ(a.bindings.size(), b.bindings.size()) << label;
  for (std::size_t i = 0; i < a.bindings.size(); ++i) {
    EXPECT_EQ(a.bindings[i].from_instance, b.bindings[i].from_instance)
        << label;
    EXPECT_EQ(a.bindings[i].from_port, b.bindings[i].from_port) << label;
    EXPECT_EQ(a.bindings[i].to_instances, b.bindings[i].to_instances)
        << label;
    EXPECT_EQ(a.bindings[i].via_connector, b.bindings[i].via_connector)
        << label;
  }

  // Resolved artifacts the runtime builders lower.
  EXPECT_EQ(staged.instance_index, unified.instance_index) << label;
  EXPECT_EQ(staged.connector_index, unified.connector_index) << label;
  ASSERT_EQ(staged.interfaces.size(), unified.interfaces.size()) << label;
  for (const auto& [name, desc] : staged.interfaces) {
    ASSERT_TRUE(unified.interfaces.count(name)) << label << ": " << name;
    EXPECT_EQ(desc.version(), unified.interfaces.at(name).version())
        << label << ": " << name;
  }
  EXPECT_EQ(staged.protocols.size(), unified.protocols.size()) << label;
}

TEST(RoundTripTest, EveryShippedConfigCompilesIdentically) {
  const auto paths = shipped_configs();
  ASSERT_FALSE(paths.empty()) << "no .adl files under " << AARS_CONFIG_DIR;
  for (const auto& path : paths) {
    const std::string label = path.filename().string();
    const std::string source = slurp(path);

    Diagnostics diags;
    Configuration ast = parse_ast(source, diags);
    ASSERT_TRUE(diags.ok()) << render_text(diags, label, source);
    const CompiledConfiguration staged = analyze(std::move(ast), diags);
    ASSERT_TRUE(diags.ok()) << render_text(diags, label, source);

    CompilationResult unified = compile(source);
    ASSERT_TRUE(unified.ok())
        << render_text(unified.diagnostics, label, source);

    expect_same_topology(staged, unified.config, label);

    // Every declared rule/goal/scenario must survive into the program.
    EXPECT_EQ(unified.program.rules.size(), unified.config.ast.rules.size())
        << label;
    EXPECT_EQ(unified.program.goals.size(), unified.config.ast.goals.size())
        << label;
    EXPECT_EQ(unified.program.scenarios.size(),
              unified.config.ast.scenarios.size())
        << label;
  }
}

}  // namespace
}  // namespace aars::adl
