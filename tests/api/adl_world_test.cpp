// ADL worlds built through the runtime builders: a world declared partly
// with builder verbs and partly in ADL gets the same nodes, components,
// connectors, providers, bindings and links — with the same ids — on every
// builder, and the ADL's deployment checks (implementations present and
// honouring their declared interface, attribute defaults, implicit
// connectors, compile errors) hold on both.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adl/compiler.h"
#include "adl/sema.h"
#include "analysis/architecture.h"
#include "analysis/path_props.h"
#include "api/runtime.h"
#include "api/sharded_runtime.h"
#include "testing/test_components.h"

namespace aars {
namespace {

using aars::testing::CounterServer;
using aars::testing::EchoClient;
using aars::testing::EchoServer;
using util::ErrorCode;
using util::Value;

sim::LinkSpec ms_link(int ms) {
  sim::LinkSpec link;
  link.latency = util::milliseconds(ms);
  return link;
}

connector::ConnectorSpec named(const std::string& name,
                               connector::RoutingPolicy routing =
                                   connector::RoutingPolicy::kDirect) {
  connector::ConnectorSpec spec;
  spec.name = name;
  spec.routing = routing;
  return spec;
}

/// Every node, link, component, connector and binding of one stack, with
/// its id, in id order.
std::string describe(Runtime& rt) {
  std::ostringstream out;
  sim::Network& net = rt.network();
  for (const util::NodeId id : net.node_ids()) {
    out << "node " << id.raw() << " " << net.node(id).name()
        << " capacity=" << net.node(id).capacity() << "\n";
  }
  for (const auto& [ends, spec] : net.links()) {
    out << "link " << net.node(ends.first).name() << " -> "
        << net.node(ends.second).name() << " latency=" << spec.latency
        << " bandwidth=" << spec.bandwidth_bytes_per_sec << "\n";
  }
  runtime::Application& app = rt.app();
  for (const util::ComponentId id : app.component_ids()) {
    const component::Component& comp = *app.find_component(id);
    out << "component " << id.raw() << " " << comp.instance_name() << ": "
        << comp.type_name() << " on " << net.node(app.placement(id)).name()
        << " attributes=" << comp.attributes().to_string() << "\n";
  }
  for (const util::ConnectorId id : app.connector_ids()) {
    const connector::Connector& conn = *app.find_connector(id);
    out << "connector " << id.raw() << " " << conn.name() << " "
        << connector::to_string(conn.routing()) << " "
        << (conn.delivery() == connector::DeliveryMode::kQueued ? "queued"
                                                                : "sync")
        << " capacity=" << conn.spec().queue_capacity << " providers=";
    for (const util::ComponentId provider : conn.providers()) {
      out << " " << app.find_component(provider)->instance_name();
    }
    out << "\n";
  }
  for (const util::ComponentId id : app.component_ids()) {
    const component::Component& comp = *app.find_component(id);
    for (const component::RequiredPort& port : comp.required()) {
      const util::ConnectorId bound = app.binding(id, port.name);
      out << "bind " << comp.instance_name() << "." << port.name << " -> "
          << (bound.valid() ? app.find_connector(bound)->name() : "(none)")
          << "\n";
    }
  }
  return out.str();
}

// The ADL half of the mixed world: nodes, a duplex and a one-way link,
// instances with attribute defaults and an override, a named
// multi-provider connector and a bare binding.
constexpr const char* kMixedAdl = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
interface Counter {
  service add(amount: int) -> int;
  service total() -> int;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
component CounterServer provides Counter {
  attribute label: string = "adl";
  attribute limit: int = 10;
}
node edge { capacity 2000; }
node core { capacity 10000; }
node vault { capacity 500; }
link edge <-> core { latency 2ms; bandwidth 100mbps; }
link core -> vault { latency 5ms; bandwidth 10mbps; }
instance s1: EchoServer on core;
instance s2: EchoServer on core;
instance c1: EchoClient on edge;
instance c2: EchoClient on edge;
instance tally: CounterServer on vault { limit = 99; }
connector lb { routing round_robin; delivery queued; capacity 64; }
bind c1.out -> s2, s1 via lb;
bind c2.out -> s1;
)";

// What the mixed world declares, in id order.  The builder's hosts and
// link come first; the ADL's nodes and links follow.  The ADL's instances
// and connectors (named, then implicit in binding order) come before the
// builder's deploys and connector.
constexpr const char* kMixedWorld =
    "node 1 gw capacity=5000\n"
    "node 2 store capacity=8000\n"
    "node 3 edge capacity=2000\n"
    "node 4 core capacity=10000\n"
    "node 5 vault capacity=500\n"
    "link gw -> store latency=1000 bandwidth=1.25e+07\n"
    "link store -> gw latency=1000 bandwidth=1.25e+07\n"
    "link edge -> core latency=2000 bandwidth=1.25e+07\n"
    "link core -> edge latency=2000 bandwidth=1.25e+07\n"
    "link core -> vault latency=5000 bandwidth=1.25e+06\n"
    "component 1 s1: EchoServer on core attributes={}\n"
    "component 2 s2: EchoServer on core attributes={}\n"
    "component 3 c1: EchoClient on edge attributes={}\n"
    "component 4 c2: EchoClient on edge attributes={}\n"
    "component 5 tally: CounterServer on vault "
    "attributes={\"label\":\"adl\",\"limit\":99}\n"
    "component 6 b_echo: EchoServer on gw attributes=null\n"
    "component 7 b_ctr: CounterServer on store "
    "attributes={\"label\":\"builder\"}\n"
    "connector 1 lb round_robin queued capacity=64 providers= s2 s1\n"
    "connector 2 implicit_c2_out_0 direct sync capacity=1024 providers= s1\n"
    "connector 3 b_front round_robin sync capacity=1024 providers= b_echo "
    "s2\n"
    "bind c1.out -> lb\n"
    "bind c2.out -> implicit_c2_out_0\n";

template <typename Builder>
Builder& declare_mixed(Builder& builder) {
  return builder.link("gw", "store", ms_link(1))
      .template component_class<EchoServer>("EchoServer")
      .template component_class<EchoClient>("EchoClient")
      .template component_class<CounterServer>("CounterServer")
      .adl(kMixedAdl)
      .deploy("EchoServer", "b_echo", "gw")
      .deploy("CounterServer", "b_ctr", "store",
              Value::object({{"label", "builder"}}))
      .connect(named("b_front", connector::RoutingPolicy::kRoundRobin),
               {"b_echo", "s2"});
}

ShardedRuntime::Builder sharded(std::size_t shards) {
  return ShardedRuntime::builder().with_shards(shards).cross_shard_link(
      ms_link(1));
}

TEST(AdlWorldTest, MixedWorldKeepsItsIdsOnEveryBuilder) {
  Runtime::Builder plain = Runtime::builder();
  declare_mixed(plain.host("gw", 5000).host("store", 8000));
  auto built = plain.build();
  ASSERT_TRUE(built.ok()) << built.error().message();
  Runtime& rt = *built.value();
  EXPECT_EQ(describe(rt), kMixedWorld);

  // Name lookups agree with the ids above.
  EXPECT_EQ(rt.host("vault").raw(), 5u);
  EXPECT_EQ(rt.component("tally").raw(), 5u);
  EXPECT_EQ(rt.connector("implicit_c2_out_0").raw(), 2u);
  // The one-way ADL link joins core to vault only.
  EXPECT_TRUE(rt.network().has_link(rt.host("core"), rt.host("vault")));
  EXPECT_FALSE(rt.network().has_link(rt.host("vault"), rt.host("core")));
  EXPECT_TRUE(rt.network().has_link(rt.host("edge"), rt.host("core")));
  EXPECT_TRUE(rt.network().has_link(rt.host("core"), rt.host("edge")));
  EXPECT_TRUE(rt.network().has_link(rt.host("gw"), rt.host("store")));
  EXPECT_TRUE(rt.network().has_link(rt.host("store"), rt.host("gw")));
  EXPECT_FALSE(rt.network().has_link(rt.host("gw"), rt.host("edge")));

  // One shard, and two with the ADL world on shard 0: shard 0's stack is
  // the plain one, and the other shard holds only its own host.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedRuntime::Builder builder = sharded(shards);
    builder.host("gw", 5000, 0).host("store", 8000, 0);
    if (shards == 2) builder.host("far", 3000, 1);
    declare_mixed(builder);
    auto srt = builder.build();
    ASSERT_TRUE(srt.ok()) << shards << " shard(s): " << srt.error().message();
    EXPECT_EQ(describe(srt.value()->shard(0)), kMixedWorld)
        << shards << " shard(s)";
    const runtime::ShardRouter& router = srt.value()->router();
    for (const char* connector : {"lb", "b_front"}) {
      EXPECT_EQ(router.connector_shard(connector),
                std::optional<std::size_t>(0))
          << connector;
    }
    for (const char* instance : {"s1", "c2", "tally", "b_ctr"}) {
      EXPECT_EQ(router.component_shard(instance),
                std::optional<std::size_t>(0))
          << instance;
    }
    if (shards == 2) {
      EXPECT_EQ(describe(srt.value()->shard(1)),
                "node 1 far capacity=3000\n");
    }
  }
}

TEST(AdlWorldTest, BuildingTwiceGivesTheSameWorld) {
  Runtime::Builder plain = Runtime::builder();
  declare_mixed(plain.host("gw", 5000).host("store", 8000));
  auto first = plain.build();
  auto second = plain.build();
  ASSERT_TRUE(first.ok()) << first.error().message();
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(describe(*second.value()), describe(*first.value()));
  EXPECT_EQ(describe(*second.value()), kMixedWorld);

  ShardedRuntime::Builder builder = sharded(2);
  declare_mixed(builder.host("gw", 5000, 0).host("store", 8000, 0));
  auto sharded_first = builder.build();
  auto sharded_second = builder.build();
  ASSERT_TRUE(sharded_first.ok()) << sharded_first.error().message();
  ASSERT_TRUE(sharded_second.ok()) << sharded_second.error().message();
  EXPECT_EQ(describe(sharded_second.value()->shard(0)), kMixedWorld);
  EXPECT_EQ(describe(sharded_second.value()->shard(1)),
            describe(sharded_first.value()->shard(1)));
}

// An ADL node is a host like any other: naming one twice is an error
// result, never a throw.
TEST(AdlWorldTest, DuplicateAdlNodeIsAlreadyExistsOnEveryBuilder) {
  const char* node = "node core { capacity 1; }";
  auto plain = Runtime::builder().host("core", 100).adl(node).build();
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kAlreadyExists);
  EXPECT_NE(plain.error().message().find("core"), std::string::npos);
  auto twice = Runtime::builder().adl(node).adl(node).build();
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.error().code(), ErrorCode::kAlreadyExists);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    auto split = sharded(shards).host("core", 100, 0).adl(node).build();
    ASSERT_FALSE(split.ok()) << shards << " shard(s)";
    EXPECT_EQ(split.error().code(), ErrorCode::kAlreadyExists);
    EXPECT_EQ(split.error().message(), "host declared twice: core");
  }
}

// The aspect names the ADL documents (adapt/aspect_library.h) resolve on
// every builder's connectors.
constexpr const char* kAspectWorld = R"(interface Echo {
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
connector main { routing direct; delivery sync; aspects [metrics, checksum]; }
bind client.out -> server via main;
)";

TEST(AdlWorldTest, StandardAspectsServeOnEveryBuilder) {
  const std::vector<std::string> aspects{"metrics", "checksum"};
  auto plain = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(kAspectWorld)
                   .build();
  ASSERT_TRUE(plain.ok()) << plain.error().message();
  Runtime& rt = *plain.value();
  connector::Connector& main = *rt.app().find_connector(rt.connector("main"));
  EXPECT_EQ(main.interceptor_names(), aspects);
  auto out = rt.app().invoke_sync(rt.connector("main"), "echo",
                                  Value::object({{"text", "plain"}}),
                                  rt.host("edge"));
  ASSERT_TRUE(out.result.ok()) << out.result.error().message();
  EXPECT_EQ(out.result.value().as_string(), "plain");
  EXPECT_EQ(main.relayed(), 1u);

  auto split = sharded(2)
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .host("far", 2000, 1)
                   .adl(kAspectWorld)
                   .build();
  ASSERT_TRUE(split.ok()) << split.error().message();
  ShardedRuntime& srt = *split.value();
  Runtime& shard0 = srt.shard(0);
  const connector::Connector& homed =
      *shard0.app().find_connector(shard0.connector("main"));
  EXPECT_EQ(homed.interceptor_names(), aspects);
  std::optional<std::string> text;
  srt.call(1, "main", "echo", Value::object({{"text", "sharded"}}),
           [&](util::Result<Value> result, util::Duration) {
             ASSERT_TRUE(result.ok()) << result.error().message();
             text = result.value().as_string();
           });
  srt.run();
  EXPECT_EQ(text, std::optional<std::string>("sharded"));
}

/// kAspectWorld with `main`'s aspect list replaced by `aspects`.
std::string aspect_world(const std::string& aspects) {
  std::string source = kAspectWorld;
  const std::string declared = "aspects [metrics, checksum]";
  source.replace(source.find(declared), declared.size(),
                 "aspects [" + aspects + "]");
  return source;
}

// The compiler accepts exactly the aspect names a Runtime resolves: each
// accepted name compiles and builds, and any other name fails both.
TEST(AdlWorldTest, AcceptedAspectsBuildAndOthersFailCompileAndBuild) {
  for (const std::string_view aspect : adl::kConnectorAspects) {
    SCOPED_TRACE(aspect);
    const std::string source = aspect_world(std::string(aspect));
    const adl::CompilationResult compiled = adl::compile(source);
    EXPECT_TRUE(compiled.ok())
        << adl::render_text(compiled.diagnostics, "<input>", source);
    auto built = Runtime::builder()
                     .component_class<EchoServer>("EchoServer")
                     .component_class<EchoClient>("EchoClient")
                     .adl(source)
                     .build();
    ASSERT_TRUE(built.ok()) << built.error().message();
    Runtime& rt = *built.value();
    EXPECT_EQ(rt.app().find_connector(rt.connector("main"))
                  ->interceptor_names()
                  .size(),
              1u);
  }

  const std::string bogus = aspect_world("metrics, bogus");
  const adl::CompilationResult compiled = adl::compile(bogus);
  ASSERT_FALSE(compiled.ok());
  ASSERT_EQ(compiled.diagnostics.items.size(), 1u);
  EXPECT_EQ(compiled.diagnostics.items[0].code, "unknown-aspect");
  EXPECT_EQ(compiled.diagnostics.items[0].message,
            "main: unknown aspect 'bogus'");
  auto built = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(bogus)
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code(), ErrorCode::kParseError);
  EXPECT_NE(built.error().message().find("main: unknown aspect 'bogus'"),
            std::string::npos)
      << built.error().message();
}

// --- the ADL model and the live snapshot ------------------------------------

// E17's storm world: a direct sync connector and two rules.
constexpr const char* kStormWorld = R"(interface Echo {
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

when queue_depth(main) >= 0 reconfigure shuffle {
  cooldown 7ms;
  migrate server to edge;
  migrate server to core;
}
when event fault.host_down reconfigure failover {
  cooldown 15ms;
  add standby: EchoServer on edge;
  reroute server to standby;
}
)";

/// E18's removal ladder with four spares: one worker and four spares behind
/// a queued round-robin connector, and one rule removing each spare.
std::string ladder_world() {
  std::string s = R"(interface Echo {
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
node main { capacity 10000; }
node client { capacity 10000; }
link main <-> client { latency 1ms; bandwidth 100mbps; }
instance worker: EchoServer on main;
instance driver: EchoClient on client;
)";
  for (int i = 0; i < 4; ++i) {
    s += "instance s" + std::to_string(i) + ": EchoServer on main;\n";
  }
  s += "connector jobs { routing round_robin; delivery queued; capacity 64; "
       "}\n";
  s += "bind driver.out -> worker, s0, s1, s2, s3 via jobs;\n";
  for (int i = 0; i < 4; ++i) {
    s += "when queue_depth(jobs) < 4 reconfigure shed_s" + std::to_string(i) +
         " { remove s" + std::to_string(i) + "; }\n";
  }
  return s;
}

// Two bare bindings, each served through an implicit connector.
constexpr const char* kBareWorld = R"(interface Echo {
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
node edge { capacity 2000; }
node core { capacity 10000; }
link edge <-> core { latency 2ms; bandwidth 100mbps; }
instance s1: EchoServer on core;
instance s2: EchoServer on edge;
instance c1: EchoClient on edge;
instance c2: EchoClient on core;
bind c1.out -> s1;
bind c2.out -> s2;
)";

// analysis::model_from(CompiledConfiguration) derives the implicit
// connectors apart from Runtime::lower_adl; both must give the explorer
// the configuration the runtime builds, implicit names included.
TEST(AdlWorldTest, AdlModelMatchesTheLiveSnapshot) {
  const std::vector<std::pair<std::string, std::string>> worlds = {
      {"storm", kStormWorld}, {"ladder", ladder_world()}, {"bare", kBareWorld}};
  for (const auto& [name, source] : worlds) {
    SCOPED_TRACE(name);
    const adl::CompilationResult compiled = adl::compile(source);
    ASSERT_TRUE(compiled.ok())
        << adl::render_text(compiled.diagnostics, name, source);
    auto built = Runtime::builder()
                     .component_class<EchoServer>("EchoServer")
                     .component_class<EchoClient>("EchoClient")
                     .adl(source)
                     .build();
    ASSERT_TRUE(built.ok()) << built.error().message();
    EXPECT_EQ(analysis::canonical_config_key(analysis::model_from(
                  compiled.config)),
              analysis::canonical_config_key(
                  analysis::model_from(built.value()->app())));
  }
  const std::string bare = analysis::canonical_config_key(
      analysis::model_from(adl::compile(kBareWorld).config));
  EXPECT_NE(bare.find("c:implicit_c1_out_0[s1]"), std::string::npos) << bare;
  EXPECT_NE(bare.find("b:c2.out>implicit_c2_out_1[s2]"), std::string::npos)
      << bare;
}

// --- ADL deployment through the builder --------------------------------------

constexpr const char* kEchoConfig = R"(
  interface Echo {
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
  node edge { capacity 2000; }
  node core { capacity 10000; }
  link edge <-> core { latency 2ms; bandwidth 100mbps; }
  instance server: EchoServer on core;
  instance client: EchoClient on edge;
  connector main { routing direct; delivery sync; }
  bind client.out -> server via main;
)";

template <typename Builder>
Builder with_test_types(Builder builder) {
  builder.template component_class<EchoServer>("EchoServer")
      .template component_class<EchoClient>("EchoClient")
      .template component_class<CounterServer>("CounterServer");
  return builder;
}

/// Builds `source` on the plain builder, with the test component types.
util::Result<std::unique_ptr<Runtime>> build_adl(const std::string& source) {
  return with_test_types(Runtime::builder()).adl(source).build();
}

/// Builds `source` on a two-shard builder, with the test component types.
util::Result<std::unique_ptr<ShardedRuntime>> build_sharded_adl(
    const std::string& source) {
  return with_test_types(sharded(2)).adl(source).build();
}

TEST(DeployerTest, DeploysFullTopology) {
  auto built = build_adl(kEchoConfig);
  ASSERT_TRUE(built.ok()) << built.error().message();
  Runtime& rt = *built.value();
  EXPECT_EQ(rt.network().node_count(), 2u);
  EXPECT_EQ(rt.app().component_ids().size(), 2u);
  EXPECT_EQ(rt.app().connector_ids().size(), 1u);
  EXPECT_NE(rt.network().find_node("edge"), nullptr);
  EXPECT_TRUE(rt.network().has_link(rt.host("edge"), rt.host("core")));
}

TEST(DeployerTest, DeployedApplicationServesCalls) {
  auto built = build_adl(kEchoConfig);
  ASSERT_TRUE(built.ok());
  Runtime& rt = *built.value();
  const auto to_client = rt.app().create_connector(named("to_client")).value();
  ASSERT_TRUE(rt.app().add_provider(to_client, rt.component("client")).ok());
  auto outcome = rt.app().invoke_sync(to_client, "go",
                                      Value::object({{"text", "deployed"}}),
                                      rt.host("edge"));
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
  EXPECT_EQ(outcome.result.value().as_string(), "deployed");
}

TEST(DeployerTest, MissingImplementationFails) {
  const char* config = R"(
    component Mystery;
    node n { capacity 1; }
    instance m: Mystery on n;
  )";
  auto plain = build_adl(config);
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kNotFound);
  auto split = build_sharded_adl(config);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.error().code(), ErrorCode::kNotFound);
}

TEST(DeployerTest, ImplementationMustHonourDeclaredInterface) {
  // The ADL promises Echo with a service the C++ EchoServer lacks.
  const char* config = R"(
    interface Echo version 1 {
      service echo(text: string) -> string;
      service shout(text: string) -> string;
    }
    component EchoServer provides Echo;
    node n { capacity 1; }
    instance s: EchoServer on n;
  )";
  auto plain = build_adl(config);
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kIncompatible);
  auto split = build_sharded_adl(config);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.error().code(), ErrorCode::kIncompatible);
  EXPECT_EQ(split.error().message(), plain.error().message());
}

TEST(DeployerTest, AttributeDefaultsAndOverridesMerge) {
  const char* config = R"(
    interface Counter {
      service add(amount: int) -> int;
      service total() -> int;
    }
    component CounterServer provides Counter {
      attribute label: string = "default";
      attribute limit: int = 10;
    }
    node n { capacity 100; }
    instance c: CounterServer on n { limit = 99; }
  )";
  auto built = build_adl(config);
  ASSERT_TRUE(built.ok()) << built.error().message();
  Runtime& rt = *built.value();
  const component::Component* comp = rt.app().find_component(rt.component("c"));
  EXPECT_EQ(comp->attributes().at("label").as_string(), "default");
  EXPECT_EQ(comp->attributes().at("limit").as_int(), 99);
}

TEST(DeployerTest, ImplicitConnectorForBareBinding) {
  const char* config = R"(
    interface Echo {
      service echo(text: string) -> string;
      service ping() -> int;
    }
    component EchoServer provides Echo;
    component EchoClient { requires out: Echo; }
    node n { capacity 1000; }
    instance s: EchoServer on n;
    instance c: EchoClient on n;
    bind c.out -> s;
  )";
  auto built = build_adl(config);
  ASSERT_TRUE(built.ok()) << built.error().message();
  Runtime& rt = *built.value();
  EXPECT_TRUE(rt.app().binding(rt.component("c"), "out").valid());
}

TEST(DeployerTest, ParseErrorsPropagate) {
  // A failed build() returns no runtime: nothing is left half-deployed.
  auto plain = build_adl("not a config");
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(plain.error().message().rfind("line 1 col 1: ", 0), 0u)
      << plain.error().message();
  auto split = build_sharded_adl("not a config");
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(split.error().message(), plain.error().message());
}

TEST(DeployerTest, ValidationErrorsPropagate) {
  for (const bool is_sharded : {false, true}) {
    const util::Error error =
        is_sharded ? build_sharded_adl("component C provides Ghost;").error()
                   : build_adl("component C provides Ghost;").error();
    EXPECT_EQ(error.code(), ErrorCode::kParseError);
    EXPECT_EQ(error.message(),
              "line 1 col 1: C provides unknown interface 'Ghost'");
  }
}

TEST(DeployerTest, MultiProviderBindingAttachesAll) {
  const char* config = R"(
    interface Echo {
      service echo(text: string) -> string;
      service ping() -> int;
    }
    component EchoServer provides Echo;
    component EchoClient { requires out: Echo; }
    node n { capacity 1000; }
    instance s1: EchoServer on n;
    instance s2: EchoServer on n;
    instance c: EchoClient on n;
    connector lb { routing round_robin; }
    bind c.out -> s1, s2 via lb;
  )";
  auto built = build_adl(config);
  ASSERT_TRUE(built.ok()) << built.error().message();
  Runtime& rt = *built.value();
  EXPECT_EQ(rt.app().find_connector(rt.connector("lb"))->providers().size(),
            2u);
}

}  // namespace
}  // namespace aars
