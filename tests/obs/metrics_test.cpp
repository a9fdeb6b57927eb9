#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/export.h"

namespace aars::obs {
namespace {

TEST(RegistryTest, StartsDisabledAndRecordsNothing) {
  Registry reg;
  EXPECT_FALSE(reg.enabled());
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  HistogramMetric& h = reg.histogram("h");
  c.inc();
  g.set(5.0);
  h.observe(1.0);
  reg.trace(10, TraceKind::kCustom, "x");
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.trace_buffer().size(), 0u);
}

TEST(RegistryTest, EnableDisableGatesRecording) {
  Registry reg;
  Counter& c = reg.counter("c");
  reg.set_enabled(true);
  c.inc(3);
  reg.set_enabled(false);
  c.inc(100);  // gated off again
  EXPECT_EQ(c.value(), 3u);
}

TEST(RegistryTest, SameNameAndLabelsYieldSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("requests", {{"policy", "direct"}});
  Counter& b = reg.counter("requests", {{"policy", "direct"}});
  Counter& other = reg.counter("requests", {{"policy", "broadcast"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(RegistryTest, LabelOrderIsCanonicalized) {
  Registry reg;
  Counter& a = reg.counter("c", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, CounterGaugeHistogramBasics) {
  Registry reg;
  reg.set_enabled(true);
  Counter& c = reg.counter("c");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);

  Gauge& g = reg.gauge("g");
  g.set(2.0);
  g.add(3.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 5.0);

  HistogramMetric& h = reg.histogram("h");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.samples().p50(), 50.0);
  EXPECT_DOUBLE_EQ(h.samples().max(), 100.0);
}

TEST(RegistryTest, ResetValuesKeepsHandlesValid) {
  Registry reg;
  reg.set_enabled(true);
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  HistogramMetric& h = reg.histogram("h");
  c.inc(7);
  g.set(9.0);
  h.observe(1.0);
  reg.trace(5, TraceKind::kCustom, "x");

  reg.reset_values();
  // Same handles, zeroed values — cached pointers in instrumented objects
  // must stay usable.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.trace_buffer().size(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &reg.counter("c"));
}

TEST(TraceBufferTest, RecordsInOrderUntilCapacity) {
  Registry reg(3);
  reg.set_enabled(true);
  reg.trace(1, TraceKind::kRelay, "a");
  reg.trace(2, TraceKind::kReconfig, "b");
  const auto events = reg.trace_buffer().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].kind, TraceKind::kRelay);
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(reg.trace_buffer().dropped(), 0u);
}

TEST(TraceBufferTest, RingOverwritesOldestAndCountsDropped) {
  Registry reg(3);
  reg.set_enabled(true);
  for (int i = 1; i <= 5; ++i) {
    reg.trace(i, TraceKind::kCustom, "e" + std::to_string(i));
  }
  const TraceBuffer& buf = reg.trace_buffer();
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.recorded(), 5u);
  EXPECT_EQ(buf.dropped(), 2u);
  const auto events = buf.snapshot();  // oldest-first
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e3");
  EXPECT_EQ(events[1].name, "e4");
  EXPECT_EQ(events[2].name, "e5");
}

TEST(TraceBufferTest, SetCapacityKeepsNewestEvents) {
  TraceBuffer buf(8);
  for (int i = 0; i < 10; ++i) {
    buf.record(TraceEvent{i, TraceKind::kCustom, "e" + std::to_string(i), ""});
  }
  ASSERT_EQ(buf.size(), 8u);
  buf.set_capacity(4);
  EXPECT_EQ(buf.capacity(), 4u);
  ASSERT_EQ(buf.size(), 4u);
  const auto events = buf.snapshot();  // oldest-first
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  // The shrunk ring keeps recording, overwriting oldest.
  buf.record(TraceEvent{10, TraceKind::kCustom, "e10", ""});
  EXPECT_EQ(buf.snapshot().front().name, "e7");
  EXPECT_EQ(buf.snapshot().back().name, "e10");
  // Growing preserves contents.
  buf.set_capacity(16);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.snapshot().back().name, "e10");
}

TEST(TraceBufferTest, RegistryReboundsTraceRing) {
  Registry reg(8);
  reg.set_enabled(true);
  for (int i = 0; i < 6; ++i) reg.trace(i, TraceKind::kCustom, "x");
  reg.set_trace_capacity(2);
  EXPECT_EQ(reg.trace_buffer().capacity(), 2u);
  EXPECT_EQ(reg.trace_buffer().size(), 2u);
  EXPECT_EQ(reg.trace_buffer().recorded(), 6u);
}

TEST(TraceKindTest, AllKindsStringify) {
  EXPECT_STREQ(to_string(TraceKind::kRelay), "relay");
  EXPECT_STREQ(to_string(TraceKind::kReconfig), "reconfig");
  EXPECT_STREQ(to_string(TraceKind::kQosViolation), "qos_violation");
  EXPECT_STREQ(to_string(TraceKind::kFault), "fault");
  EXPECT_STREQ(to_string(TraceKind::kTxn), "txn");
  EXPECT_STREQ(to_string(TraceKind::kCustom), "custom");
}

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
}

TEST(ExportTest, JsonContainsEverySection) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("sim.events", {{"phase", "run"}}).inc(2);
  reg.gauge("depth").set(4.0);
  reg.histogram("latency").observe(10.0);
  reg.trace(42, TraceKind::kTxn, "scale_out", "committed");

  const std::string json = to_json(reg);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.events\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"high_water\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"txn\""), std::string::npos);
  EXPECT_NE(json.find("\"scale_out\""), std::string::npos);
}

TEST(ExportTest, EmptyRegistryStillWellFormedSections) {
  Registry reg;
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("\"counters\": []"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": []"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": []"), std::string::npos);
  EXPECT_NE(json.find("\"events\": []"), std::string::npos);
}

TEST(ExportTest, GlobalRegistryIsSingleton) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

TEST(ExportTest, JsonEscapeHandlesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("col\tsep\rend"), "col\\tsep\\rend");
  // Other control characters become \u00XX escapes.
  EXPECT_EQ(json_escape(std::string("bell\x07")), "bell\\u0007");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(TraceNameTest, CollapsesRedeploySuffixes) {
  EXPECT_EQ(sanitize_trace_name("svc_r17"), "svc_r*");
  EXPECT_EQ(sanitize_trace_name("svc_r3_r12"), "svc_r*");
  EXPECT_EQ(sanitize_trace_name("svc_r1_r2_r3_r4"), "svc_r*");
}

TEST(TraceNameTest, LeavesOrdinaryNamesAlone) {
  EXPECT_EQ(sanitize_trace_name("svc"), "svc");
  EXPECT_EQ(sanitize_trace_name("breaker.to_svc"), "breaker.to_svc");
  EXPECT_EQ(sanitize_trace_name("svc_r"), "svc_r");      // no digits
  EXPECT_EQ(sanitize_trace_name("svc_rx1"), "svc_rx1");  // not "_r<n>"
  EXPECT_EQ(sanitize_trace_name("r1"), "r1");            // no "_r" prefix
  EXPECT_EQ(sanitize_trace_name(""), "");
}

TEST(TraceNameTest, TruncatesOverlongNames) {
  const std::string longname(3 * kMaxTraceNameLength, 'x');
  const std::string out = sanitize_trace_name(longname);
  EXPECT_EQ(out.size(), kMaxTraceNameLength);
  EXPECT_EQ(out.substr(out.size() - 3), "...");
  // Names at the cap pass through untouched.
  const std::string exact(kMaxTraceNameLength, 'y');
  EXPECT_EQ(sanitize_trace_name(exact), exact);
}

TEST(TraceNameTest, RegistryBoundsTraceCardinality) {
  Registry reg;
  reg.set_enabled(true);
  // A long run of redeploys ("svc_r1", "svc_r2", ...) must collapse to one
  // distinct trace subject, not an unbounded family.
  for (int i = 1; i <= 200; ++i) {
    reg.trace(i, TraceKind::kReconfig, "svc_r" + std::to_string(i), "swap");
  }
  std::set<std::string> names;
  for (const TraceEvent& e : reg.trace_buffer().snapshot()) {
    names.insert(e.name);
  }
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(*names.begin(), "svc_r*");
}

TEST(ExportTest, MetricNamesAndLabelsAreEscapedInJson) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("weird\"name", {{"label\\key", "value\nnewline"}}).inc();
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
  EXPECT_NE(json.find("label\\\\key"), std::string::npos);
  EXPECT_NE(json.find("value\\nnewline"), std::string::npos);
  // No raw control characters leak into the document.
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

}  // namespace
}  // namespace aars::obs
