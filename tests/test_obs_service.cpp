// Span tracing and the telemetry invariant it hangs on: trace ids, span
// scopes, Chrome-trace export, histogram quantiles — and attaching a span
// collector never changes a report's deterministic bytes.
#include <gtest/gtest.h>

#include <string>

#include "analysis/scenarios.hpp"
#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"

namespace {

using namespace mcan;

// --------------------------------------------------------------- trace --

TEST(TraceId, BuilderIsDeterministicAndOrderSensitive) {
  obs::TraceIdBuilder a;
  a.mix("campaign");
  a.mix_u64(0);
  a.mix_u64(32);
  obs::TraceIdBuilder b;
  b.mix("campaign");
  b.mix_u64(0);
  b.mix_u64(32);
  EXPECT_EQ(a.id(), b.id());

  obs::TraceIdBuilder c;
  c.mix_u64(0);
  c.mix("campaign");
  c.mix_u64(32);
  EXPECT_NE(a.id(), c.id());

  // Length framing: ("ab","c") and ("a","bc") must not collide.
  obs::TraceIdBuilder d, e;
  d.mix("ab");
  d.mix("c");
  e.mix("a");
  e.mix("bc");
  EXPECT_NE(d.id(), e.id());
}

TEST(TraceId, Hex16RoundTrips) {
  EXPECT_EQ(obs::hex16(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(obs::hex16(0), "0000000000000000");
  EXPECT_EQ(obs::hex16(~0ull), "ffffffffffffffff");
}

TEST(SpanCollector, ScopesRecordNestedSpansWithParentLinkage) {
  obs::SpanCollector spans{0xABCDull};
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::SpanCollector::Scope outer{&spans, "plan", "service"};
    outer_id = outer.id();
    {
      obs::SpanCollector::Scope inner{&spans, "cell.compute", "cell",
                                      outer.id()};
      inner.set_track(2);
      inner.set_args("\"spec\":1,\"seed\":7");
      inner_id = inner.id();
    }
  }
  ASSERT_EQ(spans.span_count(), 2u);
  // Inner scope closed first, so it records first.
  const auto recorded = spans.spans();  // snapshot copy
  const auto& inner = recorded[0];
  const auto& outer = recorded[1];
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(inner.name, "cell.compute");
  EXPECT_EQ(inner.track, 2);
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_GE(outer.dur_us, inner.dur_us);
}

TEST(SpanCollector, NullCollectorScopeIsANoOp) {
  obs::SpanCollector::Scope scope{nullptr, "plan", "service"};
  EXPECT_EQ(scope.id(), 0u);
  scope.set_track(3);
  scope.set_args("\"k\":1");  // must not crash
}

TEST(SpanCollector, ChromeTraceCarriesOneTraceIdAcrossEveryEvent) {
  obs::SpanCollector spans{0xDEADBEEFull};
  {
    obs::SpanCollector::Scope root{&spans, "request campaign", "service"};
    obs::SpanCollector::Scope cell{&spans, "cell.compute", "cell", root.id()};
    cell.set_track(1);
  }
  const auto doc = spans.to_chrome_trace();
  const auto v = test::parse_json(doc);
  ASSERT_TRUE(v.has_value()) << doc;
  EXPECT_EQ(v->find("otherData")->find("trace_id")->get_string(),
            "00000000deadbeef");
  const auto* events = v->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t complete_events = 0;
  for (const auto& ev : events->array) {
    if (ev.find("ph")->get_string() != "X") continue;
    ++complete_events;
    EXPECT_EQ(ev.find("args")->find("trace_id")->get_string(),
              "00000000deadbeef");
  }
  EXPECT_EQ(complete_events, 2u);
  // Track metadata names the service track and the numbered cell track.
  EXPECT_NE(doc.find("\"service\""), std::string::npos);
  EXPECT_NE(doc.find("\"cell 0\""), std::string::npos);
}

// ------------------------------------------------------------ quantile --

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::Histogram h;
  h.bounds = {10.0, 20.0, 40.0};
  h.buckets.assign(4, 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket [0,10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket (10,20]
  EXPECT_NEAR(h.quantile(0.25), 5.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.75), 15.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-9);
  // Overflow samples clamp to the last bound — the histogram cannot see
  // past its top bucket.
  h.observe(1e9);
  EXPECT_NEAR(h.quantile(1.0), 40.0, 1e-9);
}

// ------------------------------------------------- telemetry neutrality --

analysis::ExperimentSpec tiny_spec() {
  auto spec = analysis::ScenarioRegistry::built_in().make("4");
  spec.duration = sim::Millis{200};
  return spec;
}

TEST(TelemetryNeutrality, CampaignReportBytesIgnoreSpans) {
  runner::CampaignConfig plain;
  plain.specs = {tiny_spec()};
  plain.seeds = {0, 2};
  plain.jobs = 2;
  const auto baseline = runner::to_json(runner::run_campaign(plain));

  obs::SpanCollector spans{0x5EEDull};
  auto traced = plain;
  traced.spans = &spans;
  const auto rep = runner::run_campaign(traced);

  EXPECT_EQ(runner::to_json(rep), baseline);  // byte-identical
  EXPECT_GT(spans.span_count(), 0u);          // telemetry actually ran
}

}  // namespace
