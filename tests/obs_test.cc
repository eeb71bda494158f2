// Tests for the observability layer (src/obs): histogram bucketing, counter
// aggregation, the exact per-op breakdown sweep, the Chrome trace_event
// export for a tiny 2-node put, and op attribution on every server an op
// touches.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/fault/fault.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/hub.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/ring/cluster.h"
#include "src/ring/registry.h"

namespace ring {
namespace {

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(7), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(8), 4);
  for (int b = 1; b < obs::Histogram::kBuckets; ++b) {
    const uint64_t lo = obs::Histogram::BucketLowerBound(b);
    EXPECT_EQ(obs::Histogram::BucketOf(lo), b) << "bucket " << b;
    EXPECT_EQ(obs::Histogram::BucketOf(lo - 1), b - 1) << "bucket " << b;
  }
  EXPECT_EQ(obs::Histogram::BucketOf(~0ULL), obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(5), 16u);
}

TEST(HistogramTest, ObserveAccumulatesAndMerges) {
  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::BucketOf(1000)), 1u);
  // Percentiles report the geometric midpoint of the selected bucket —
  // within a factor sqrt(2) of the true quantile. 1000 lands in bucket 10
  // ([512, 1023]), whose midpoint is floor(sqrt(512 * 1023)) = 723.
  EXPECT_EQ(obs::Histogram::BucketMidpoint(10), 723u);
  EXPECT_EQ(h.ApproxPercentile(100), 723u);
  EXPECT_EQ(h.ApproxPercentile(0), 0u);

  obs::Histogram other;
  other.Observe(1000);
  other.Observe(5);
  h.MergeFrom(other);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 2006u);
  EXPECT_EQ(h.bucket(obs::Histogram::BucketOf(1000)), 2u);
  EXPECT_EQ(h.max(), 1000u);
}

// ------------------------------------------------------------------ metrics

TEST(MetricsTest, DisabledRecordsNothing) {
  obs::Metrics m;
  m.Inc("x", 5, 0);
  m.Observe("y", 7, 0);
  m.CountLink(0, 1, 100);
  EXPECT_EQ(m.CounterTotal("x"), 0u);
  EXPECT_TRUE(m.histograms().empty());
  EXPECT_TRUE(m.link_bytes().empty());
}

TEST(MetricsTest, CounterAggregationAcrossNodes) {
  obs::Metrics m;
  m.Enable(true);
  m.Inc("server.puts", 3, /*node=*/0, /*memgest=*/1, obs::OpKind::kPut);
  m.Inc("server.puts", 4, /*node=*/1, /*memgest=*/1, obs::OpKind::kPut);
  m.Inc("server.puts", 5, /*node=*/1, /*memgest=*/2, obs::OpKind::kPut);
  m.Inc("other", 100, /*node=*/0);
  EXPECT_EQ(m.CounterValue("server.puts", 0, 1, obs::OpKind::kPut), 3u);
  EXPECT_EQ(m.CounterValue("server.puts", 1, 1, obs::OpKind::kPut), 4u);
  EXPECT_EQ(m.CounterValue("server.puts", 9), 0u);
  // Cluster-wide aggregation sums every {node, memgest, op} key.
  EXPECT_EQ(m.CounterTotal("server.puts"), 12u);
  EXPECT_EQ(m.CounterTotal("other"), 100u);

  m.Observe("lat", 8, 0);
  m.Observe("lat", 16, 1);
  obs::Histogram agg;
  for (const auto& [key, h] : m.histograms()) {
    agg.MergeFrom(h);
  }
  EXPECT_EQ(agg.count(), 2u);
  EXPECT_EQ(agg.sum(), 24u);

  m.CountLink(0, 1, 100);
  m.CountLink(0, 1, 50);
  EXPECT_EQ(m.link_bytes().at({0, 1}), 150u);
  EXPECT_EQ(m.link_bytes().count({1, 0}), 0u);
}

// -------------------------------------------------------------------- spans

TEST(TracerTest, DisabledAndCapacity) {
  obs::Tracer t;
  t.Record("a", obs::Category::kCpu, 0, 1, 0, 10);
  EXPECT_TRUE(t.spans().empty());
  t.Enable(true);
  t.set_capacity(2);
  t.Record("a", obs::Category::kCpu, 0, 1, 0, 10);
  t.Record("b", obs::Category::kCpu, 0, 1, 10, 20);
  t.Record("c", obs::Category::kCpu, 0, 1, 20, 30);
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
}

TEST(TracerTest, NestedSpansPartitionTheOpExactly) {
  obs::Tracer t;
  t.Enable(true);
  const uint64_t op = obs::MakeOpId(2, 7);
  t.Record("put", obs::Category::kOp, 2, op, 0, 100);
  t.Record("cpu", obs::Category::kCpu, 0, op, 10, 30);
  // Coding overlaps the tail of the cpu span and wins by priority.
  t.Record("encode", obs::Category::kCoding, 0, op, 20, 40);
  t.Record("wire", obs::Category::kNetwork, 0, op, 50, 60);
  t.Record("egress_queue", obs::Category::kQueue, 0, op, 60, 70);
  // A quorum span contributes to `wait`; spans of other ops are ignored.
  t.Record("quorum_wait", obs::Category::kQuorum, 0, op, 70, 80);
  t.Record("cpu", obs::Category::kCpu, 0, obs::MakeOpId(3, 1), 0, 100);

  const auto breakdowns = t.OpBreakdowns();
  ASSERT_EQ(breakdowns.size(), 1u);
  const obs::OpBreakdown& b = breakdowns[0];
  EXPECT_STREQ(b.name, "put");
  EXPECT_EQ(b.coding_ns, 20u);   // [20,40]
  EXPECT_EQ(b.cpu_ns, 10u);      // [10,20]; [20,30] went to coding
  EXPECT_EQ(b.network_ns, 10u);  // [50,60]
  EXPECT_EQ(b.queue_ns, 10u);    // [60,70]
  EXPECT_EQ(b.wait_ns, 50u);     // [0,10] + [40,50] + [70,100]
  EXPECT_EQ(b.coding_ns + b.cpu_ns + b.network_ns + b.queue_ns + b.wait_ns,
            b.total_ns());
}

TEST(TracerTest, ChildSpansAreClippedToTheOpWindow) {
  obs::Tracer t;
  t.Enable(true);
  const uint64_t op = obs::MakeOpId(0, 1);
  t.Record("put", obs::Category::kOp, 0, op, 100, 200);
  t.Record("cpu", obs::Category::kCpu, 0, op, 50, 150);    // clips to [100,150]
  t.Record("wire", obs::Category::kNetwork, 0, op, 150, 300);  // [150,200]
  const auto breakdowns = t.OpBreakdowns();
  ASSERT_EQ(breakdowns.size(), 1u);
  EXPECT_EQ(breakdowns[0].cpu_ns, 50u);
  EXPECT_EQ(breakdowns[0].network_ns, 50u);
  EXPECT_EQ(breakdowns[0].wait_ns, 0u);
}

// ---------------------------------------------------- Chrome trace golden

// Minimal JSON parser: accepts exactly the RFC 8259 grammar the exporter
// emits; any structural error fails the test.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) { return false; }
      SkipWs();
      if (Peek() != ':') { return false; }
      ++pos_;
      SkipWs();
      if (!Value()) { return false; }
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) { return false; }
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') { return false; }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') { ++pos_; }
      ++pos_;
    }
    if (pos_ >= s_.size()) { return false; }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') { ++pos_; }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) { return false; }
    pos_ += l.size();
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Extracts the value of `"key":` occurrences following each position where
// `"ph":"X"` appears — just enough scraping to pair B/E events without a
// full DOM.
std::vector<std::pair<char, std::string>> PhAndTid(const std::string& json) {
  std::vector<std::pair<char, std::string>> out;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    const size_t tid = json.find("\"tid\":", pos);
    size_t end = tid + 6;
    while (end < json.size() && json[end] != ',' && json[end] != '}') {
      ++end;
    }
    out.emplace_back(ph, json.substr(tid + 6, end - tid - 6));
    pos += 6;
  }
  return out;
}

TEST(ChromeTraceTest, TwoNodePutExportsBalancedValidJson) {
  RingOptions o;
  o.s = 1;
  o.d = 1;
  o.clients = 1;
  o.seed = 11;
  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableTracing(true);
  auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(2, "REP2"));
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(cluster.Put("k", std::string("hello"), *g).ok());
  hub.EnableTracing(false);

  const std::string json = hub.tracer().ChromeTraceJson();
  ASSERT_FALSE(hub.tracer().spans().empty());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"put\""), std::string::npos);

  // Every span becomes one B and one E on its thread, properly nested.
  const auto events = PhAndTid(json);
  EXPECT_EQ(events.size(), 2 * hub.tracer().spans().size());
  std::map<std::string, int> depth;
  for (const auto& [ph, tid] : events) {
    ASSERT_TRUE(ph == 'B' || ph == 'E') << ph;
    depth[tid] += ph == 'B' ? 1 : -1;
    ASSERT_GE(depth[tid], 0) << "E before matching B on tid " << tid;
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced B/E on tid " << tid;
  }

  // The put's breakdown partitions its latency exactly (the 1 us acceptance
  // bound holds with zero error by construction).
  const auto breakdowns = hub.tracer().OpBreakdowns();
  ASSERT_FALSE(breakdowns.empty());
  for (const auto& b : breakdowns) {
    EXPECT_EQ(b.coding_ns + b.cpu_ns + b.network_ns + b.queue_ns + b.wait_ns,
              b.total_ns())
        << b.name;
  }
}

TEST(ChromeTraceTest, FaultSpansExportAsInstantEvents) {
  obs::Tracer t;
  t.Enable(true);
  const uint64_t op = obs::MakeOpId(0, 1);
  t.Record("put", obs::Category::kOp, 0, op, 0, 100);
  // Zero-duration fault spans become global instant markers ("ph":"i").
  t.Record("crash", obs::Category::kFault, 3, 0, 40, 40);
  const std::string json = t.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"name\":\"crash\",\"cat\":\"fault\",\"ph\":\"i\","
                      "\"s\":\"g\""),
            std::string::npos)
      << json;
  // The op span still exports as a balanced B/E pair; the fault marker
  // contributes exactly one event.
  size_t b = 0;
  size_t e = 0;
  size_t i = 0;
  for (const auto& [ph, tid] : PhAndTid(json)) {
    b += ph == 'B';
    e += ph == 'E';
    i += ph == 'i';
  }
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(e, 1u);
  EXPECT_EQ(i, 1u);
}

// -------------------------------------------------------------- time series

// Fixed-clock harness: tests drive sim time by hand.
struct TsFixture {
  uint64_t now = 0;
  obs::TimeSeries ts;
  TsFixture(uint64_t window_ns, size_t capacity, size_t max_series = 16) {
    obs::TimeSeries::Options o;
    o.window_ns = window_ns;
    o.capacity_windows = capacity;
    o.max_series = max_series;
    ts.Configure(o);
    ts.SetClock([this] { return now; });
    ts.Enable(true);
  }
};

TEST(TimeSeriesTest, WindowRolloverAtRingCapacity) {
  TsFixture f(/*window_ns=*/100, /*capacity=*/4);
  f.ts.TrackCounter(obs::kSliOpsOk);
  const obs::MetricKey key{obs::kSliOpsOk, 7, obs::kNoMemgest,
                           obs::OpKind::kPut};
  for (uint64_t w = 0; w < 10; ++w) {
    f.now = w * 100;
    f.ts.OnCounter(key, w + 1);  // window w holds delta w+1
  }
  const auto& s = f.ts.series().at(key);
  // Only the last 4 windows survive the ring.
  EXPECT_EQ(s.first, 6u);
  EXPECT_EQ(s.last, 9u);
  EXPECT_EQ(s.CountAt(5), 0u);  // evicted
  for (uint64_t w = 6; w <= 9; ++w) {
    EXPECT_EQ(s.CountAt(w), w + 1) << "window " << w;
  }
  // A jump past the whole ring zeroes the skipped slots.
  f.now = 2000;  // window 20
  f.ts.OnCounter(key, 5);
  const auto& s2 = f.ts.series().at(key);
  EXPECT_EQ(s2.last, 20u);
  EXPECT_EQ(s2.first, 17u);
  EXPECT_EQ(s2.CountAt(20), 5u);
  EXPECT_EQ(s2.CountAt(19), 0u);
  EXPECT_EQ(s2.CountAt(9), 0u);
}

TEST(TimeSeriesTest, CounterDeltasSurviveRegistryClear) {
  // The registry forwards deltas (not levels), so windowed counts stay
  // correct across Metrics::Clear().
  uint64_t now = 0;
  obs::Metrics m;
  obs::TimeSeries ts;
  obs::TimeSeries::Options o;
  o.window_ns = 100;
  o.capacity_windows = 8;
  ts.Configure(o);
  ts.SetClock([&now] { return now; });
  ts.TrackCounter(obs::kSliOpsOk);
  ts.Enable(true);
  m.AttachTimeSeries(&ts);
  m.Enable(true);

  m.Inc(obs::kSliOpsOk, 5, /*node=*/1);
  m.Clear();  // registry wiped between phases of a run
  EXPECT_EQ(m.CounterTotal(obs::kSliOpsOk), 0u);
  now = 150;  // window 1
  m.Inc(obs::kSliOpsOk, 3, /*node=*/1);
  const obs::MetricKey key{obs::kSliOpsOk, 1, obs::kNoMemgest,
                           obs::OpKind::kNone};
  const auto& s = ts.series().at(key);
  EXPECT_EQ(s.CountAt(0), 5u);
  EXPECT_EQ(s.CountAt(1), 3u);
}

TEST(TimeSeriesTest, EmptyWindowPercentilesAreZero) {
  TsFixture f(/*window_ns=*/100, /*capacity=*/8);
  f.ts.TrackLatency(obs::kSliOpLatencyNs);
  f.ts.TrackCounter(obs::kSliOpsOk);
  const obs::MetricKey lat{obs::kSliOpLatencyNs, 1, obs::kNoMemgest,
                           obs::OpKind::kGet};
  const obs::MetricKey ok{obs::kSliOpsOk, 1, obs::kNoMemgest,
                          obs::OpKind::kGet};
  f.now = 0;
  f.ts.OnSample(lat, 1000);
  f.ts.OnCounter(ok, 1);
  f.now = 250;  // window 2; window 1 stays empty
  f.ts.OnSample(lat, 2000);
  f.ts.OnCounter(ok, 1);

  const auto& s = f.ts.series().at(lat);
  ASSERT_NE(s.HistAt(1), nullptr);
  EXPECT_EQ(s.HistAt(1)->count, 0u);
  EXPECT_EQ(s.HistAt(1)->Percentile(50), 0u);
  EXPECT_EQ(s.HistAt(1)->Percentile(99), 0u);

  const auto rows = f.ts.Slis();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].ops_ok, 0u);
  EXPECT_EQ(rows[1].p50_ns, 0u);
  EXPECT_EQ(rows[1].p99_ns, 0u);
  EXPECT_DOUBLE_EQ(rows[1].error_rate, 0.0);
}

TEST(TimeSeriesTest, AvailabilityDipDetected) {
  TsFixture f(/*window_ns=*/1000, /*capacity=*/64);
  f.ts.TrackCounter(obs::kSliOpsOk);
  f.ts.TrackCounter(obs::kSliOpErrors);
  const obs::MetricKey ok{obs::kSliOpsOk, 1, obs::kNoMemgest,
                          obs::OpKind::kPut};
  const obs::MetricKey err{obs::kSliOpErrors, 1, obs::kNoMemgest,
                           obs::OpKind::kPut};
  // Steady 10 acked ops per window, except a two-window outage where only
  // errors complete.
  for (uint64_t w = 0; w < 10; ++w) {
    f.now = w * 1000;
    if (w == 4 || w == 5) {
      f.ts.OnCounter(err, 10);
    } else {
      f.ts.OnCounter(ok, 10);
    }
  }
  const auto rows = f.ts.Slis();
  ASSERT_EQ(rows.size(), 10u);
  for (uint64_t w = 0; w < 10; ++w) {
    EXPECT_EQ(rows[w].available, w != 4 && w != 5) << "window " << w;
  }
  EXPECT_DOUBLE_EQ(rows[4].error_rate, 1.0);
  EXPECT_GT(rows[0].goodput_per_sec, 0.0);

  const auto dips = obs::FindDips(rows, f.ts.window_ns());
  ASSERT_EQ(dips.size(), 1u);
  EXPECT_EQ(dips[0].first_window, 4u);
  EXPECT_EQ(dips[0].last_window, 5u);
  EXPECT_TRUE(dips[0].recovered);
}

TEST(TimeSeriesTest, MaxSeriesCapDropsNewSeries) {
  TsFixture f(/*window_ns=*/100, /*capacity=*/4, /*max_series=*/2);
  f.ts.TrackCounter(obs::kSliOpsOk);
  for (uint32_t node = 0; node < 5; ++node) {
    f.ts.OnCounter(
        {obs::kSliOpsOk, node, obs::kNoMemgest, obs::OpKind::kPut}, 1);
  }
  EXPECT_EQ(f.ts.series().size(), 2u);
  EXPECT_EQ(f.ts.dropped_series(), 3u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  obs::FlightRecorder rec;
  rec.Record(obs::RecKind::kFault, "crash", 1, 0);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Tail(10).empty());
}

TEST(FlightRecorderTest, RingOverwritesOldest) {
  obs::FlightRecorder rec;
  rec.set_capacity(4);
  uint64_t now = 0;
  rec.SetClock([&now] { return now; });
  rec.Enable(true);
  for (uint64_t i = 0; i < 10; ++i) {
    now = i * 10;
    rec.Record(obs::RecKind::kClient, "op_failed", 1, i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  const auto tail = rec.Tail(10);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().op_id, 6u);  // oldest surviving
  EXPECT_EQ(tail.back().op_id, 9u);
  const auto last2 = rec.Tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].op_id, 8u);
  EXPECT_EQ(last2[1].op_id, 9u);
}

TEST(FlightRecorderTest, BetweenFiltersByTime) {
  obs::FlightRecorder rec;
  rec.set_capacity(16);
  uint64_t now = 0;
  rec.SetClock([&now] { return now; });
  rec.Enable(true);
  for (uint64_t i = 0; i < 8; ++i) {
    now = i * 100;
    rec.Record(obs::RecKind::kNet, "msg_dropped", 0, i);
  }
  const auto mid = rec.Between(200, 400);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.front().t_ns, 200u);
  EXPECT_EQ(mid.back().t_ns, 400u);
  EXPECT_FALSE(obs::FlightRecorder::Format(mid).empty());
}

// ------------------------------------------------------------------- export

TEST(ExportTest, PrometheusTextAndStatsJson) {
  obs::Metrics m;
  m.Enable(true);
  m.Inc("client.ops", 3, /*node=*/7, /*memgest=*/1, obs::OpKind::kPut);
  m.SetGauge("policy.managed_keys", 12);
  m.Observe("client.op_latency_ns", 1000, /*node=*/7, obs::kNoMemgest,
            obs::OpKind::kPut);
  m.CountLink(0, 1, 4096);

  const std::string prom = obs::PrometheusText(m);
  EXPECT_NE(prom.find("# TYPE ring_client_ops_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ring_client_ops_total{node=\"7\",memgest=\"1\","
                      "op=\"put\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ring_policy_managed_keys 12"), std::string::npos);
  EXPECT_NE(prom.find("ring_client_op_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("ring_client_op_latency_ns_sum"), std::string::npos);
  EXPECT_NE(prom.find("ring_link_bytes_total{src=\"0\",dst=\"1\"} 4096"),
            std::string::npos);

  const std::string json = obs::StatsJson(m);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  // Stable key schema: all four dimensions always present, null when n/a.
  EXPECT_NE(json.find("{\"name\":\"client.ops\",\"node\":7,\"memgest\":1,"
                      "\"op\":\"put\",\"value\":3}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"memgest\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("{\"src\":0,\"dst\":1,\"bytes\":4096}"),
            std::string::npos);
}

// -------------------------------------------------------------- post-mortem

TEST(ReportTest, PostMortemShowsFaultDipAndRecovery) {
  TsFixture f(/*window_ns=*/1000, /*capacity=*/64);
  f.ts.TrackCounter(obs::kSliOpsOk);
  obs::FlightRecorder rec;
  rec.SetClock([&f] { return f.now; });
  rec.Enable(true);

  const obs::MetricKey ok{obs::kSliOpsOk, 1, obs::kNoMemgest,
                          obs::OpKind::kPut};
  for (uint64_t w = 0; w < 10; ++w) {
    f.now = w * 1000;
    if (w == 4) {
      rec.Record(obs::RecKind::kFault, "crash", 3, 0);
      rec.Record(obs::RecKind::kNet, "msg_dropped", 3, 42, 1);
    } else if (w == 6) {
      rec.Record(obs::RecKind::kFault, "recover", 3, 0);
      rec.Record(obs::RecKind::kRecovery, "promotion", 5, 0, 1234);
      f.ts.OnCounter(ok, 10);
    } else {
      f.ts.OnCounter(ok, 10);
    }
  }
  const std::string report = obs::PostMortemReport(f.ts, rec);
  EXPECT_NE(report.find("fault timeline"), std::string::npos);
  EXPECT_NE(report.find("crash"), std::string::npos);
  EXPECT_NE(report.find("msg_dropped=1"), std::string::npos) << report;
  EXPECT_NE(report.find("DIP"), std::string::npos) << report;
  EXPECT_NE(report.find("dip 1:"), std::string::npos) << report;
  EXPECT_NE(report.find("recovered"), std::string::npos);
  EXPECT_NE(report.find("promotion"), std::string::npos);
}

TEST(ChromeTraceTest, MetricsCountTheTwoNodePut) {
  RingOptions o;
  o.s = 1;
  o.d = 1;
  o.clients = 1;
  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(2, "REP2"));
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(cluster.Put("k", std::string("hello"), *g).ok());
  ASSERT_TRUE(cluster.Get("k").ok());

  const obs::Metrics& m = hub.metrics();
  EXPECT_EQ(m.CounterTotal("server.puts"), 1u);
  EXPECT_EQ(m.CounterTotal("server.gets"), 1u);
  EXPECT_EQ(m.CounterTotal("server.replica_appends"), 1u);
  EXPECT_GE(m.CounterTotal("server.commits"), 1u);
  EXPECT_GE(m.CounterTotal("net.messages"), 4u);
  EXPECT_GT(m.CounterTotal("cpu.busy_ns"), 0u);
  // The put crossed the coordinator -> replica link.
  uint64_t cross = 0;
  for (const auto& [link, bytes] : m.link_bytes()) {
    if (link.first != link.second) {
      cross += bytes;
    }
  }
  EXPECT_GT(cross, 0u);
}

// ------------------------------------------------------------ op attribution

// The nodes a write of `key` into `memgest` touches: the coordinator of the
// key's shard, then each replica (Rep) or parity node (SRS) of that shard.
std::vector<net::NodeId> WriteNodes(RingCluster& cluster, const Key& key,
                                    MemgestId memgest) {
  RingRuntime& rt = cluster.runtime();
  const consensus::Placement placement =
      rt.membership().ConfigView(rt.leader_node()).Current();
  const MemgestInfo& info = *rt.registry().Get(memgest);
  const uint32_t shard = KeyShard(key, placement.num_shards());
  std::vector<net::NodeId> nodes{placement.CoordinatorOfShard(shard)};
  for (uint32_t ordinal = 0; ordinal < info.desc.backups(); ++ordinal) {
    nodes.push_back(placement.NodeOfSlot(
        placement.BackupSlot(shard, ordinal, info.erasure_coded())));
  }
  return nodes;
}

// The op id of the one op span named `name` in the tracer (0 if none).
uint64_t OpNamed(const obs::Tracer& tracer, const std::string& name) {
  uint64_t op = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.category == obs::Category::kOp && span.name == name) {
      EXPECT_EQ(op, 0u) << "two " << name << " ops";
      op = span.op_id;
    }
  }
  return op;
}

// Every server an op touches charges its CPU under that op: the context
// rides the fabric and each server's CPU queue, with no per-handler scope.
TEST(OpAttributionTest, EveryTouchedServerChargesCpuUnderTheOp) {
  RingOptions o;
  o.seed = 5;
  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  const auto rep = cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const auto srs = cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  ASSERT_TRUE(rep.ok() && srs.ok());

  // Runs one op to quiescence under tracing and checks that each node in
  // `nodes` has a cpu span of it.
  const auto expect_cpu_on = [&](const std::string& name,
                                 const std::function<Status()>& run,
                                 const std::vector<net::NodeId>& nodes) {
    hub.tracer().Clear();
    hub.EnableTracing(true);
    ASSERT_TRUE(run().ok()) << name;
    cluster.RunFor(1 * sim::kMillisecond);  // every backup applied
    hub.EnableTracing(false);
    const uint64_t op = OpNamed(hub.tracer(), name);
    ASSERT_NE(op, 0u) << name;
    std::set<net::NodeId> charged;
    for (const obs::Span& span : hub.tracer().spans()) {
      if (span.category == obs::Category::kCpu && span.op_id == op) {
        charged.insert(span.node);
      }
    }
    for (const net::NodeId node : nodes) {
      EXPECT_TRUE(charged.count(node) != 0)
          << name << ": no cpu span of op " << op << " on node " << node;
    }
  };
  const std::vector<std::pair<MemgestId, MemgestId>> moves = {{*rep, *srs},
                                                              {*srs, *rep}};
  for (const auto& [from, to] : moves) {
    const Key key = "attr-" + std::to_string(from);
    const net::NodeId coordinator = WriteNodes(cluster, key, from).front();
    expect_cpu_on(
        "put", [&] { return cluster.Put(key, std::string(100, 'p'), from); },
        WriteNodes(cluster, key, from));
    expect_cpu_on("get", [&] { return cluster.Get(key).status(); },
                  {coordinator});
    expect_cpu_on("move", [&] { return cluster.Move(key, to); },
                  WriteNodes(cluster, key, to));
    // The tombstone goes to the memgest of the newest version: `to`.
    expect_cpu_on("delete", [&] { return cluster.Delete(key); },
                  WriteNodes(cluster, key, to));
  }
}

// A write whose first backup messages are lost is finished by the
// retransmit timer. The resends belong to the write: their wire spans and
// the receive and apply charges they cause on each replica carry its op.
TEST(OpAttributionTest, RetransmittedBackupsCarryTheWritesOp) {
  const Key key = "resend-me";
  RingOptions o;
  o.seed = 9;
  // Placement depends only on (s, d): learn the write's nodes on a
  // fault-free twin.
  std::vector<net::NodeId> nodes;
  {
    RingCluster twin(o);
    const auto g = twin.CreateMemgest(MemgestDescriptor::Replicated(3));
    ASSERT_TRUE(g.ok());
    nodes = WriteNodes(twin, key, *g);
  }
  ASSERT_EQ(nodes.size(), 3u);
  // Every coordinator -> replica message issued in [kIssue, kHeal) is lost;
  // the first retransmission (write_retransmit_ns = 150 us under a fault
  // plan) goes out after kHeal.
  constexpr sim::SimTime kIssue = 1 * sim::kMillisecond;
  constexpr sim::SimTime kHeal = kIssue + 100 * sim::kMicrosecond;
  for (size_t i = 1; i < nodes.size(); ++i) {
    fault::LinkFault drop;
    drop.src = nodes[0];
    drop.dst = nodes[i];
    drop.drop_prob = 1.0;
    drop.from_ns = kIssue;
    drop.until_ns = kHeal;
    o.fault_plan.links.push_back(drop);
  }
  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  const auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(g.ok());
  ASSERT_LT(cluster.simulator().now(), kIssue);
  cluster.RunFor(kIssue - cluster.simulator().now());
  hub.EnableTracing(true);
  ASSERT_TRUE(cluster.Put(key, std::string("fresh"), *g).ok());
  cluster.RunFor(1 * sim::kMillisecond);
  hub.EnableTracing(false);
  ASSERT_GT(cluster.server(nodes[0]).counters().retransmits, 0u);

  const uint64_t op = OpNamed(hub.tracer(), "put");
  ASSERT_NE(op, 0u);
  // After the heal the coordinator sends one resend per replica, then the
  // reply to the client.
  size_t wires = 0;
  std::map<net::NodeId, size_t> replica_cpu;
  for (const obs::Span& span : hub.tracer().spans()) {
    if (span.start < kHeal || span.op_id != op) {
      continue;
    }
    if (span.node == nodes[0] && std::string(span.name) == "wire") {
      ++wires;
    }
    if (span.node != nodes[0] && span.category == obs::Category::kCpu) {
      ++replica_cpu[span.node];
    }
  }
  EXPECT_EQ(wires, nodes.size());
  for (size_t i = 1; i < nodes.size(); ++i) {
    // The receive charge and the append's own charge.
    EXPECT_EQ(replica_cpu[nodes[i]], 2u) << "replica node " << nodes[i];
  }
}

// A put whose first post is lost is re-posted by the client's retry timer.
// The re-post is the op's own CPU work: its charge carries the op, so the
// breakdown books it as cpu, not wait.
TEST(OpAttributionTest, ClientRepostChargesUnderItsOp) {
  const Key key = "repost-me";
  RingOptions o;
  o.seed = 9;
  net::NodeId client = 0;
  net::NodeId coordinator = 0;
  {
    RingCluster twin(o);
    const auto g = twin.CreateMemgest(MemgestDescriptor::Replicated(3));
    ASSERT_TRUE(g.ok());
    client = twin.client().node();
    coordinator = WriteNodes(twin, key, *g).front();
  }
  constexpr sim::SimTime kIssue = 1 * sim::kMillisecond;
  fault::LinkFault drop;
  drop.src = client;
  drop.dst = coordinator;
  drop.drop_prob = 1.0;
  drop.from_ns = kIssue;
  drop.until_ns = kIssue + 100 * sim::kMicrosecond;
  o.fault_plan.links.push_back(drop);
  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  const auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(g.ok());
  ASSERT_LT(cluster.simulator().now(), kIssue);
  cluster.RunFor(kIssue - cluster.simulator().now());
  hub.EnableTracing(true);
  ASSERT_TRUE(cluster.Put(key, std::string("again"), *g).ok());
  hub.EnableTracing(false);

  const obs::Span* put = nullptr;
  for (const obs::Span& span : hub.tracer().spans()) {
    if (span.category == obs::Category::kOp &&
        std::string(span.name) == "put") {
      put = &span;
    }
  }
  ASSERT_NE(put, nullptr);
  // Inside the op's window the client charges the re-post, then the
  // reply's receive (its first post is charged before the op starts). A
  // re-post charged at the retry timer's op 0 reads {0, op}.
  std::vector<uint64_t> client_cpu_ops;
  for (const obs::Span& span : hub.tracer().spans()) {
    if (span.node == client && span.category == obs::Category::kCpu &&
        span.start >= put->start && span.end <= put->end) {
      client_cpu_ops.push_back(span.op_id);
    }
  }
  EXPECT_EQ(client_cpu_ops, (std::vector<uint64_t>{put->op_id, put->op_id}));
}

}  // namespace
}  // namespace ring
