#include <gtest/gtest.h>

#include <map>

#include "src/workload/drivers.h"
#include "src/workload/spc_trace.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"

namespace ring::workload {
namespace {

TEST(ZipfTest, RanksStayInRange) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(2);
  const int n = 100000;
  int rank0 = 0;
  int top10 = 0;
  for (int i = 0; i < n; ++i) {
    const uint64_t rank = zipf.Next(rng);
    rank0 += rank == 0;
    top10 += rank < 10;
  }
  // YCSB's zipfian(0.99) puts ~10% of mass on rank 0 for n=10k and roughly
  // a quarter on the top 10.
  EXPECT_GT(rank0, n / 20);
  EXPECT_GT(top10, n / 6);
  EXPECT_LT(rank0, n / 2);
}

TEST(ZipfTest, LowThetaApproachesUniform) {
  ZipfGenerator zipf(100, 0.01);
  Rng rng(3);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Next(rng)]++;
  }
  // Every rank drawn; the most popular below 4x the mean.
  EXPECT_EQ(counts.size(), 100u);
  int max_count = 0;
  for (const auto& [rank, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_LT(max_count, 4 * n / 100);
}

TEST(YcsbTest, KeyShapeAndMixture) {
  YcsbSpec spec;
  spec.num_keys = 100;
  spec.key_len = 8;
  spec.get_fraction = 0.95;
  YcsbWorkload workload(spec, 11);
  int gets = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Op op = workload.Next();
    ASSERT_EQ(op.key.size(), 8u);  // paper: 8-byte keys
    gets += op.kind == OpKind::kGet;
  }
  EXPECT_NEAR(static_cast<double>(gets) / n, 0.95, 0.01);
}

TEST(YcsbTest, DeterministicStream) {
  YcsbSpec spec;
  spec.num_keys = 50;
  YcsbWorkload a(spec, 5);
  YcsbWorkload b(spec, 5);
  for (int i = 0; i < 100; ++i) {
    const Op x = a.Next();
    const Op y = b.Next();
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.kind, y.kind);
  }
}

TEST(SpcTraceTest, SyntheticMatchesProfiles) {
  auto fin = Aggregate("Financial1", SyntheticTrace("Financial1", 20000, 7));
  EXPECT_NEAR(fin.write_fraction(), 0.77, 0.02);
  auto web = Aggregate("WebSearch1", SyntheticTrace("WebSearch1", 20000, 7));
  EXPECT_NEAR(web.write_fraction(), 0.01, 0.01);
  // WebSearch ops are much larger on average.
  EXPECT_GT(static_cast<double>(web.read_bytes) / web.reads,
            2.0 * static_cast<double>(fin.written_bytes) / fin.writes);
}

TEST(SpcTraceTest, UnknownProfileEmpty) {
  EXPECT_TRUE(SyntheticTrace("NoSuchTrace", 100).empty());
}

TEST(SpcTraceTest, PaperAggregatesOrdered) {
  const auto traces = PaperTraceAggregates();
  ASSERT_EQ(traces.size(), 5u);
  EXPECT_EQ(traces[0].name, "Financial1");
  EXPECT_EQ(traces[4].name, "WebSearch3");
  EXPECT_GT(traces[0].write_fraction(), 0.7);   // put-heavy OLTP
  EXPECT_LT(traces[2].write_fraction(), 0.05);  // get-dominated search
}

TEST(AggregateTest, FootprintCountsDistinctPages) {
  std::vector<SpcRecord> records = {
      {0, 0, 4096, 'W', 0.0},     // page 0
      {0, 0, 4096, 'R', 1.0},     // page 0 again
      {0, 8, 4096, 'W', 2.0},     // lba 8 * 512 = page 1
      {0, 16, 8192, 'W', 3.0},    // pages 2..3
  };
  const auto agg = Aggregate("t", records);
  EXPECT_EQ(agg.footprint_bytes, 4u * 4096);
  EXPECT_EQ(agg.reads, 1u);
  EXPECT_EQ(agg.writes, 3u);
  EXPECT_DOUBLE_EQ(agg.duration_sec, 3.0);
}

// ---------------------------------------------------------------------------
// Drivers against a live cluster

TEST(DriversTest, ClosedLoopMeasuresLatency) {
  RingCluster cluster{RingOptions{}};
  auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  ASSERT_TRUE(g.ok());
  ClosedLoopDriver driver(&cluster);
  auto latencies = driver.MeasurePutLatency(*g, 1024, 50);
  ASSERT_EQ(latencies.count(), 50u);
  EXPECT_GT(latencies.Median(), 1.0);   // at least wire RTT
  EXPECT_LT(latencies.Median(), 50.0);  // and far below a TCP system
}

TEST(DriversTest, OpenLoopTracksCompletions) {
  RingOptions o;
  o.params.client_retry_timeout_ns = 100 * sim::kMillisecond;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  ASSERT_TRUE(g.ok());
  OpenLoopDriver::Options opt;
  opt.rate_per_sec = 50'000;
  opt.memgest = *g;
  opt.spec.num_keys = 100;
  opt.spec.get_fraction = 0.5;
  OpenLoopDriver driver(&cluster, 0, opt);
  driver.Start();
  cluster.RunFor(100 * sim::kMillisecond);
  driver.Stop();
  cluster.RunFor(5 * sim::kMillisecond);
  // ~5000 ops at this rate; all issued ops complete (far from saturation).
  EXPECT_NEAR(static_cast<double>(driver.issued()), 5000.0, 100.0);
  EXPECT_EQ(driver.completed(), driver.issued());
}

TEST(DriversTest, OpenLoopShedsLoadAtSaturation) {
  RingOptions o;
  o.params.client_retry_timeout_ns = 500 * sim::kMillisecond;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  ASSERT_TRUE(g.ok());
  OpenLoopDriver::Options opt;
  opt.rate_per_sec = 2'000'000;  // far beyond capacity
  opt.max_outstanding = 64;
  opt.memgest = *g;
  opt.spec.num_keys = 500;
  opt.spec.get_fraction = 0.0;
  OpenLoopDriver driver(&cluster, 0, opt);
  driver.Start();
  cluster.RunFor(50 * sim::kMillisecond);
  driver.Stop();
  EXPECT_GT(driver.dropped(), 0u);  // window-based flow control engaged
  EXPECT_GT(driver.completed(), 1000u);
}

}  // namespace
}  // namespace ring::workload
