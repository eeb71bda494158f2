// Determinism regression (the property ring-lint polices): the same seeded
// fig7-style workload, run twice in one process, must produce byte-identical
// metrics dumps and Chrome traces — and running it a third time with the
// race detector enabled must not perturb either (the detector is pure
// observation: no events, no randomness, no schedule changes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

struct RunOutput {
  std::string metrics;
  std::string trace;
  std::string trace_summary;
};

// Mixed put/get traffic over the paper's memgest spread (rep1/rep3/srs32)
// across object sizes 2^4..2^11, with seeded random pacing — the shape of
// the fig7 latency workload, shrunk to test size.
RunOutput RunFig7StyleWorkload(bool analyze_races, bool telemetry = false) {
  RingOptions options;
  options.seed = 42;
  options.clients = 2;
  options.analyze_races = analyze_races;
  RingCluster cluster(options);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  hub.EnableTracing(true);
  if (telemetry) {
    // Full telemetry pipeline on: windowed SLIs + flight recorder. Both are
    // pure observation and must not move a single event.
    hub.timeseries().TrackSliDefaults();
    hub.EnableTimeSeries(true);
    hub.EnableRecorder(true);
  }

  const std::vector<MemgestId> memgests = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1)),
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  Rng rng(7);
  int outstanding = 0;
  for (int op = 0; op < 300; ++op) {
    const Key key = "det-" + std::to_string(rng.NextBelow(24));
    const uint32_t client = static_cast<uint32_t>(rng.NextBelow(2));
    if (rng.NextBernoulli(0.55)) {
      const size_t size = size_t{16} << rng.NextBelow(8);  // 16 B .. 2 KiB
      auto value = std::make_shared<Buffer>(
          MakePatternBuffer(size, rng.NextU64()));
      const MemgestId g = memgests[rng.NextBelow(memgests.size())];
      ++outstanding;
      cluster.client(client).Put(key, std::move(value), g,
                                 [&](Status, Version) { --outstanding; });
    } else {
      ++outstanding;
      cluster.client(client).Get(key, [&](GetResult) { --outstanding; });
    }
    if (rng.NextBernoulli(0.5)) {
      cluster.RunFor(rng.NextBelow(20) * sim::kMicrosecond);
    }
  }
  EXPECT_TRUE(cluster.RunUntilDone([&] { return outstanding == 0; }));
  cluster.RunFor(2 * sim::kMillisecond);

  if (analyze_races) {
    // The workload is race-free; the detector proves it saw the run.
    const analysis::RaceDetector* race = cluster.simulator().race();
    EXPECT_NE(race, nullptr);
    if (race != nullptr) {
      EXPECT_GT(race->accesses_logged(), 0u);
      EXPECT_TRUE(race->races().empty()) << race->Report(&hub.tracer());
    }
  } else {
    EXPECT_EQ(cluster.simulator().race(), nullptr);
  }
  return RunOutput{hub.metrics().Summary(), hub.tracer().ChromeTraceJson(),
                   hub.tracer().Summary()};
}

TEST(DeterminismTest, SameSeedSameBytesTwiceInProcess) {
  const RunOutput first = RunFig7StyleWorkload(/*analyze_races=*/false);
  const RunOutput second = RunFig7StyleWorkload(/*analyze_races=*/false);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.trace_summary, second.trace_summary);
  EXPECT_FALSE(first.metrics.empty());
  EXPECT_FALSE(first.trace.empty());
}

TEST(DeterminismTest, RaceDetectorDoesNotPerturbTheSchedule) {
  const RunOutput plain = RunFig7StyleWorkload(/*analyze_races=*/false);
  const RunOutput observed = RunFig7StyleWorkload(/*analyze_races=*/true);
  EXPECT_EQ(plain.metrics, observed.metrics);
  EXPECT_EQ(plain.trace, observed.trace);
  EXPECT_EQ(plain.trace_summary, observed.trace_summary);
}

TEST(DeterminismTest, TelemetryPipelineDoesNotPerturbTheSchedule) {
  // The zero-perturbation gate for the telemetry pipeline: the same seeded
  // workload with the time-series layer + flight recorder enabled must
  // produce byte-identical metrics/trace output to the telemetry-off run
  // (windowing and recording never schedule events or consume sim RNG).
  const RunOutput off = RunFig7StyleWorkload(/*analyze_races=*/false);
  const RunOutput on =
      RunFig7StyleWorkload(/*analyze_races=*/false, /*telemetry=*/true);
  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_EQ(off.trace, on.trace);
  EXPECT_EQ(off.trace_summary, on.trace_summary);
}

// What a run leaves behind: each server's metadata and heap bytes, and
// every key as read back at the end.
struct ClusterState {
  std::vector<uint64_t> metadata_bytes;
  std::vector<uint64_t> stored_bytes;
  std::vector<std::string> reads;

  bool operator==(const ClusterState&) const = default;
};

// Puts and deletes over Rep(3) and SRS(3,2) with a coordinator crash and a
// spare's promotion halfway: every per-version and per-op structure of the
// servers, the metadata-fetch snapshot copy included.
ClusterState RunSmallCluster(uint64_t seed) {
  RingOptions options;
  options.seed = seed;
  options.spares = 1;
  RingCluster cluster(options);
  const std::vector<MemgestId> memgests = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };
  Rng rng(seed);
  std::vector<Key> keys;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("thr-" + std::to_string(i));
  }
  ClusterState state;
  for (int op = 0; op < 1500; ++op) {
    if (op == 750) {
      cluster.KillNode(1, /*force_detect=*/true);
      cluster.RunFor(2 * sim::kMillisecond);
    }
    const Key& key = keys[rng.NextBelow(keys.size())];
    const Status status =
        rng.NextBernoulli(0.85)
            ? cluster.Put(key,
                          MakePatternBuffer(size_t{16} << rng.NextBelow(6),
                                            rng.NextU64()),
                          memgests[rng.NextBelow(memgests.size())])
            : cluster.Delete(key);
    state.reads.push_back(status.ToString());
  }
  cluster.RunFor(5 * sim::kMillisecond);
  for (net::NodeId n = 0; RingServer* server = cluster.runtime().server(n);
       ++n) {
    state.metadata_bytes.push_back(server->TotalMetadataBytes());
    state.stored_bytes.push_back(server->StoredBytes());
  }
  for (const Key& key : keys) {
    const Result<Buffer> got = cluster.Get(key);
    state.reads.push_back(got.ok() ? std::string(got->begin(), got->end())
                                   : got.status().ToString());
  }
  return state;
}

TEST(DeterminismTest, ClustersOnTwoThreadsMatchOneThreadRuns) {
  // Server bookkeeping draws from thread-local pools (sim::TaskPool, whose
  // 64-byte class also holds the MetadataTable nodes). Two clusters running
  // at once on two threads must each end exactly as a one-thread run of the
  // same seed; the ThreadSanitizer build runs this case too.
  const ClusterState first = RunSmallCluster(11);
  const ClusterState second = RunSmallCluster(12);
  ASSERT_FALSE(first.metadata_bytes.empty());
  ASSERT_NE(first, second);
  ClusterState threaded_first;
  ClusterState threaded_second;
  std::thread a([&] { threaded_first = RunSmallCluster(11); });
  std::thread b([&] { threaded_second = RunSmallCluster(12); });
  a.join();
  b.join();
  EXPECT_TRUE(threaded_first == first);
  EXPECT_TRUE(threaded_second == second);
}

}  // namespace
}  // namespace ring
