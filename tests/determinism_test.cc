// Determinism regression (the property ring-lint polices): the same seeded
// fig7-style workload, run twice in one process, must produce byte-identical
// metrics dumps and Chrome traces — and running it a third time with the
// race detector enabled must not perturb either (the detector is pure
// observation: no events, no randomness, no schedule changes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
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

}  // namespace
}  // namespace ring
