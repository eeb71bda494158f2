// Chaos availability: unavailability windows per resilience scheme under a
// scripted fault schedule (paper §6 availability discussion, Fig. 10/16
// flavour, driven by the src/fault injector instead of clean Kill calls).
//
// A fixed-cadence open-loop prober issues gets against keys homed on the
// victim shard while the schedule plays out: a crash-recovery of the
// coordinator (the node restarts memory-less and rejoins), then a gray
// pause of whichever node serves the shard after failover. The probe stream
// feeds the telemetry pipeline (client.ops_ok / client.op_latency_ns into
// 1 ms time-series windows); per-window goodput, error rate, and p50/p99
// come from TimeSeries::Slis, and unavailability windows are the SLI dips
// FindDips extracts — the same machinery `ringctl report` uses. The crash is
// handled by revoke-then-promote (DESIGN.md §16). Replication rides it out
// with a replica promotion; erasure coding pays decoding on first touch;
// Rep(1) keys on the victim are lost for good — the rejoined node comes back
// memory-less.
//
// Emits BENCH_chaos.json (override the path with argv[1]) with the full
// per-window SLI rows per scheme.
#include "bench/bench_util.h"

#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/fault/fault.h"
#include "src/obs/report.h"

namespace {

using namespace ring;

constexpr char kPlanSpec[] =
    "crash node=1 at=5ms recover=30ms\n"
    "pause node=5 at=60ms resume=68ms";

Key VictimKey(uint32_t shard, int i) {
  for (int salt = 0;; ++salt) {
    Key k = "ca" + std::to_string(i) + "-" + std::to_string(salt);
    if (KeyShard(k, 3) == shard) {
      return k;
    }
  }
}

struct SchemeResult {
  const char* label = nullptr;
  const char* scheme = nullptr;
  uint64_t window_ns = 0;
  size_t probes = 0;
  uint64_t failed = 0;  // probe callbacks that returned a non-ok status
  // Crash handling, measured: sim time from the 5 ms crash until the
  // leader's config marks the victim failed (detection + reconfiguration),
  // and the revoke-round span alone.
  uint64_t crash_reconfig_ns = 0;
  uint64_t revoke_round_ns = 0;
  uint64_t fast_failovers = 0;
  uint64_t revocations_issued = 0;
  std::vector<obs::TimeSeries::SliWindow> rows;
  std::vector<obs::Dip> dips;
  fault::FaultInjector::Counters injected;
};

SchemeResult Run(const char* label, const char* scheme,
                 MemgestDescriptor desc) {
  RingOptions o = bench::PaperCluster(/*clients=*/1, /*spares=*/1, 1307);
  // Fast failure handling so the crash window is dominated by the protocol,
  // not by a deliberately conservative detector; probes fail fast instead of
  // burning the full default retry budget.
  o.params.heartbeat_period_ns = 500 * sim::kMicrosecond;
  o.params.failure_timeout_ns = 2 * sim::kMillisecond;
  o.params.client_retry_timeout_ns = 200 * sim::kMicrosecond;
  o.params.client_retry_budget_ns = 3 * sim::kMillisecond;
  // The schedule: the shard-1 coordinator crashes at 5 ms and restarts
  // memory-less at 30 ms (rejoining via the spare/recovery path); at 60 ms
  // the promoted spare (node 5) suffers an 8 ms gray pause — alive on the
  // wire, making no progress — healed before the detector gives up on it.
  o.fault_plan = *fault::ParseFaultPlan(kPlanSpec);
  o.fault_seed = 1307;
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(desc);

  const int kKeys = 32;
  std::vector<Key> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(VictimKey(1, i));
    (void)cluster.Put(keys[i], MakePatternBuffer(1024, i), g);
  }

  // Telemetry on after the setup puts: the windows carry the probe stream
  // only. 1 ms windows over a 100 ms horizon, capacity with drain slack.
  obs::Hub& hub = cluster.simulator().hub();
  obs::TimeSeries::Options tso;
  tso.window_ns = sim::kMillisecond;
  tso.capacity_windows = 256;
  hub.timeseries().Configure(tso);
  hub.timeseries().TrackSliDefaults();
  hub.EnableMetrics(true);
  hub.EnableTimeSeries(true);

  // Open-loop probe stream: one get every 100 us for 100 ms.
  const sim::SimTime kProbeGap = 100 * sim::kMicrosecond;
  const sim::SimTime kHorizon = 100 * sim::kMillisecond;
  const sim::SimTime t0 = cluster.simulator().now();
  SchemeResult result;
  result.label = label;
  result.scheme = scheme;
  result.window_ns = hub.timeseries().window_ns();
  auto& client = cluster.client(0);
  const consensus::MembershipGroup& membership =
      cluster.runtime().membership();
  const sim::SimTime kCrashAt = 5 * sim::kMillisecond;  // plan `crash at=`
  for (int i = 0; cluster.simulator().now() - t0 < kHorizon; ++i) {
    ++result.probes;
    client.Get(keys[i % kKeys], [&result](GetResult r) {
      if (!r.status.ok()) {
        ++result.failed;
      }
    });
    // Advance one probe gap in fine steps so the crash-to-reconfig span is
    // sampled at 10 us resolution (pure observation: the event schedule is
    // the same as one 100 us step).
    for (int s = 0; s < 10; ++s) {
      cluster.RunFor(kProbeGap / 10);
      const sim::SimTime now = cluster.simulator().now();
      if (result.crash_reconfig_ns == 0 && now >= kCrashAt &&
          membership.ConfigView(membership.CurrentLeader()).failed[1]) {
        result.crash_reconfig_ns = now - kCrashAt;
      }
    }
  }
  cluster.RunFor(50 * sim::kMillisecond);  // drain stragglers
  result.revoke_round_ns = membership.last_fast_failover_ns();
  result.fast_failovers = membership.fast_failovers();
  result.revocations_issued = membership.revocations_issued();

  // Windowed SLIs over the probe horizon only, clamped to the last window
  // the probe stream fully covered (the horizon ends mid-window because the
  // setup puts shifted t0; a partial window would read as a spurious dip,
  // and until_ns is window-inclusive). A window is unavailable when its
  // acked-probe rate falls below half the median — probes that fail
  // outright or stall past the window both starve ops_ok.
  obs::TimeSeries::SliOptions so;
  so.until_ns = (t0 + kHorizon) / result.window_ns * result.window_ns - 1;
  result.rows = hub.timeseries().Slis(so);
  result.dips = obs::FindDips(result.rows, result.window_ns);
  result.injected = cluster.runtime().injector()->counters();
  return result;
}

void PrintScheme(const SchemeResult& r) {
  uint64_t ok = 0;
  uint64_t err = 0;
  uint64_t unavailable = 0;
  uint64_t longest_ns = 0;
  for (const auto& row : r.rows) {
    ok += row.ops_ok;
    err += row.ops_err;
    unavailable += row.available ? 0 : 1;
  }
  for (const obs::Dip& d : r.dips) {
    longest_ns = std::max(longest_ns, d.end_ns - d.start_ns);
  }
  std::printf("%s:\n", r.label);
  std::printf("  probes %zu (%llu failed), %zu windows x %.1f ms: "
              "%llu acked, %llu errors\n",
              r.probes, static_cast<unsigned long long>(r.failed),
              r.rows.size(), static_cast<double>(r.window_ns) / 1e6,
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(err));
  std::printf("  unavailable %7.2f ms total, longest dip %7.2f ms\n",
              static_cast<double>(unavailable * r.window_ns) / 1e6,
              static_cast<double>(longest_ns) / 1e6);
  std::printf("  crash handled in %8.1f us (fast: revoke-then-promote, "
              "revoke round %.1f us, %llu revocations)\n",
              static_cast<double>(r.crash_reconfig_ns) / 1e3,
              static_cast<double>(r.revoke_round_ns) / 1e3,
              static_cast<unsigned long long>(r.revocations_issued));
  for (const obs::Dip& d : r.dips) {
    std::printf("    [%7.2f, %7.2f) ms  %s\n",
                static_cast<double>(d.start_ns) / 1e6,
                static_cast<double>(d.end_ns) / 1e6,
                d.recovered ? "recovered" : "NOT recovered");
  }
  std::printf("  injected: crashes %llu, recoveries %llu, pauses %llu, "
              "deferred deliveries %llu\n\n",
              static_cast<unsigned long long>(r.injected.crashes),
              static_cast<unsigned long long>(r.injected.recoveries),
              static_cast<unsigned long long>(r.injected.pauses),
              static_cast<unsigned long long>(r.injected.deferred));
}

void WriteJson(const char* path, const std::vector<SchemeResult>& results) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"chaos_availability\",\n");
  std::fprintf(f, "  \"plan\": \"crash node=1 at=5ms recover=30ms; "
                  "pause node=5 at=60ms resume=68ms\",\n");
  std::fprintf(f, "  \"probe_gap_us\": 100,\n  \"horizon_ms\": 100,\n");
  std::fprintf(f, "  \"schemes\": [");
  for (size_t s = 0; s < results.size(); ++s) {
    const SchemeResult& r = results[s];
    uint64_t unavailable = 0;
    uint64_t longest_ns = 0;
    for (const auto& row : r.rows) {
      unavailable += row.available ? 0 : 1;
    }
    for (const obs::Dip& d : r.dips) {
      longest_ns = std::max(longest_ns, d.end_ns - d.start_ns);
    }
    std::fprintf(f, "%s\n    {\n      \"scheme\": \"%s\",\n",
                 s == 0 ? "" : ",", r.scheme);
    std::fprintf(f, "      \"crash_reconfig_us\": %.1f,\n",
                 static_cast<double>(r.crash_reconfig_ns) / 1e3);
    std::fprintf(f, "      \"revoke_round_us\": %.1f,\n",
                 static_cast<double>(r.revoke_round_ns) / 1e3);
    std::fprintf(f, "      \"fast_failovers\": %llu,\n",
                 static_cast<unsigned long long>(r.fast_failovers));
    std::fprintf(f, "      \"revocations\": %llu,\n",
                 static_cast<unsigned long long>(r.revocations_issued));
    std::fprintf(f, "      \"window_ms\": %.3f,\n",
                 static_cast<double>(r.window_ns) / 1e6);
    std::fprintf(f, "      \"probes\": %zu,\n      \"failed\": %llu,\n",
                 r.probes, static_cast<unsigned long long>(r.failed));
    std::fprintf(f, "      \"unavailable_ms\": %.3f,\n",
                 static_cast<double>(unavailable * r.window_ns) / 1e6);
    std::fprintf(f, "      \"longest_dip_ms\": %.3f,\n",
                 static_cast<double>(longest_ns) / 1e6);
    std::fprintf(f, "      \"windows\": [");
    for (size_t i = 0; i < r.rows.size(); ++i) {
      const auto& row = r.rows[i];
      std::fprintf(
          f,
          "%s\n        {\"t_ms\": %.3f, \"ops_ok\": %llu, \"ops_err\": %llu, "
          "\"goodput_per_sec\": %.0f, \"error_rate\": %.4f, "
          "\"p50_us\": %.1f, \"p99_us\": %.1f, \"available\": %s}",
          i == 0 ? "" : ",", static_cast<double>(row.start_ns) / 1e6,
          static_cast<unsigned long long>(row.ops_ok),
          static_cast<unsigned long long>(row.ops_err), row.goodput_per_sec,
          row.error_rate, static_cast<double>(row.p50_ns) / 1e3,
          static_cast<double>(row.p99_ns) / 1e3,
          row.available ? "true" : "false");
    }
    std::fprintf(f, "\n      ],\n      \"dips\": [");
    for (size_t i = 0; i < r.dips.size(); ++i) {
      const obs::Dip& d = r.dips[i];
      std::fprintf(f,
                   "%s\n        {\"start_ms\": %.3f, \"end_ms\": %.3f, "
                   "\"duration_ms\": %.3f, \"recovered\": %s}",
                   i == 0 ? "" : ",", static_cast<double>(d.start_ns) / 1e6,
                   static_cast<double>(d.end_ns) / 1e6,
                   static_cast<double>(d.end_ns - d.start_ns) / 1e6,
                   d.recovered ? "true" : "false");
    }
    std::fprintf(f,
                 "\n      ],\n      \"injected\": {\"crashes\": %llu, "
                 "\"recoveries\": %llu, \"pauses\": %llu, \"deferred\": "
                 "%llu}\n    }",
                 static_cast<unsigned long long>(r.injected.crashes),
                 static_cast<unsigned long long>(r.injected.recoveries),
                 static_cast<unsigned long long>(r.injected.pauses),
                 static_cast<unsigned long long>(r.injected.deferred));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "# Chaos availability: crash-recovery at 5-30 ms + gray pause at "
      "60-68 ms,\n# 1 KiB objects on the victim shard, probe every 100 us, "
      "1 ms SLI windows\n\n");
  std::vector<SchemeResult> results;
  results.push_back(Run("Rep(3)   fast failover (revoke-then-promote)",
                        "rep3", MemgestDescriptor::Replicated(3)));
  results.push_back(Run("SRS(3,2) fast failover (revoke-then-promote)",
                        "srs32", MemgestDescriptor::ErasureCoded(3, 2)));
  results.push_back(Run("Rep(1)   fast failover (revoke-then-promote)",
                        "rep1", MemgestDescriptor::Replicated(1)));
  for (const SchemeResult& r : results) {
    PrintScheme(r);
  }
  WriteJson(argc > 1 ? argv[1] : "BENCH_chaos.json", results);
  return 0;
}
