// ringctl: command-line driver for ad-hoc experiments on a simulated Ring
// deployment. tools/ringctl_smoke.sh runs every example below at test size
// in tier-1, and DESIGN.md §18 names what exercises each flag:
//
//   ringctl latency    --scheme=srs32 --size=4096 --reps=2000
//   ringctl throughput --scheme=rep3 --clients=4 --rate=400000 --groups=5
//   ringctl recover    --scheme=srs32 --entries=5000 --victim=1
//   ringctl reliability --stretch=6
//   ringctl schemes    --shards=4 --redundant=3
//   ringctl stats      --scheme=srs32 --reps=500 [--json|--prom]
//   ringctl simstats   --scheme=rep3 --reps=2000
//   ringctl trace      --scheme=srs32 --trace_out=trace.json
//   ringctl autotier   --scheme=rep3 --keys=240
//   ringctl calibrate  --json
//   ringctl chaos      --scheme=rep3 --seed=5 --plan="crash node=1 at=5ms"
//   ringctl watch      --scheme=rep3 --seed=5
//   ringctl report     --scheme=rep3 --seed=5
//   ringctl mc         --scenario=wedged-write --spec-out=ce.mcspec
//   ringctl mc         --replay=ce.mcspec
//   ringctl cluster status --shards=6
//   ringctl cluster add    --scheme=srs32 --count=2 --keys=500
//   ringctl cluster remove --scheme=rep3 --keys=500
//
// `cluster` exercises the elastic membership path (§13): it loads a key
// population, performs online scale-out (`add`) or scale-in (`remove`)
// through the consensus-driven rebalance driver while probing reads, then
// prints the drain stats, the resulting cluster table, and a full read-back
// verification of the population.
//
// `watch` and `report` run the chaos scenario with the telemetry pipeline
// enabled: watch prints the windowed SLI table live as windows close;
// report renders the post-mortem (fault timeline, SLI degradation, flight
// recorder context around each availability dip) after the run.
//
// `mc` runs the ring-mc schedule-space model checker (src/mc) over a preset
// scenario: DPOR + sleep sets over message deliveries, bounded reorderings,
// drops and crashes, with the chaos oracles checking every trace. A found
// violation is shrunk to a minimal spec file that `--replay` reproduces
// byte-identically.
//
// Any latency/trace run can emit a Chrome trace_event file via
// --trace_out=<file> (open it in chrome://tracing or ui.perfetto.dev).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/fault/fault.h"
#include "src/mc/explorer.h"
#include "src/mc/scenarios.h"
#include "src/mc/spec.h"
#include "src/membership/rebalance.h"
#include "src/obs/export.h"
#include "src/obs/hub.h"
#include "src/obs/report.h"
#include "src/policy/autotier.h"
#include "src/reliability/models.h"
#include "src/gf/gf256.h"
#include "src/ring/cluster.h"
#include "src/sim/calibrate.h"
#include "src/workload/drivers.h"
#include "src/workload/zipf.h"

namespace ring {
namespace {

Result<MemgestDescriptor> SchemeFromName(const std::string& name) {
  if (name.rfind("rep", 0) == 0 && name.size() == 4) {
    const uint32_t r = static_cast<uint32_t>(name[3] - '0');
    if (r >= 1 && r <= 9) {
      return MemgestDescriptor::Replicated(r, name);
    }
  }
  if (name.rfind("srs", 0) == 0 && name.size() == 5) {
    const uint32_t k = static_cast<uint32_t>(name[3] - '0');
    const uint32_t m = static_cast<uint32_t>(name[4] - '0');
    if (k >= 1 && m >= 1) {
      return MemgestDescriptor::ErasureCoded(k, m, name);
    }
  }
  return InvalidArgumentError(
      "scheme must be repN (e.g. rep3) or srsKM (e.g. srs32), got '" + name +
      "'");
}

int RunCalibrate(FlagSet& flags) {
  const auto cal = sim::MeasureCodingThroughput();
  const sim::SimParams base;
  const sim::SimParams derived = sim::Calibrated(base, cal);
  if (flags.GetBool("json")) {
    std::printf(
        "{\n"
        "  \"impl\": \"%s\",\n"
        "  \"block_bytes\": %zu,\n"
        "  \"add_gbps\": %.3f,\n"
        "  \"mulacc_gbps\": %.3f,\n"
        "  \"fused_encode_gbps\": %.3f,\n"
        "  \"decode_gbps\": %.3f,\n"
        "  \"gf_byte_ns\": %.6f,\n"
        "  \"decode_byte_ns\": %.6f\n"
        "}\n",
        gf::RegionImplName(cal.impl), cal.block_bytes, cal.add_bytes_per_ns,
        cal.mulacc_bytes_per_ns, cal.fused_bytes_per_ns,
        cal.decode_bytes_per_ns, derived.gf_byte_ns, derived.decode_byte_ns);
    return 0;
  }
  std::printf("coding substrate: %s kernels, %zu B regions\n",
              gf::RegionImplName(cal.impl), cal.block_bytes);
  std::printf("  xor (AddRegion)          %8.2f GB/s\n", cal.add_bytes_per_ns);
  std::printf("  mul-acc (MulAddRegion)   %8.2f GB/s  (random coefficients)\n",
              cal.mulacc_bytes_per_ns);
  std::printf("  fused RS(3,2) encode     %8.2f GB/s  per source byte\n",
              cal.fused_bytes_per_ns);
  std::printf("  RS(3,2) decode           %8.2f GB/s  per source byte\n",
              cal.decode_bytes_per_ns);
  std::printf("derived SimParams (defaults %.3f / %.3f):\n", base.gf_byte_ns,
              base.decode_byte_ns);
  std::printf("  gf_byte_ns     = %.6f\n", derived.gf_byte_ns);
  std::printf("  decode_byte_ns = %.6f\n", derived.decode_byte_ns);
  return 0;
}

Key KeyInShard(uint32_t shard, uint32_t num_shards, int i) {
  for (int salt = 0;; ++salt) {
    Key k = "ctl" + std::to_string(i) + "-" + std::to_string(salt);
    if (KeyShard(k, num_shards) == shard) {
      return k;
    }
  }
}

// Number of end-to-end (kOp) spans recorded so far; used to slice the
// breakdown list by measurement pass (op spans complete in issue order under
// a closed-loop driver).
size_t OpSpanCount(const obs::Tracer& tracer) {
  size_t n = 0;
  for (const auto& s : tracer.spans()) {
    if (s.category == obs::Category::kOp) {
      ++n;
    }
  }
  return n;
}

void PrintBreakdownRow(const std::string& label, const obs::BreakdownMean& b) {
  std::printf(
      "  %-10s network %6.2f  coding %6.2f  cpu %6.2f  queue %6.2f  "
      "wait %6.2f  = %7.2f us end-to-end  (%llu ops)\n",
      label.c_str(), b.network_us, b.coding_us, b.cpu_us, b.queue_us,
      b.wait_us, b.total_us, static_cast<unsigned long long>(b.ops));
}

int RunLatency(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.wire_jitter_ns = 400;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  workload::ClosedLoopDriver driver(&cluster);
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  const int reps = static_cast<int>(flags.GetInt("reps"));
  const auto put = driver.MeasurePutLatency(*g, size, reps);
  const auto get = driver.MeasureGetLatency(*g, size, reps);
  const auto move = driver.MeasureMoveLatency(*g, *g, size, reps / 4 + 1);
  std::printf("%s, %zu B objects, %d reps:\n", desc->ToString().c_str(), size,
              reps);
  std::printf("  put   median %7.2f us   p90 %7.2f us\n", put.Median(),
              put.Percentile(90));
  std::printf("  get   median %7.2f us   p90 %7.2f us\n", get.Median(),
              get.Percentile(90));
  std::printf("  move  median %7.2f us   p90 %7.2f us\n", move.Median(),
              move.Percentile(90));

  const std::string trace_out = flags.GetString("trace_out");
  if (trace_out.empty()) {
    return 0;
  }
  // Traced pass: the requested scheme plus rep3 and srs32, so the emitted
  // trace always covers both a replicated and an erasure-coded put path.
  std::vector<std::pair<std::string, MemgestId>> traced;
  traced.emplace_back(desc->ToString(), *g);
  for (const char* extra : {"rep3", "srs32"}) {
    if (flags.GetString("scheme") == extra) {
      continue;
    }
    auto d2 = SchemeFromName(extra);
    auto g2 = cluster.CreateMemgest(*d2);
    if (g2.ok()) {
      traced.emplace_back(d2->ToString(), *g2);
    }
  }
  obs::Hub& hub = cluster.simulator().hub();
  hub.tracer().Clear();
  hub.EnableTracing(true);
  const int traced_reps = std::min(reps, 100);
  struct Slice {
    std::string label;
    size_t begin;
    size_t end;
  };
  std::vector<Slice> slices;
  for (const auto& [label, id] : traced) {
    const size_t begin = OpSpanCount(hub.tracer());
    driver.MeasurePutLatency(id, size, traced_reps);
    slices.push_back({label, begin, OpSpanCount(hub.tracer())});
  }
  hub.EnableTracing(false);

  const auto breakdowns = hub.tracer().OpBreakdowns();
  uint64_t max_dev = 0;
  for (const auto& b : breakdowns) {
    const uint64_t sum =
        b.coding_ns + b.cpu_ns + b.network_ns + b.queue_ns + b.wait_ns;
    const uint64_t dev =
        sum > b.total_ns() ? sum - b.total_ns() : b.total_ns() - sum;
    max_dev = std::max(max_dev, dev);
  }
  std::printf("\ntraced put breakdown (%d reps each), per-op means in us:\n",
              traced_reps);
  for (const auto& sl : slices) {
    const std::vector<obs::OpBreakdown> ours(breakdowns.begin() + sl.begin,
                                             breakdowns.begin() + sl.end);
    PrintBreakdownRow(sl.label, obs::MeanBreakdown(ours, "put"));
  }
  std::printf(
      "  breakdown sum == end-to-end latency for all %zu traced ops "
      "(max deviation %llu ns)\n",
      breakdowns.size(), static_cast<unsigned long long>(max_dev));
  if (!hub.tracer().WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("  wrote %zu spans to %s (open in chrome://tracing or "
              "ui.perfetto.dev)\n",
              hub.tracer().spans().size(), trace_out.c_str());
  return 0;
}

// `ringctl stats`: run a closed-loop put/get/move mix with the metrics
// registry enabled and dump every counter, gauge, histogram and per-link
// byte count it accumulated. --json emits the machine-readable dump (stable
// {name,node,memgest,op} key schema); --prom emits Prometheus text
// exposition instead of the human summary.
int RunStats(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.wire_jitter_ns = 400;
  RingCluster cluster(o);
  cluster.simulator().hub().EnableMetrics(true);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  workload::ClosedLoopDriver driver(&cluster);
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  const int reps = static_cast<int>(flags.GetInt("reps"));
  driver.MeasurePutLatency(*g, size, reps);
  driver.MeasureGetLatency(*g, size, reps);
  driver.MeasureMoveLatency(*g, *g, size, reps / 4 + 1);
  const obs::Metrics& metrics = cluster.simulator().hub().metrics();
  if (flags.GetBool("json")) {
    std::printf("%s", obs::StatsJson(metrics).c_str());
    return 0;
  }
  if (flags.GetBool("prom")) {
    std::printf("%s", obs::PrometheusText(metrics).c_str());
    return 0;
  }
  std::printf("%s, %zu B objects, %d put + %d get + %d move:\n\n%s",
              desc->ToString().c_str(), size, reps, reps, reps / 4 + 1,
              metrics.Summary().c_str());
  return 0;
}

// `ringctl simstats`: scheduler-core telemetry for a seeded closed-loop
// put/get mix — wall-clock event throughput, queue depth high-water, task
// pool hit rate, and per-node CPU utilization.
int RunSimstats(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  RingCluster cluster(o);
  sim::Simulator& simulator = cluster.simulator();
  simulator.hub().EnableMetrics(true);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  workload::ClosedLoopDriver driver(&cluster);
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  const int reps = static_cast<int>(flags.GetInt("reps"));
  const uint64_t events_before = simulator.events_executed();
  const sim::SimTime sim_before = simulator.now();
  sim::TaskPool::ResetStats();
  const auto wall_start = std::chrono::steady_clock::now();
  driver.MeasurePutLatency(*g, size, reps);
  driver.MeasureGetLatency(*g, size, reps);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  const uint64_t events = simulator.events_executed() - events_before;
  const uint64_t sim_ns = simulator.now() - sim_before;
  const sim::TaskPool::Stats pool = sim::TaskPool::stats();
  const sim::EventQueue& queue = simulator.queue();

  std::printf("simstats: %s, %zu B objects, %d puts + %d gets, seed %llu\n",
              desc->ToString().c_str(), size, reps, reps,
              static_cast<unsigned long long>(o.seed));
  std::printf("  events executed     %" PRIu64 " over %.3f simulated ms\n",
              events, sim_ns / 1e6);
  std::printf("  events/sec (wall)   %.0f  (%.3f s wall)\n",
              wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0,
              wall_s);
  std::printf("  queue depth peak    %zu\n", queue.depth_high_water());
  std::printf("  task pool           %" PRIu64 " inline + %" PRIu64
              " pooled + %" PRIu64 " fresh  (hit rate %" PRIu64 "%%)\n",
              pool.inline_ctors, pool.pool_hits, pool.pool_misses,
              pool.hit_rate_pct());
  const obs::Metrics& metrics = simulator.hub().metrics();
  std::printf("  cpu utilization (busy / simulated elapsed):\n");
  for (uint32_t node = 0; node < cluster.runtime().num_server_nodes();
       ++node) {
    const uint64_t busy = metrics.CounterValue("cpu.busy_ns", node);
    std::printf("    node %-3u %5.1f%%\n", node,
                sim_ns == 0 ? 0.0 : 100.0 * static_cast<double>(busy) /
                                        static_cast<double>(sim_ns));
  }
  return 0;
}

// `ringctl trace`: run a short traced put/get/move mix, print the per
// {span, category} totals and the mean per-op latency breakdowns, and
// optionally write the Chrome trace file.
int RunTrace(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.wire_jitter_ns = 400;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableTracing(true);
  workload::ClosedLoopDriver driver(&cluster);
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  const int reps = std::min(static_cast<int>(flags.GetInt("reps")), 200);
  driver.MeasurePutLatency(*g, size, reps);
  driver.MeasureGetLatency(*g, size, reps);
  driver.MeasureMoveLatency(*g, *g, size, reps / 4 + 1);
  hub.EnableTracing(false);
  std::printf("%s, %zu B objects, traced:\n\n%s\n",
              desc->ToString().c_str(), size, hub.tracer().Summary().c_str());
  const auto breakdowns = hub.tracer().OpBreakdowns();
  std::printf("per-op mean latency breakdown (us):\n");
  for (const char* op : {"put", "get", "move"}) {
    const auto m = obs::MeanBreakdown(breakdowns, op);
    if (m.ops > 0) {
      PrintBreakdownRow(op, m);
    }
  }
  const std::string trace_out = flags.GetString("trace_out");
  if (!trace_out.empty()) {
    if (!hub.tracer().WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                hub.tracer().spans().size(), trace_out.c_str());
  }
  return 0;
}

int RunThroughput(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.clients = static_cast<uint32_t>(flags.GetInt("clients"));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.client_retry_timeout_ns = 200 * sim::kMillisecond;
  // Lightweight load generators (Fig. 9 style).
  o.params.client_put_byte_ns = 0.0;
  o.params.client_base_ns = 1800;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  workload::YcsbSpec spec;
  spec.num_keys = static_cast<uint64_t>(flags.GetInt("keys"));
  spec.value_len = static_cast<uint32_t>(flags.GetInt("size"));
  spec.get_fraction = 0.0;
  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers;
  for (uint32_t i = 0; i < o.clients; ++i) {
    workload::OpenLoopDriver::Options opt;
    opt.rate_per_sec = flags.GetDouble("rate");
    opt.memgest = *g;
    opt.spec = spec;
    opt.seed = o.seed * 100 + i;
    drivers.push_back(
        std::make_unique<workload::OpenLoopDriver>(&cluster, i, opt));
    drivers.back()->Start();
  }
  const double seconds = flags.GetDouble("seconds");
  cluster.RunFor(static_cast<sim::SimTime>(0.25 * sim::kSecond));  // warm-up
  uint64_t before = 0;
  for (auto& d : drivers) {
    before += d->completed();
  }
  cluster.RunFor(static_cast<sim::SimTime>(seconds * sim::kSecond));
  uint64_t after = 0;
  uint64_t dropped = 0;
  for (auto& d : drivers) {
    after += d->completed();
    dropped += d->dropped();
    d->Stop();
  }
  std::printf(
      "%s: %u clients x %.0f puts/s offered (Zipfian), %u groups ->\n"
      "  %.0f req/s sustained (%.1f%% of offered; %llu shed by flow "
      "control)\n",
      desc->ToString().c_str(), o.clients, flags.GetDouble("rate"), o.groups,
      static_cast<double>(after - before) / seconds,
      100.0 * static_cast<double>(after - before) / seconds /
          (flags.GetDouble("rate") * o.clients),
      static_cast<unsigned long long>(dropped));
  return 0;
}

int RunRecover(FlagSet& flags) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.spares = 1;
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  // The victim's entries are keys homed on its coordinator shard, so it must
  // be a coordinator: no key hashes to a redundant node's id.
  const int64_t victim_flag = flags.GetInt("victim");
  if (victim_flag < 0 || victim_flag >= static_cast<int64_t>(o.s)) {
    std::fprintf(stderr, "--victim must be a coordinator node in [0, %u), "
                 "got %lld\n", o.s, static_cast<long long>(victim_flag));
    return 2;
  }
  const uint32_t victim = static_cast<uint32_t>(victim_flag);
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const int entries = static_cast<int>(flags.GetInt("entries"));
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  for (int i = 0; i < entries; ++i) {
    (void)cluster.Put(KeyInShard(victim, o.groups * o.s, i),
                      MakePatternBuffer(size, i), *g);
  }
  const uint64_t meta = cluster.server(victim).TotalMetadataBytes();
  const sim::SimTime killed_at = cluster.simulator().now();
  cluster.KillNode(victim, /*force_detect=*/true);
  auto& spare = cluster.server(o.s + o.d);
  if (!cluster.RunUntilDone([&] { return spare.serving(); })) {
    std::fprintf(stderr, "spare never started serving\n");
    return 1;
  }
  const double recovery_us =
      static_cast<double>(cluster.simulator().now() - killed_at) / 1e3;
  std::printf(
      "%s: killed node %u holding %.1f KiB metadata (%d entries x %zu B "
      "objects)\n  metadata recovery: %.1f us; first get after failover: ",
      desc->ToString().c_str(), victim, meta / 1024.0, entries, size,
      recovery_us);
  cluster.client(0).RefreshConfigNow();
  auto& client = cluster.client(0);
  client.ResetStats();
  auto got = cluster.Get(KeyInShard(victim, o.groups * o.s, 0));
  std::printf("%.1f us (%s)\n",
              client.latencies().empty() ? -1.0
                                         : client.latencies().values().back(),
              got.ok() ? "ok" : got.status().ToString().c_str());
  return 0;
}

// `ringctl reliability`: the Markov reliability model of SRS(3,2,s) under
// the paper's environment (§3.3: 10 failures per node-year, 600 GiB).
int RunReliability(FlagSet& flags) {
  const uint32_t stretch = static_cast<uint32_t>(flags.GetInt("stretch"));
  auto code = srs::SrsCode::Create(3, 2, stretch == 0 ? 3 : stretch);
  if (!code.ok()) {
    std::fprintf(stderr, "%s\n", code.status().ToString().c_str());
    return 1;
  }
  const reliability::Environment env;
  reliability::SrsModel model(*code, env);
  const double r = model.Reliability(1.0);
  const double a = model.IntervalAvailability(1.0);
  std::printf("SRS(%u,%u,%u), lambda=%.1f/yr, dataset=%.0f GiB:\n",
              code->k(), code->m(), code->s(), env.node_failure_rate,
              env.dataset_bytes / (1ULL << 30));
  std::printf("  annual reliability   %.10f (%.2f nines)\n", r,
              reliability::Nines(r));
  std::printf("  interval availability %.10f (%.2f nines)\n", a,
              reliability::Nines(a));
  std::printf("  storage overhead     %.2fx, tolerates >= %u failures\n",
              code->StorageOverhead(), code->m());
  return 0;
}

// `ringctl autotier`: run the adaptive resilience manager (threshold
// policy, SRS(3,2) cold tier) against a Zipf workload whose hotspot shifts
// by 80 keys every 30 ms, and report the storage it saves versus keeping
// every key in the hot scheme.
int RunAutotier(FlagSet& flags) {
  auto hot_desc = SchemeFromName(flags.GetString("scheme"));
  if (!hot_desc.ok()) {
    std::fprintf(stderr, "%s\n", hot_desc.status().ToString().c_str());
    return 1;
  }
  const MemgestDescriptor cold_desc =
      MemgestDescriptor::ErasureCoded(3, 2, "srs32");
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.groups = static_cast<uint32_t>(flags.GetInt("groups"));
  o.clients = 2;  // client 1 carries the manager's background moves
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.wire_jitter_ns = 400;
  // Large objects take > the default retry timeout on the simulated wire.
  o.params.client_retry_timeout_ns = 200 * sim::kMillisecond;
  RingCluster cluster(o);
  auto hot = cluster.CreateMemgest(*hot_desc);
  auto cold = cluster.CreateMemgest(cold_desc);
  if (!hot.ok() || !cold.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n",
                 (hot.ok() ? cold : hot).status().ToString().c_str());
    return 1;
  }

  policy::AutoTierOptions ao;
  ao.epoch_ns = 5 * sim::kMillisecond;
  ao.mover.moves_per_sec = 4000.0;
  ao.mover.client_index = 1;
  policy::AutoTierManager manager(
      &cluster,
      {policy::Tier{*hot, *hot_desc, cost::PriceTable{}.hot},
       policy::Tier{*cold, cold_desc, cost::PriceTable{}.cool}},
      ao);

  const int keys = static_cast<int>(flags.GetInt("keys"));
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  auto key_of = [](int i) { return "tier-" + std::to_string(i); };
  for (int i = 0; i < keys; ++i) {
    (void)cluster.Put(key_of(i), MakePatternBuffer(size, i), *hot);
  }
  const uint32_t num_nodes = o.groups * o.s + o.d;
  auto cluster_memory = [&] {
    uint64_t total = 0;
    for (net::NodeId n = 0; n < num_nodes; ++n) {
      total += cluster.server(n).LiveBytes();
    }
    return total;
  };
  const uint64_t all_hot = cluster_memory();
  manager.Start();

  // Closed-loop Zipf gets whose head rotates through the key space, so the
  // manager has to both demote the cold tail and chase the hotspot.
  const sim::SimTime period = 30 * sim::kMillisecond;
  const uint64_t shift = 80;
  workload::ZipfGenerator zipf(static_cast<uint64_t>(keys), 0.99);
  Rng rng(o.seed + 1);
  auto& client = cluster.client(0);
  client.ResetStats();
  const auto horizon = static_cast<sim::SimTime>(
      flags.GetDouble("seconds") * static_cast<double>(sim::kSecond));
  const sim::SimTime t0 = cluster.simulator().now();
  uint64_t gets = 0;
  while (cluster.simulator().now() - t0 < horizon) {
    const uint64_t offset = workload::HotspotOffset(
        cluster.simulator().now() - t0, period, shift);
    const uint64_t rank = (zipf.Next(rng) + offset) % keys;
    (void)cluster.Get(key_of(rank));
    ++gets;
  }
  cluster.RunFor(10 * sim::kMillisecond);  // drain queued moves + GC
  const uint64_t tiered = cluster_memory();
  const auto& mover = manager.mover();

  std::printf(
      "autotier %s <-> %s, %d keys x %zu B, hotspot rotating %llu keys "
      "every %.0f ms:\n",
      hot_desc->ToString().c_str(), cold_desc.ToString().c_str(), keys, size,
      static_cast<unsigned long long>(shift),
      static_cast<double>(period) / sim::kMillisecond);
  std::printf("  %llu closed-loop gets, get p99 %.2f us\n",
              static_cast<unsigned long long>(gets),
              client.latencies().empty() ? -1.0
                                         : client.latencies().Percentile(99));
  std::printf("  all-%s memory %9.1f KiB -> tiered %9.1f KiB (%.1f%% saved)\n",
              hot_desc->ToString().c_str(), all_hot / 1024.0, tiered / 1024.0,
              100.0 * (1.0 - static_cast<double>(tiered) / all_hot));
  std::printf(
      "  moves: %llu scheduled, %llu completed, %llu retried, %llu aborted\n",
      static_cast<unsigned long long>(mover.scheduled()),
      static_cast<unsigned long long>(mover.completed()),
      static_cast<unsigned long long>(mover.retried()),
      static_cast<unsigned long long>(mover.aborted()));
  std::printf("  realized storage+ops cost: %.4f $/month (threshold "
              "policy)\n",
              manager.RealizedStorageCost());
  manager.Stop();
  return 0;
}

// ringctl chaos | watch | report: plays a fault schedule against mixed
// traffic on one scheme and reports what the injector did, how the clients
// fared, and whether every acknowledged write survived byte-exactly. The
// schedule comes from --plan (the src/fault spec grammar, ';'-separated) or,
// when --plan is empty, from a seeded random generator — either way the run
// is deterministic and replayable from the command line that produced it.
//
// The three commands share one scenario and differ only in telemetry:
//   chaos   plain run, aggregate counters at the end
//   watch   time-series layer on; windowed SLI rows print as windows close
//   report  time-series + flight recorder on; post-mortem rendered after
//           the sweep (fault timeline, dips, recorder context)
enum class ChaosMode { kChaos, kWatch, kReport };

int RunChaos(FlagSet& flags, ChaosMode mode) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.spares = 2;
  o.clients = std::max(1u, static_cast<uint32_t>(flags.GetInt("clients")));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const uint32_t servers = o.s + o.d + o.spares;
  const uint64_t horizon =
      static_cast<uint64_t>(flags.GetDouble("seconds") * 1e9);
  const std::string spec = flags.GetString("plan");
  if (spec.empty()) {
    fault::ChaosShape shape;
    for (uint32_t n = 0; n < servers; ++n) {
      shape.faultable.push_back(n);
    }
    shape.num_nodes = servers + o.clients;
    shape.horizon_ns = horizon;
    shape.quiet_after_ns = horizon * 2 / 3;
    o.fault_plan = fault::RandomFaultPlan(o.seed * 31 + 7, shape);
  } else {
    auto plan = fault::ParseFaultPlan(spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "--plan: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    o.fault_plan = *plan;
  }
  o.fault_seed = o.seed;
  std::printf("fault plan:\n%s\n", o.fault_plan.ToString().c_str());

  RingCluster cluster(o);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  uint64_t window_ns = 0;
  if (mode != ChaosMode::kChaos) {
    obs::TimeSeries::Options tso;  // 1 ms windows
    // Retain the whole horizon (plus quiesce slack) so the report never
    // loses early windows to ring eviction.
    tso.capacity_windows =
        std::max<size_t>(512, horizon / tso.window_ns + 64);
    hub.timeseries().Configure(tso);
    hub.timeseries().TrackSliDefaults();
    hub.EnableTimeSeries(true);
    window_ns = hub.timeseries().window_ns();
    if (mode == ChaosMode::kReport) {
      hub.EnableRecorder(true);
    }
  }
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }

  // Live SLI view: after each traffic step, print every window that has
  // fully closed since the last print. Availability is judged against the
  // median acked-op rate over the rows so far (same rule as the report).
  uint64_t printed_until = 0;  // exclusive window index
  bool sli_header = false;
  auto watch_tick = [&] {
    if (mode != ChaosMode::kWatch) {
      return;
    }
    const uint64_t closed = cluster.simulator().now() / window_ns;
    if (closed <= printed_until) {
      return;
    }
    obs::TimeSeries::SliOptions so;
    // Only fully-closed windows, and nothing past the traffic horizon — the
    // post-quiesce sweep offers no load, so its windows say nothing about
    // availability. until_ns is window-inclusive; back off 1 ns to keep the
    // still-open (and first post-horizon) window out.
    so.until_ns = std::min(closed * window_ns, horizon) - 1;
    for (const auto& row : hub.timeseries().Slis(so)) {
      if (row.window < printed_until) {
        continue;
      }
      if (!sli_header) {
        std::printf("      t_ms       ok      err    goodput/s    err%%     "
                    "p50_us     p99_us  avail\n");
        sli_header = true;
      }
      std::printf("  %8.1f %8" PRIu64 " %8" PRIu64
                  " %12.0f %6.1f%% %10.1f %10.1f  %s\n",
                  static_cast<double>(row.start_ns) / 1e6, row.ops_ok,
                  row.ops_err, row.goodput_per_sec, row.error_rate * 100.0,
                  static_cast<double>(row.p50_ns) / 1e3,
                  static_cast<double>(row.p99_ns) / 1e3,
                  row.available ? "ok" : "DIP");
    }
    printed_until = closed;
  };

  // Mixed open-loop traffic across the schedule's horizon; every ack is
  // remembered for the post-quiesce sweep.
  const int reps = static_cast<int>(flags.GetInt("reps"));
  const int nkeys = std::max(1, static_cast<int>(flags.GetInt("keys")));
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  Rng rng(o.seed * 7919 + 3);
  std::map<Key, std::map<Version, uint64_t>> acked;  // key -> version -> tag
  uint64_t puts_ok = 0, puts_failed = 0, gets_ok = 0, gets_failed = 0;
  int outstanding = 0;
  const sim::SimTime gap = horizon / std::max(1, reps);
  for (int op = 0; op < reps; ++op) {
    const uint32_t c = static_cast<uint32_t>(rng.NextBelow(o.clients));
    const Key key = "chaos-" + std::to_string(rng.NextBelow(nkeys));
    if (rng.NextBernoulli(0.5)) {
      const uint64_t tag = rng.NextU64();
      auto value = std::make_shared<Buffer>(MakePatternBuffer(size, tag));
      ++outstanding;
      cluster.client(c).Put(key, value, *g,
                            [&, key, tag](Status s, Version v) {
                              --outstanding;
                              if (s.ok()) {
                                ++puts_ok;
                                acked[key][v] = tag;
                              } else {
                                ++puts_failed;
                              }
                            });
    } else {
      ++outstanding;
      cluster.client(c).Get(key, [&](GetResult r) {
        --outstanding;
        r.status.ok() ? ++gets_ok : ++gets_failed;
      });
    }
    cluster.RunFor(gap);
    watch_tick();
  }
  for (int i = 0; i < 400 && outstanding > 0; ++i) {
    cluster.RunFor(sim::kMillisecond);
    watch_tick();
  }
  const auto& p = cluster.simulator().params();
  cluster.RunFor(2 * p.detection_window_ns() + 20 * sim::kMillisecond);
  watch_tick();

  // Post-quiesce sweep: every key with at least one acknowledged write must
  // read back bytes matching some acknowledged version.
  uint64_t sweep_ok = 0, sweep_bad = 0;
  for (const auto& [key, versions] : acked) {
    bool done = false;
    cluster.client(0).Get(key, [&, key](GetResult r) {
      done = true;
      if (!r.status.ok()) {
        ++sweep_bad;
        std::printf("  SWEEP VIOLATION: %s (%s)\n", key.c_str(),
                    r.status.ToString().c_str());
        return;
      }
      auto it = versions.find(r.version);
      if (it == versions.end()) {
        ++sweep_ok;  // version newer than any ack: an in-flight put landed
      } else if (*r.data == MakePatternBuffer(size, it->second)) {
        ++sweep_ok;
      } else {
        ++sweep_bad;
        std::printf("  SWEEP VIOLATION: %s (bytes mismatch at v%llu)\n",
                    key.c_str(), static_cast<unsigned long long>(r.version));
      }
    });
    for (int i = 0; i < 200 && !done; ++i) {
      cluster.RunFor(sim::kMillisecond);
    }
    if (!done) {
      ++sweep_bad;
      std::printf("  SWEEP VIOLATION: %s (get hung)\n", key.c_str());
    }
  }

  std::printf("traffic: %llu/%llu puts acked, %llu/%llu gets ok\n",
              static_cast<unsigned long long>(puts_ok),
              static_cast<unsigned long long>(puts_ok + puts_failed),
              static_cast<unsigned long long>(gets_ok),
              static_cast<unsigned long long>(gets_ok + gets_failed));
  std::printf("sweep:   %llu keys verified, %llu violations\n",
              static_cast<unsigned long long>(sweep_ok),
              static_cast<unsigned long long>(sweep_bad));
  const auto& f = cluster.runtime().injector()->counters();
  std::printf("injected: dropped %llu (+%llu partition), duplicated %llu, "
              "delayed %llu, deferred %llu\n"
              "          pauses %llu, crashes %llu, recoveries %llu, "
              "partitions %llu\n",
              static_cast<unsigned long long>(f.dropped),
              static_cast<unsigned long long>(f.partition_dropped),
              static_cast<unsigned long long>(f.duplicated),
              static_cast<unsigned long long>(f.delayed),
              static_cast<unsigned long long>(f.deferred),
              static_cast<unsigned long long>(f.pauses),
              static_cast<unsigned long long>(f.crashes),
              static_cast<unsigned long long>(f.recoveries),
              static_cast<unsigned long long>(f.partitions));
  if (mode == ChaosMode::kReport) {
    obs::ReportOptions ro;
    // The traffic stops at the horizon; windows after it would read as a
    // spurious never-recovered dip (until_ns is window-inclusive, so back
    // off 1 ns from the boundary).
    ro.sli.until_ns = horizon - 1;
    std::printf("\n%s",
                obs::PostMortemReport(hub.timeseries(), hub.recorder(), ro)
                    .c_str());
  }
  return sweep_bad == 0 ? 0 : 1;
}

// `ringctl cluster <status|add|remove>`: online elastic resize (§13).
void PrintClusterTable(RingCluster& cluster, uint32_t num_servers) {
  const net::NodeId leader = cluster.runtime().leader_node();
  const consensus::ClusterConfig& cfg =
      cluster.runtime().membership().ConfigView(leader);
  std::printf("cluster: epoch %llu, shape s=%u d=%u groups=%u%s\n",
              static_cast<unsigned long long>(cfg.epoch), cfg.s, cfg.d,
              cfg.groups,
              cfg.rebalancing() ? " (rebalancing from previous shape)" : "");
  std::printf("  %-5s %-6s %-8s %s\n", "node", "slot", "role", "state");
  for (net::NodeId n = 0; n < num_servers; ++n) {
    const int32_t slot = n < cfg.slot_of_node.size()
                             ? cfg.slot_of_node[n]
                             : consensus::kSpareSlot;
    const bool failed = n < cfg.failed.size() && cfg.failed[n];
    const char* role =
        failed ? "failed"
               : (slot == consensus::kSpareSlot
                      ? "spare"
                      : (static_cast<uint32_t>(slot) < cfg.s ? "coord"
                                                             : "redund"));
    char slot_buf[16];
    if (slot == consensus::kSpareSlot) {
      std::snprintf(slot_buf, sizeof(slot_buf), "-");
    } else {
      std::snprintf(slot_buf, sizeof(slot_buf), "%d", slot);
    }
    std::printf("  %-5u %-6s %-8s %s%s\n", n, slot_buf, role,
                cluster.server(n).serving() ? "serving" : "idle",
                n == leader ? " (config leader)" : "");
  }
}

int RunCluster(FlagSet& flags, const std::string& action) {
  auto desc = SchemeFromName(flags.GetString("scheme"));
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  RingOptions o;
  o.s = static_cast<uint32_t>(flags.GetInt("shards"));
  o.d = static_cast<uint32_t>(flags.GetInt("redundant"));
  o.spares = 2;
  o.clients = 2;
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.params.wire_jitter_ns = 400;
  const uint32_t num_servers = o.s + o.d + o.spares;
  RingCluster cluster(o);
  auto g = cluster.CreateMemgest(*desc);
  if (!g.ok()) {
    std::fprintf(stderr, "createMemgest: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const int keys = std::max(1, static_cast<int>(flags.GetInt("keys")));
  const size_t size = static_cast<size_t>(flags.GetInt("size"));
  for (int i = 0; i < keys; ++i) {
    if (!cluster.Put("el-" + std::to_string(i), MakePatternBuffer(size, i), *g)
             .ok()) {
      std::fprintf(stderr, "load put %d failed\n", i);
      return 1;
    }
  }
  if (action == "status") {
    PrintClusterTable(cluster, num_servers);
    return 0;
  }

  const bool grow = action == "add";
  const int count = std::max(1, static_cast<int>(flags.GetInt("count")));
  for (int i = 0; i < count; ++i) {
    membership::RebalanceCoordinator coord(&cluster);
    const net::NodeId leader = cluster.runtime().leader_node();
    const consensus::ClusterConfig& cfg =
        cluster.runtime().membership().ConfigView(leader);
    const uint32_t from_s = cfg.s;
    bool accepted = false;
    if (grow) {
      const int32_t spare = cfg.FindSpare();
      if (spare < 0) {
        std::fprintf(stderr, "no live spare to add (shape s=%u)\n", cfg.s);
        return 1;
      }
      accepted = coord.AddServer(static_cast<net::NodeId>(spare));
    } else {
      if (cfg.s <= 1) {
        std::fprintf(stderr, "cannot shrink below one coordinator\n");
        return 1;
      }
      accepted = coord.RemoveServer(cfg.s - 1);
    }
    if (!accepted) {
      std::fprintf(stderr, "%s rejected (another transition in flight?)\n",
                   action.c_str());
      return 1;
    }
    // Probe reads against the population while the drain runs: the resize
    // must stay online.
    Samples during_us;
    int probe_seq = 0;
    while (coord.active()) {
      const Key key = "el-" + std::to_string(probe_seq++ % keys);
      const sim::SimTime start = cluster.simulator().now();
      cluster.client(1).Get(key, [&](GetResult r) {
        if (r.status.ok()) {
          during_us.Add(
              static_cast<double>(cluster.simulator().now() - start) / 1e3);
        }
      });
      cluster.RunFor(100 * sim::kMicrosecond);
    }
    if (coord.failed()) {
      std::fprintf(stderr, "%s %u -> %u FAILED to drain\n", action.c_str(),
                   from_s, grow ? from_s + 1 : from_s - 1);
      return 1;
    }
    const auto& st = coord.stats();
    std::printf(
        "%s: s %u -> %u drained in %.2f ms (%llu keys moved, %llu "
        "re-encoded, %.1f KiB shipped, %llu scan rounds); reads during "
        "drain p50 %.1f us p99 %.1f us\n",
        action.c_str(), from_s, grow ? from_s + 1 : from_s - 1,
        static_cast<double>(st.end_ns - st.start_ns) / 1e6,
        static_cast<unsigned long long>(st.keys_moved),
        static_cast<unsigned long long>(st.keys_reencoded),
        st.bytes_moved / 1024.0,
        static_cast<unsigned long long>(st.scan_rounds),
        during_us.empty() ? 0.0 : during_us.Percentile(50),
        during_us.empty() ? 0.0 : during_us.Percentile(99));
    cluster.RunFor(2 * sim::kMillisecond);  // let stragglers clear
  }

  // Read back every key: an online resize must not lose or corrupt data.
  uint64_t bad = 0;
  for (int i = 0; i < keys; ++i) {
    auto got = cluster.Get("el-" + std::to_string(i));
    if (!got.ok() || *got != MakePatternBuffer(size, i)) {
      ++bad;
    }
  }
  std::printf("verify: %d keys read back, %llu mismatches\n", keys,
              static_cast<unsigned long long>(bad));
  PrintClusterTable(cluster, num_servers);
  return bad == 0 ? 0 : 1;
}

int RunSchemes(FlagSet& flags) {
  const uint32_t s = static_cast<uint32_t>(flags.GetInt("shards"));
  const uint32_t d = static_cast<uint32_t>(flags.GetInt("redundant"));
  // §3.3: "the total number of different erasure coded storage schemes with
  // given s equals s(s-1)/2" (k in 2..s, m in 1..min(k-1, d)) — plus the
  // replication family.
  std::printf("memgests available on an s=%u, d=%u group:\n", s, d);
  std::printf("  replication: Rep(1..%u)\n", s + d);
  int count = 0;
  std::printf("  erasure coded:");
  for (uint32_t k = 2; k <= s; ++k) {
    for (uint32_t m = 1; m < k && m <= d; ++m) {
      std::printf(" SRS(%u,%u,%u)", k, m, s);
      ++count;
    }
  }
  std::printf("\n  -> %d erasure-coded schemes (s(s-1)/2 = %u without the "
              "m <= d bound), %u replicated\n",
              count, s * (s - 1) / 2, s + d);
  return 0;
}

// `ringctl mc`: explore a preset scenario's schedule space, or replay a
// minimized counterexample spec.
//
//   ringctl mc --scenario=wedged-write                    -> exit 3, spec out
//   ringctl mc --scenario=wedged-write --inject-bug=false -> exit 0 (clean)
//   ringctl mc --replay=counterexample.mcspec             -> byte-identity
//
// Exit codes: 0 = clean space / replay matched the spec's expectations,
// 3 = violation found (minimized spec written to --spec-out or stdout),
// 1 = replay mismatch, 2 = bad flags. CI runs the clean legs as hard gates
// and uploads the spec artifact when one unexpectedly finds a violation.
int RunMcReplay(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "mc: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  const Result<mc::ScheduleSpec> spec = mc::ScheduleSpec::Parse(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "mc: %s\n", spec.status().message().c_str());
    return 2;
  }
  const mc::TraceResult run = mc::Replay(*spec);
  std::printf("replay: %llu steps, schedule 0x%016llx, digest 0x%016llx\n",
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.schedule_hash),
              static_cast<unsigned long long>(run.final_digest));
  if (run.diverged) {
    std::printf("FAIL: schedule diverged from the spec's decisions\n");
    return 1;
  }
  if (run.violation != spec->expect_violation) {
    std::printf("FAIL: violation '%s' (%s), spec expects '%s'\n",
                run.violation.c_str(), run.violation_detail.c_str(),
                spec->expect_violation.c_str());
    return 1;
  }
  if (spec->expect_digest != 0 && run.final_digest != spec->expect_digest) {
    std::printf("FAIL: digest 0x%016llx, spec expects 0x%016llx\n",
                static_cast<unsigned long long>(run.final_digest),
                static_cast<unsigned long long>(spec->expect_digest));
    return 1;
  }
  if (!run.violation.empty()) {
    std::printf("violation reproduced: %s (%s)\n", run.violation.c_str(),
                run.violation_detail.c_str());
  }
  std::printf("OK: replay matches the spec\n");
  return 0;
}

int RunMc(FlagSet& flags) {
  const std::string replay = flags.GetString("replay");
  if (!replay.empty()) {
    return RunMcReplay(replay);
  }
  const bool inject = flags.GetBool("inject-bug");
  const Result<mc::McScenario> sc =
      mc::PresetScenario(flags.GetString("scenario"), inject);
  if (!sc.ok()) {
    std::fprintf(stderr, "mc: %s\n", sc.status().message().c_str());
    return 2;
  }
  mc::ExplorerOptions opts;  // DPOR + sleep sets + state dedup
  opts.max_traces = 5000;
  std::printf("mc: scenario '%s' (%s), bug %s, budget %llu traces, "
              "dpor+sleep\n",
              sc->name.c_str(), sc->description.c_str(),
              inject ? "injected" : "off",
              static_cast<unsigned long long>(opts.max_traces));
  const mc::ExploreResult res = mc::Explorer(sc->config, opts).Explore();
  std::printf("mc: %llu traces over %llu fault skeletons, %llu deduped, "
              "%zu distinct final states\n",
              static_cast<unsigned long long>(res.traces),
              static_cast<unsigned long long>(res.skeletons),
              static_cast<unsigned long long>(res.dedup_hits),
              res.fingerprints.size());
  if (!res.found) {
    std::printf("mc: no violation found\n");
    return 0;
  }
  std::printf("mc: VIOLATION %s: %s\n", res.violation.c_str(),
              res.violation_detail.c_str());
  const std::string text = res.counterexample.ToString();
  const std::string out = flags.GetString("spec-out");
  if (out.empty()) {
    std::printf("%s", text.c_str());
  } else {
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "mc: cannot write '%s'\n", out.c_str());
      return 2;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("mc: minimized spec written to %s (replay with "
                "`ringctl mc --replay=%s`)\n",
                out.c_str(), out.c_str());
  }
  return 3;
}

int Main(int argc, char** argv) {
  FlagSet flags(
      "ringctl "
      "<latency|throughput|recover|reliability|schemes|stats|simstats|trace|"
      "autotier|chaos|watch|report|mc|cluster <status|add|remove>>");
  flags.DefineString("scheme", "rep3", "storage scheme: repN or srsKM")
      .DefineString("plan", "",
                    "chaos: fault schedule spec (';'-separated directives, "
                    "see src/fault/fault.h; empty = seeded random plan)")
      .DefineString("trace_out", "",
                    "write a Chrome trace_event JSON file (latency/trace)")
      .DefineInt("shards", 3, "coordinator shards per group (s)")
      .DefineInt("redundant", 2, "redundant slots (d)")
      .DefineInt("groups", 1, "rotated memgest groups (1 = paper layout)")
      .DefineInt("clients", 1, "load-generating clients")
      .DefineInt("size", 1024, "object size in bytes")
      .DefineInt("reps", 1000, "closed-loop repetitions")
      .DefineInt("keys", 2000, "distinct keys in the workload")
      .DefineInt("entries", 2000, "objects on the victim shard (recover)")
      .DefineInt("victim", 1, "coordinator node to kill (recover)")
      .DefineInt("count", 1, "transitions to perform (cluster add/remove)")
      .DefineInt("seed", 7, "deterministic simulation seed")
      .DefineInt("stretch", 0, "SRS(3,2) stretch s (0 = 3, i.e. plain RS)")
      .DefineDouble("rate", 200000, "offered load per client, req/s")
      .DefineDouble("seconds", 1.0, "measurement window, simulated seconds")
      .DefineBool("json", false, "machine-readable output (calibrate, stats)")
      .DefineBool("prom", false,
                  "Prometheus text exposition instead of the summary (stats)")
      .DefineString("scenario", "wedged-write",
                    "mc: preset schedule space (wedged-write, "
                    "single-source-recovery, gc-revalidate)")
      .DefineBool("inject-bug", true,
                  "mc: re-introduce the scenario's seed-era bug; with "
                  "--inject-bug=false the same space must explore clean")
      .DefineString("replay", "",
                    "mc: replay a minimized counterexample spec file and "
                    "verify byte-identity instead of exploring")
      .DefineString("spec-out", "",
                    "mc: write the minimized counterexample spec here "
                    "(default: stdout)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  const std::string command = flags.positional()[0];
  // `cluster` takes a sub-action as a second positional; every other
  // command takes exactly one.
  if (flags.positional().size() > (command == "cluster" ? 2u : 1u)) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  if (command == "cluster") {
    const std::string action = flags.positional().size() > 1
                                   ? flags.positional()[1]
                                   : std::string("status");
    if (action != "status" && action != "add" && action != "remove") {
      std::fprintf(stderr,
                   "cluster action must be status, add or remove (got '%s')\n",
                   action.c_str());
      return 2;
    }
    return RunCluster(flags, action);
  }
  if (command == "latency") {
    return RunLatency(flags);
  }
  if (command == "throughput") {
    return RunThroughput(flags);
  }
  if (command == "recover") {
    return RunRecover(flags);
  }
  if (command == "reliability") {
    return RunReliability(flags);
  }
  if (command == "schemes") {
    return RunSchemes(flags);
  }
  if (command == "stats") {
    return RunStats(flags);
  }
  if (command == "simstats") {
    return RunSimstats(flags);
  }
  if (command == "trace") {
    return RunTrace(flags);
  }
  if (command == "autotier") {
    return RunAutotier(flags);
  }
  if (command == "calibrate") {
    return RunCalibrate(flags);
  }
  if (command == "chaos") {
    return RunChaos(flags, ChaosMode::kChaos);
  }
  if (command == "watch") {
    return RunChaos(flags, ChaosMode::kWatch);
  }
  if (command == "report") {
    return RunChaos(flags, ChaosMode::kReport);
  }
  if (command == "mc") {
    return RunMc(flags);
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
               flags.Usage().c_str());
  return 2;
}

}  // namespace
}  // namespace ring

int main(int argc, char** argv) { return ring::Main(argc, argv); }
