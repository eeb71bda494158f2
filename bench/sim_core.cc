// Simulator-core benchmark: events/sec of the discrete-event fast path.
//
// Drives the scheduler core (EventQueue + Task captures) with a fig9-style
// synthetic RPC mix: closed-loop clients, a request hop, a coordinator
// serve step, a fan-out of replica apply/ack hops, and a reply — every hop
// a scheduled event whose closure carries the op context (ids plus a
// fixed-size key image, sized to overflow Task's inline buffer exactly
// like protocol request captures do). Each op additionally parks retry/SLA
// timers 50-200 ms out that fire long after completion and no-op — the
// far-future population that client timeouts, heartbeats, and failure
// detectors pin in the queue of every fig-scale run.
//
// No protocol logic, no per-event allocation, and no observability
// bookkeeping runs in the loop, so the number is the cost of the calendar
// queue plus pooled captures alone. Emits JSON on stdout (committed as
// BENCH_sim.json).
//
// Usage: sim_core [--quick]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace {

using ring::sim::SimTime;
using ring::sim::Simulator;
using ring::sim::Task;
using ring::sim::TaskPool;

struct Config {
  const char* name;
  uint32_t servers;
  uint32_t clients;
  uint32_t keys;
  uint64_t ops;        // total completed operations
  uint32_t depth;      // outstanding ops per client (closed loop)
  uint32_t value_bytes;
  uint32_t replicas;   // replica apply/ack hops fanned out per op
  uint32_t timers;     // long timers parked per op: retry and SLA-probe
                       // timers per request plus a retransmit timer per
                       // replica (the large config adds a membership-probe
                       // timer on top)
};

struct Result {
  uint64_t events = 0;
  SimTime final_now = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  uint64_t pool_hit_rate_pct = 0;
  size_t depth_high_water = 0;
};

// One closed-loop run of the synthetic RPC mix on a fresh simulator.
Result RunOnce(const Config& cfg) {
  Simulator sim(/*seed=*/7);

  // Key images sized like real protocol keys; the op closures carry one by
  // value, putting them past Task's 48-byte inline buffer.
  std::vector<std::string> keys;
  keys.reserve(cfg.keys);
  for (uint32_t i = 0; i < cfg.keys; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key-%010u", i);
    keys.emplace_back(buf);
  }

  TaskPool::ResetStats();

  struct State {
    uint64_t issued = 0;
    uint64_t completed = 0;
  };
  State st;

  // Out-of-line op context: ids + key image (68 bytes > kInlineBytes).
  struct OpCtx {
    uint64_t id = 0;
    uint32_t client = 0;
    uint32_t coord = 0;
    uint64_t serve_ns = 0;
    char key[44] = {};
  };

  struct Issuer {
    Simulator* sim;
    const Config* cfg;
    std::vector<std::string>* keys;
    State* st;

    // Client issue -> request hop -> coordinator serve -> `replicas` x
    // (apply hop + ack hop) -> reply hop -> next op. Wire hops are
    // microsecond-scale (they live in the fine wheel); the parked timers
    // land 50-200 ms out (the coarse wheel).
    void IssueOp(uint32_t client) {
      if (st->issued >= cfg->ops) {
        return;
      }
      OpCtx op;
      op.id = st->issued++;
      op.client = client;
      op.coord = static_cast<uint32_t>(op.id % cfg->servers);
      op.serve_ns = 1200 + 2ull * cfg->value_bytes;
      const std::string& key = (*keys)[op.id % keys->size()];
      std::memcpy(op.key, key.data(),
                  key.size() < sizeof(op.key) ? key.size() : sizeof(op.key));
      auto self = this;
      sim->After(600, Task([self, op] {
        // Parked far-future timers: retry at 200 ms plus evenly spread
        // probe timers, all no-ops by the time they fire.
        for (uint32_t t = 0; t < self->cfg->timers; ++t) {
          const uint64_t id = op.id;
          self->sim->After((200 - 50ull * (t % 4)) * ring::sim::kMillisecond,
                           Task([id] { (void)id; }));
        }
        self->sim->After(1700, Task([self, op] { self->ServeOp(op); }));
      }));
    }

    void ServeOp(const OpCtx& op) {
      auto self = this;
      sim->After(op.serve_ns, Task([self, op] {
        for (uint32_t r = 0; r < self->cfg->replicas; ++r) {
          uint64_t keysum = 0;
          std::memcpy(&keysum, op.key, sizeof(keysum));
          // Replica apply: a small inline capture, like the CPU model's
          // thin completion events.
          self->sim->After(1500 + 10ull * r, Task([keysum] { (void)keysum; }));
          // Replica ack: identical hops complete in issue order, so the
          // last ack carries the reply leg.
          const bool last = r + 1 == self->cfg->replicas;
          self->sim->After(
              3000 + 10ull * r,
              last ? Task([self, op] {
                self->sim->After(1500, Task([self, op] {
                  ++self->st->completed;
                  self->IssueOp(op.client);  // closed loop
                }));
              })
                   : Task([self, op] { (void)op.id; }));
        }
      }));
    }
  };

  Issuer issuer{&sim, &cfg, &keys, &st};
  for (uint32_t c = 0; c < cfg.clients; ++c) {
    for (uint32_t d = 0; d < cfg.depth; ++d) {
      issuer.IssueOp(c);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.events = sim.events_executed();
  r.final_now = sim.now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s
                                  : 0.0;
  r.pool_hit_rate_pct = TaskPool::stats().hit_rate_pct();
  r.depth_high_water = sim.queue().depth_high_water();
  if (st.completed != cfg.ops) {
    std::fprintf(stderr, "FATAL: %s completed %llu/%llu ops\n", cfg.name,
                 static_cast<unsigned long long>(st.completed),
                 static_cast<unsigned long long>(cfg.ops));
    std::exit(1);
  }
  return r;
}

// The fastest of `reps` runs: the simulated schedule is deterministic, so
// runs differ only by host jitter (faults, frequency, neighbours) and
// best-of-N is the steady-state cost.
Result RunBest(const Config& cfg, int reps) {
  Result best;
  for (int i = 0; i < reps; ++i) {
    Result r = RunOnce(cfg);
    if (i == 0 || r.wall_s < best.wall_s) {
      best = r;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }

  // "fig9" mirrors the paper's testbed scale (12 server nodes, saturating
  // clients); "large" stresses the far-future tier and capture allocator at
  // cluster scale (100 nodes, 1M keys).
  std::vector<Config> configs = {
      {"fig9", 12, 16, 100000, quick ? 40000u : 400000u, 8, 1024, 2, 5},
      {"large", 100, 32, 1000000, quick ? 30000u : 300000u, 4, 256, 2, 6},
  };

  std::printf("{\n  \"bench\": \"sim_core\",\n  \"configs\": [\n");
  const int reps = quick ? 1 : 3;
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    const Result r = RunBest(cfg, reps);
    std::printf("    {\"name\": \"%s\", \"servers\": %u, \"clients\": %u, "
                "\"keys\": %u, \"ops\": %llu, \"replicas\": %u, "
                "\"timers_per_op\": %u,\n",
                cfg.name, cfg.servers, cfg.clients, cfg.keys,
                static_cast<unsigned long long>(cfg.ops), cfg.replicas,
                cfg.timers);
    std::printf("     \"events\": %llu, \"final_now_ns\": %llu, "
                "\"wall_s\": %.3f, \"events_per_sec\": %.0f, "
                "\"pool_hit_rate_pct\": %llu, "
                "\"queue_depth_high_water\": %zu}%s\n",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.final_now), r.wall_s,
                r.events_per_sec,
                static_cast<unsigned long long>(r.pool_hit_rate_pct),
                r.depth_high_water, i + 1 == configs.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
