// Deterministic, seed-driven fault injection for the simulated fabric.
//
// The paper's evaluation (and the RDMA-agreement literature it leans on)
// assumes more than clean fail-stop: links lose and duplicate packets,
// switches partition, processes wedge without dying (gray failure), and
// crashed nodes come back memory-less. A FaultPlan scripts those events on
// the simulated cluster; a FaultInjector executes the plan against
// net::Fabric with its *own* Rng stream so that
//   - with no plan installed the simulation is byte-identical to a build
//     without this library (a single null-pointer branch per message), and
//   - with a plan, the whole chaotic run replays byte-exactly from the
//     (plan, seed) pair.
#ifndef RING_SRC_FAULT_FAULT_H_
#define RING_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace ring::fault {

// Wildcard endpoint in a LinkFault ("*" in the text form).
inline constexpr uint32_t kAnyNode = 0xffffffffu;

// One stochastic impairment on a directed link (src -> dst), active for
// messages issued in [from_ns, until_ns). Probabilities are rolled per
// message on the injector's private Rng.
struct LinkFault {
  uint32_t src = kAnyNode;
  uint32_t dst = kAnyNode;
  uint64_t from_ns = 0;
  uint64_t until_ns = UINT64_MAX;
  // Message vanishes (two-sided: the request; one-sided: the whole verb —
  // the issuer never sees a completion, as with a torn QP connection).
  double drop_prob = 0.0;
  // Two-sided message delivered twice (receive-side retransmit artifact).
  // One-sided verbs are never duplicated: reliable-connection QPs hide
  // NIC-level retransmission from remote memory.
  double dup_prob = 0.0;
  // Deterministic extra one-way latency plus uniform jitter on top.
  uint64_t delay_ns = 0;
  uint64_t delay_jitter_ns = 0;
  // With probability reorder_prob the message is additionally held back a
  // uniform draw from [0, reorder_window_ns), letting later messages pass it.
  double reorder_prob = 0.0;
  uint64_t reorder_window_ns = 0;
};

// A scheduled cluster event. Partitions cut every link between side_a and
// side_b (both directions) until healed; pause wedges a node's CPU progress
// while its NIC stays alive (gray failure); crash kills the node and a later
// recover restarts it memory-less to rejoin via the spare/recovery path;
// revoke reports the node as a failure suspect to the membership layer's
// revoke-then-promote path (§16) — a false suspicion when the node is
// actually healthy, exercising lease fencing + readmission.
struct NodeEvent {
  enum class Kind : uint8_t {
    kPartition,
    kHeal,
    kPause,
    kResume,
    kCrash,
    kRecover,
    kRevoke,
  };
  Kind kind = Kind::kPartition;
  uint64_t at_ns = 0;
  uint32_t node = kAnyNode;  // pause/resume/crash/recover
  std::vector<uint32_t> side_a;  // partition/heal
  std::vector<uint32_t> side_b;
};

std::string_view NodeEventKindName(NodeEvent::Kind kind);

// A full fault schedule: stochastic link impairments plus scheduled node
// events. Build programmatically, parse from the ringctl text form, or
// generate randomly from a seed (chaos testing).
struct FaultPlan {
  std::vector<LinkFault> links;
  std::vector<NodeEvent> events;

  bool empty() const { return links.empty() && events.empty(); }

  // Text round-trip: ToString() emits one directive per line in the grammar
  // ParseFaultPlan accepts.
  std::string ToString() const;
};

// Parses the ringctl fault-spec grammar. Directives are separated by ';' or
// newlines; '#' comments to end of line. Times take ns/us/ms/s suffixes
// (bare numbers are ns); endpoints are node ids or '*'.
//
//   drop src=<n|*> dst=<n|*> p=<prob> [from=<t>] [until=<t>]
//   dup src=<n|*> dst=<n|*> p=<prob> [from=<t>] [until=<t>]
//   delay src=<n|*> dst=<n|*> ns=<t> [jitter=<t>] [from=<t>] [until=<t>]
//   reorder src=<n|*> dst=<n|*> p=<prob> window=<t> [from=<t>] [until=<t>]
//   partition a=<n,n,...> b=<n,n,...> at=<t> [heal=<t>]
//   pause node=<n> at=<t> [resume=<t>]
//   crash node=<n> at=<t> [recover=<t>]
//   revoke node=<n> at=<t>
Result<FaultPlan> ParseFaultPlan(std::string_view spec);

// Shape of a randomly generated chaos schedule. The generator keeps at most
// one server impaired at a time and quiesces everything (heal / resume /
// recover / expire) by quiet_after_ns so a post-run consistency sweep sees a
// healthy cluster.
struct ChaosShape {
  // Nodes eligible for pause/crash/partition (typically servers + spares;
  // keep clients out so the traffic driver itself survives).
  std::vector<uint32_t> faultable;
  // All node ids that link faults may touch (servers and clients).
  uint32_t num_nodes = 0;
  uint64_t horizon_ns = 0;      // plan covers [0, horizon)
  uint64_t quiet_after_ns = 0;  // no fault active at or past this time
  uint32_t link_faults = 3;
  uint32_t node_events = 2;
  double max_drop_prob = 0.3;
  double max_dup_prob = 0.3;
  bool allow_crash = true;  // needs a spare-capable cluster to be safe
  bool allow_pause = true;
  // Extra `revoke` suspicion events (§16) sprinkled over the horizon.
  // Each revocation consumes spare capacity like a crash: a false suspicion
  // fences a healthy node out until readmission, so the generator gates it
  // on the same spare budget. 0 (the default) keeps pre-existing
  // (seed, shape) pairs byte-identical.
  uint32_t revocations = 0;
  // Live spares of the target cluster. allow_crash is only honored when at
  // least one spare can absorb the promotion; 0 downgrades crash episodes
  // to pauses at generation time. kAnyNode (the default) means "unknown —
  // trust allow_crash", which keeps pre-existing plans byte-identical.
  uint32_t spare_capacity = kAnyNode;
};

// Deterministic: same (seed, shape) -> same plan.
FaultPlan RandomFaultPlan(uint64_t seed, const ChaosShape& shape);

// Per-message injection decision.
struct Verdict {
  bool drop = false;
  bool duplicate = false;
  uint64_t extra_delay_ns = 0;  // added to the arrival time
  uint64_t dup_delay_ns = 0;    // arrival offset of the duplicate copy
};

// Executes a FaultPlan against one simulation. The fabric consults it per
// message; RingRuntime wires the node-event hooks (crash/recover/resume).
class FaultInjector {
 public:
  struct Hooks {
    std::function<void(uint32_t)> crash;     // fail-stop the node
    std::function<void(uint32_t)> recover;   // restart memory-less + rejoin
    std::function<void(uint32_t)> resumed;   // gray-failure pause ended
    std::function<void(uint32_t)> revoke;    // §16 fast-path suspicion report
  };

  struct Counters {
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t delayed = 0;
    uint64_t partition_dropped = 0;
    uint64_t deferred = 0;  // deliveries buffered at a paused receiver
    uint64_t pauses = 0;
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    uint64_t partitions = 0;
    // Crash events the guard downgraded to pauses (no live spare to absorb
    // the promotion); their paired recover became a resume.
    uint64_t downgraded_crashes = 0;
    // §16 revoke events delivered to the suspicion hook.
    uint64_t revocations = 0;
  };

  FaultInjector(sim::Simulator* simulator, uint32_t num_nodes, FaultPlan plan,
                uint64_t seed);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // Crash-safety guard, consulted when a kCrash event fires: returns true
  // when fail-stopping `node` is survivable (a spare can absorb the
  // promotion). When it returns false the crash is downgraded to a pause
  // and the paired recover to a resume, so a chaos schedule can never
  // wedge the cluster in an unrecoverable state. Unset = always allowed.
  using CrashGuard = std::function<bool(uint32_t)>;
  void set_crash_guard(CrashGuard guard) { crash_guard_ = std::move(guard); }

  // Schedules every NodeEvent on the simulator. Call once, before running.
  void Arm();

  // Gray failure: the node's CPU makes no progress but its NIC serves
  // one-sided traffic and buffered receives survive until resume.
  bool paused(uint32_t node) const { return paused_[node] != 0; }

  // True when an un-healed partition separates a from b.
  bool partitioned(uint32_t a, uint32_t b) const {
    return cut_active_ != 0 && cut_[a * num_nodes_ + b] != 0;
  }

  // Rolls link faults for one message issued now. Two-sided messages may be
  // duplicated; one-sided verbs only drop/delay (RC QPs hide NIC-level
  // retransmission, so remote memory never sees a duplicate DMA).
  Verdict OnTwoSided(uint32_t src, uint32_t dst) {
    return Roll(src, dst, /*one_sided=*/false);
  }
  Verdict OnOneSided(uint32_t src, uint32_t dst) {
    return Roll(src, dst, /*one_sided=*/true);
  }

  // Buffers a delivery for a paused receiver; flushed FIFO at resume,
  // discarded on crash (RX buffers die with the process).
  void Defer(uint32_t node, std::function<void()> delivery);

  const Counters& counters() const { return counters_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  Verdict Roll(uint32_t src, uint32_t dst, bool one_sided);
  void ApplyEvent(const NodeEvent& ev);
  void CutPartition(const NodeEvent& ev, bool cut);
  void Note(const char* name, uint32_t node);

  sim::Simulator* sim_;
  uint32_t num_nodes_;
  FaultPlan plan_;
  Rng rng_;  // private stream: never perturbs the simulator's global rng
  Hooks hooks_;
  CrashGuard crash_guard_;
  Counters counters_;
  std::vector<uint8_t> paused_;
  // Nodes whose crash was downgraded to a pause; their recover resumes.
  std::vector<uint8_t> downgraded_;
  // Directed cut counters (flattened num_nodes x num_nodes): overlapping
  // partitions stack, heals decrement.
  std::vector<uint32_t> cut_;
  uint64_t cut_active_ = 0;
  std::vector<std::vector<std::function<void()>>> deferred_;
};

}  // namespace ring::fault

#endif  // RING_SRC_FAULT_FAULT_H_
