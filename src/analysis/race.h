// Happens-before race detection for the simulated RDMA fabric.
//
// The discrete-event simulator executes everything on one host thread, so
// nothing here is a data race in the C++ sense. What CAN go wrong — and what
// silently corrupts real RDMA deployments ("The Impact of RDMA on
// Agreement") — is a *protocol* race: a one-sided Write/Read touching remote
// memory that the remote CPU (or another one-sided op) also touches, with no
// happens-before edge between the two accesses. The simulator's event order
// then encodes an accident of timing, not a guarantee of the protocol.
//
// Model:
//  - Actors: one logical clock per node CPU plus one "external" actor for
//    code driving the simulator from outside any handler (tests, benches).
//  - Two-sided Send: the handler joins the sender's clock into the receiving
//    CPU's clock (message edge) — the normal synchronization.
//  - One-sided Write/Read: the remote apply/fetch runs with the *issuer's*
//    clock only; it never joins the destination CPU. Accesses it performs
//    are concurrent with destination-CPU work unless some earlier edge
//    orders them.
//  - Issue order from one actor is happens-before (ticking the issuer per
//    capture), mirroring reliable-connected QP FIFO execution.
//  - Completion regions: protocol state that one-sided acks land in is only
//    touched by the owning CPU after it polls the completion word, so ack
//    application acquires into the owner's CPU clock (ScopedCpuAcquire).
//
// Conflicting accesses (write/write or write/read) to overlapping bytes of a
// declared region with unordered clocks are recorded as RaceReports, each
// carrying both ops' ids so their protocol-phase history can be recovered
// from the span tracer (PR 1's op_id stitching).
//
// The detector only observes: it never schedules events, never consumes
// simulator randomness, and is entirely absent (null pointer, zero work)
// unless opted in via RING_ANALYZE=race or Simulator::EnableRaceDetection().
#ifndef RING_SRC_ANALYSIS_RACE_H_
#define RING_SRC_ANALYSIS_RACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/vector_clock.h"

namespace ring::obs {
class Tracer;
}  // namespace ring::obs

namespace ring::analysis {

enum class AccessKind : uint8_t { kRead = 0, kWrite = 1 };

// What class of protocol state a declared region holds.
enum class RegionKind : uint8_t {
  kHeap = 0,     // shard object store bytes
  kParityStrip,  // parity buffer bytes of an erasure-coded group
  kMetadata,     // metadata hashtable entries
  kVersionWord,  // volatile-index version assignment state
  kCommitFlag,   // per-(key, version) durability flag
  kAckWord,      // one-sided completion region the coordinator polls
};

const char* RegionKindName(RegionKind kind);
const char* AccessKindName(AccessKind kind);

// A declared span of simulated memory: `node` owns it, `scope` partitions a
// kind into independent address spaces (e.g. (memgest << 32) | shard), and
// [lo, hi) are bytes — or a key hash with hi == lo + 1 for word regions.
struct Region {
  uint32_t node = 0;
  RegionKind kind = RegionKind::kHeap;
  uint64_t scope = 0;
  uint64_t lo = 0;
  uint64_t hi = 1;
};

struct RaceAccess {
  AccessKind kind = AccessKind::kRead;
  const char* site = "";  // static string naming the protocol step
  uint64_t op_id = 0;
  uint64_t time = 0;  // simulated ns
  uint64_t lo = 0;
  uint64_t hi = 0;
  VectorClock clock;
};

struct RaceReport {
  Region region;       // region identity; lo/hi = overlap of the two spans
  RaceAccess first;    // earlier access (by simulated time)
  RaceAccess second;   // later, conflicting access
};

class RaceDetector {
 public:
  // Actor 0 is the external driver; node n's CPU is actor n + 1.
  static constexpr uint32_t kExternalActor = 0;
  static constexpr uint32_t CpuActorId(uint32_t node) { return 1 + node; }

  // Non-null iff the RING_ANALYZE env var contains "race".
  static std::unique_ptr<RaceDetector> FromEnv();

  // ---- task context -------------------------------------------------------
  // The context stack tracks which logical task is executing. With an empty
  // stack the external actor is current.

  // Clock to embed into a message/deferred closure: ticks the current
  // actor's clock (issue order from one actor is happens-before) and
  // returns a copy. From a one-sided context, returns that task's clock.
  VectorClock CaptureEdge();

  // Runs on `node`'s CPU: joins `inherited` (may be null — no edges) into
  // that CPU's clock and makes it current.
  void BeginCpuTask(uint32_t node, const VectorClock* inherited);
  // One-sided NIC access: `inherited` (issuer's clock; may be null) becomes
  // the task clock. Never joins a destination actor.
  void BeginOneSidedTask(const VectorClock* inherited);
  // Completion-region acquire: joins the *current* task clock (typically a
  // one-sided apply) into the clock of `node`'s CPU and continues as that
  // CPU.
  void BeginCpuAcquire(uint32_t node);
  void EndTask();

  // ---- access logging -----------------------------------------------------
  void OnAccess(const Region& region, AccessKind kind, const char* site,
                uint64_t now, uint64_t op_id);

  // ring-lint: ok(test-only-api) the Fabric/RingServer access hooks
  const std::vector<RaceReport>& races() const { return races_; }
  // ring-lint: ok(test-only-api) the Fabric/RingServer access hooks
  uint64_t accesses_logged() const { return accesses_; }

  // Human-readable report; with a tracer, each access is annotated with its
  // op's protocol-phase history (the spans recorded under its op_id).
  // ring-lint: ok(test-only-api) the Fabric/RingServer access hooks
  std::string Report(const obs::Tracer* tracer = nullptr) const;

 private:
  struct Frame {
    int32_t actor = -1;  // >= 0: actor index; -1: one-sided task
    VectorClock clock;   // used when actor < 0
  };

  struct RegionKey {
    uint32_t node;
    RegionKind kind;
    uint64_t scope;
    bool operator<(const RegionKey& o) const {
      if (node != o.node) {
        return node < o.node;
      }
      if (kind != o.kind) {
        return kind < o.kind;
      }
      return scope < o.scope;
    }
  };
  struct RegionState {
    std::vector<RaceAccess> writes;
    std::vector<RaceAccess> reads;
  };

  VectorClock& ActorClock(uint32_t actor);
  const VectorClock& CurrentClock();
  int32_t CurrentActor() const;
  void RecordRace(const RegionKey& key, const RaceAccess& a,
                  const RaceAccess& b);

  static constexpr size_t kMaxRaces = 64;
  static constexpr size_t kMaxStoredPerList = 128;

  std::vector<VectorClock> actor_clocks_;
  std::vector<Frame> stack_;
  std::map<RegionKey, RegionState> regions_;
  std::vector<RaceReport> races_;
  uint64_t accesses_ = 0;
  uint64_t races_dropped_ = 0;
};

// ---- null-safe RAII scopes (no-ops when the detector pointer is null) -----

class ScopedCpuTask {
 public:
  ScopedCpuTask(RaceDetector* d, uint32_t node, const VectorClock* inherited)
      : d_(d) {
    if (d_ != nullptr) {
      d_->BeginCpuTask(node, inherited);
    }
  }
  ~ScopedCpuTask() {
    if (d_ != nullptr) {
      d_->EndTask();
    }
  }
  ScopedCpuTask(const ScopedCpuTask&) = delete;
  ScopedCpuTask& operator=(const ScopedCpuTask&) = delete;

 private:
  RaceDetector* d_;
};

class ScopedOneSidedTask {
 public:
  ScopedOneSidedTask(RaceDetector* d, const VectorClock* inherited) : d_(d) {
    if (d_ != nullptr) {
      d_->BeginOneSidedTask(inherited);
    }
  }
  ~ScopedOneSidedTask() {
    if (d_ != nullptr) {
      d_->EndTask();
    }
  }
  ScopedOneSidedTask(const ScopedOneSidedTask&) = delete;
  ScopedOneSidedTask& operator=(const ScopedOneSidedTask&) = delete;

 private:
  RaceDetector* d_;
};

class ScopedCpuAcquire {
 public:
  ScopedCpuAcquire(RaceDetector* d, uint32_t node) : d_(d) {
    if (d_ != nullptr) {
      d_->BeginCpuAcquire(node);
    }
  }
  ~ScopedCpuAcquire() {
    if (d_ != nullptr) {
      d_->EndTask();
    }
  }
  ScopedCpuAcquire(const ScopedCpuAcquire&) = delete;
  ScopedCpuAcquire& operator=(const ScopedCpuAcquire&) = delete;

 private:
  RaceDetector* d_;
};

}  // namespace ring::analysis

#endif  // RING_SRC_ANALYSIS_RACE_H_
