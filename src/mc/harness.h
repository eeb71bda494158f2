// TraceRunner: executes one schedule of the model-checked protocol.
//
// A run builds a fresh RingCluster from the spec's McConfig, installs itself
// as both the fabric's DeliveryTagger (assigning stable tags to every parked
// delivery) and the event queue's ScheduleController (deciding which frontier
// delivery runs next), then drives the scripted workload to quiescence and a
// final read-back sweep. Along the way it
//   - maintains per-node vector clocks (src/analysis) so the explorer can
//     compute which deliveries were concurrent (the DPOR independence
//     relation),
//   - records the trail of choice points (candidates, decision, clocks,
//     sleep set at entry),
//   - checks the chaos_fuzz oracles: version-reuse, corrupt reads, read
//     monotonicity, final durability/read-your-writes, and wedged writes.
//
// Determinism contract: two runs with the same config and plan produce the
// same tag assignment, the same trail, the same violation, and the same
// final state digest — the property replay and shrinking rest on.
#ifndef RING_SRC_MC_HARNESS_H_
#define RING_SRC_MC_HARNESS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/vector_clock.h"
#include "src/mc/spec.h"

namespace ring::mc {

// Registration metadata of one tagged delivery.
struct McTagMeta {
  uint32_t issuer = 0;
  uint32_t dst = 0;
  uint8_t kind = 0;  // net::Fabric Pending kind, opaque to the explorer
  // The issuer's clock when the message was posted: the delivery's
  // happens-before predecessor set.
  analysis::VectorClock msg_clock;
};

// One recorded choice point.
struct McStepRecord {
  std::vector<uint64_t> candidates;  // deliverable tags, frontier first
  uint64_t time_ns = 0;              // frontier (scheduler) time at the choice
  McDecision decision;               // what this run did here
  uint32_t dst = 0;                  // kDeliver: destination node
  analysis::VectorClock msg_clock;   // kDeliver: clock the message carried
  analysis::VectorClock delivered;   // kDeliver: dst clock after delivery
  std::vector<uint64_t> sleep;       // sleep set at entry (tags)
};

// Everything one run produced.
struct TraceResult {
  std::vector<McStepRecord> trail;  // first config.max_steps choice points
  uint64_t steps = 0;               // total choice points (incl. unrecorded)
  uint64_t schedule_hash = 0;       // hash of the full decision sequence
  uint64_t final_digest = 0;        // committed state + alive bits
  // State fingerprint captured at Options::fingerprint_at_step (committed
  // stores + alive bits + in-flight delivery multiset): the explorer's
  // dedup key for "have I explored from an equivalent state before".
  uint64_t state_fingerprint = 0;
  std::string violation;            // first oracle violated; empty = clean
  std::string violation_detail;
  bool diverged = false;   // a planned decision did not apply (tag missing)
  bool completed = false;  // ran to the final sweep within the event budget
  std::map<uint64_t, McTagMeta> tags;  // every registered delivery
};

class TraceRunner {
 public:
  struct Options {
    // Sparse plan: at most one decision per step, sorted by step. Steps
    // without an entry take the default (earliest non-sleeping candidate).
    std::vector<McDecision> plan;
    // Sleep set seeding the run (tag -> destination node, needed to wake
    // sleepers when a dependent delivery executes before they re-register).
    std::map<uint64_t, uint32_t> sleep;
    // Record the trail (replays that only need the outcome can skip it).
    bool record = true;
    // Compute TraceResult::state_fingerprint at entry to this choice step
    // (UINT32_MAX: never).
    uint32_t fingerprint_at_step = 0xFFFFFFFFu;
  };

  TraceRunner(const McConfig& config, Options options);
  ~TraceRunner();

  // Runs the schedule to completion. One-shot: call once per TraceRunner.
  TraceResult Run();

 private:
  struct Impl;
  Impl* impl_;
};

// Violation oracle names (TraceResult::violation values).
inline constexpr char kViolationDurability[] = "durability";
inline constexpr char kViolationCorruptRead[] = "corrupt-read";
inline constexpr char kViolationVersionReuse[] = "version-reuse";
inline constexpr char kViolationTimeTravel[] = "time-travel";
inline constexpr char kViolationWedgedWrite[] = "wedged-write";
// A live server failed RingServer::CheckKeyDirectory on the final state.
inline constexpr char kViolationDirectory[] = "directory";

}  // namespace ring::mc

#endif  // RING_SRC_MC_HARNESS_H_
