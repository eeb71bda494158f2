// ring-mc schedule specs: the serializable description of one model-checked
// execution — cluster/workload configuration, the schedule decisions that
// deviate from the default run, and the expected outcome.
//
// A spec is the checker's counterexample format: when exploration finds an
// oracle violation, the shrunk decision list plus the config is everything
// needed to reproduce it (`ringctl mc --replay <file>`). The text format is
// line-oriented and versioned ("mc-spec v1") so specs survive as CI
// artifacts and regression fixtures.
#ifndef RING_SRC_MC_SPEC_H_
#define RING_SRC_MC_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace ring::mc {

// Scripted client operation. The model checker's workloads are fully
// scripted (no RNG draws after setup) so a trace is a pure function of the
// spec: op issue times are fixed, and every nondeterminism left is the
// delivery schedule the explorer controls.
struct McOp {
  enum class Kind : uint8_t { kPut, kGet, kDelete };
  Kind kind = Kind::kPut;
  std::string key;
  uint32_t value_size = 64;  // put payload bytes (pattern-filled from nonce)
  uint64_t nonce = 0;        // distinguishes successive puts of one key
  uint64_t at_ns = 0;        // issue time
  uint32_t client = 0;       // issuing client endpoint
};

// Scripted §16 revocation: at `at_ns` (workload-relative, like McOp::at_ns)
// the membership layer receives a suspicion report against `node` —
// possibly false. Deterministic like ops; the explorer then interleaves the
// resulting revoke-then-promote round against the workload.
struct McRevoke {
  uint32_t node = 0;
  uint64_t at_ns = 0;
};

// Cluster + workload + schedule-space bounds for one exploration.
struct McConfig {
  // Cluster shape (RingOptions subset).
  uint32_t s = 2;
  uint32_t d = 1;
  uint32_t spares = 0;
  uint32_t clients = 1;
  uint64_t seed = 1;
  // Storage scheme of the single memgest the workload writes: "repN",
  // "fsyncN" (full-sync replication) or "srsKM" (e.g. "srs32").
  std::string scheme = "rep2";

  std::vector<McOp> ops;
  std::vector<McRevoke> revokes;  // §16 scripted suspicion reports

  // Schedule-space bounds.
  uint64_t reorder_window_ns = 3000;  // how far a delivery may jump the queue
  uint32_t max_steps = 64;            // branchable choice points per trace
  uint32_t max_drops = 0;             // message-loss deviations per trace
  uint32_t max_crashes = 0;           // crash deviations per trace
  std::vector<uint32_t> crash_nodes;  // nodes the explorer may crash
  uint64_t quiesce_ns = 2'000'000;    // settle time before the final sweep
  // Override SimParams::write_retransmit_ns (0 keeps the sim default).
  uint64_t write_retransmit_ns = 0;

  // §16 multiversion knobs. Defaults keep pre-existing specs (and their
  // digests) byte-identical; ToString only emits them when set.
  uint32_t multiversion_depth = 0;  // ν retained committed versions per key
  bool nonblocking_reads = false;   // issue gets with ReadMode::kNonBlocking

  // PR 5 regression bugs (RingOptions::TestOnlyBugs).
  bool bug_no_write_retransmit = false;
  bool bug_single_source_recovery = false;
  bool bug_no_gc_revalidate = false;

  uint32_t num_server_nodes() const { return s + d + spares; }
};

// One schedule decision at a choice step. Steps count ScheduleController::
// Choose calls; tags identify deliveries (stable across runs that share a
// decision prefix, because tag assignment follows registration order).
struct McDecision {
  enum class Kind : uint8_t { kDeliver, kDrop, kCrash, kRecover };
  Kind kind = Kind::kDeliver;
  uint32_t step = 0;
  uint64_t tag = 0;   // kDeliver / kDrop
  uint32_t node = 0;  // kCrash / kRecover

  bool operator==(const McDecision& o) const {
    return kind == o.kind && step == o.step && tag == o.tag && node == o.node;
  }
};

// A replayable schedule: config + the sparse list of decisions that deviate
// from the default schedule (any step without an entry delivers the frontier
// candidate). `expect_*` record the outcome the spec should reproduce.
struct ScheduleSpec {
  McConfig config;
  std::vector<McDecision> decisions;  // sorted by step, at most one per step
  std::string expect_violation;       // oracle name; empty = clean run
  uint64_t expect_digest = 0;         // final cluster state digest

  std::string ToString() const;
  static Result<ScheduleSpec> Parse(const std::string& text);
};

const char* McDecisionKindName(McDecision::Kind kind);

}  // namespace ring::mc

#endif  // RING_SRC_MC_SPEC_H_
