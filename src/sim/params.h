// Calibration constants for the simulated testbed.
//
// The paper's cluster: 12 nodes, Intel E5-2609 @ 2.4 GHz (single-threaded
// servers), Mellanox QDR/40Gb NICs, one switch, libibverbs + libev. These
// constants are chosen so the simulator lands near the paper's anchor
// points:
//   - remote get latency  ~5 µs (1 KiB),
//   - unreliable put throughput ~500 K req/s per coordinator
//     (1.5 M aggregate over 3 coordinators, Fig. 9),
//   - single open-loop client tops out at ~418 K gets/s / ~290 K puts/s
//     (Fig. 11).
// Everything else (scheme orderings, crossovers, saturation points) emerges
// from message counts, byte volumes, and queueing — not from per-scheme
// constants.
#ifndef RING_SRC_SIM_PARAMS_H_
#define RING_SRC_SIM_PARAMS_H_

#include <cstdint>

#include "src/sim/event_queue.h"

namespace ring::sim {

struct SimParams {
  // --- Network (one switch hop) ---
  // One-way wire latency: NIC processing + propagation + switch.
  uint64_t wire_latency_ns = 1600;
  // Uniform per-message latency jitter in [0, wire_jitter_ns) — zero keeps
  // the simulation exactly reproducible run-to-run for tests; benches enable
  // it so medians and 90th percentiles separate as in the paper's plots.
  uint64_t wire_jitter_ns = 0;
  // 40 Gb/s links = 5 bytes/ns.
  double link_bytes_per_ns = 5.0;
  // Fixed per-message overhead on the wire (headers, verbs framing).
  uint64_t wire_message_overhead_bytes = 64;

  // --- Server CPU (single-threaded event loop) ---
  // Fixed cost to handle any incoming request (dispatch, parsing).
  uint64_t server_recv_ns = 300;
  // Fixed cost of request bookkeeping (hashtable ops, version logic).
  uint64_t server_base_ns = 1300;
  // Posting one send/write work request.
  uint64_t post_send_ns = 250;
  // Replica append handling (metadata insert + bookkeeping; lighter than the
  // coordinator path).
  uint64_t replica_base_ns = 300;
  // Parity update handling before the per-byte GF work (log append,
  // metadata replication, allocation checks).
  uint64_t parity_base_ns = 1000;
  // Memory copy (heap writes / reads of object payloads).
  double mem_byte_ns = 0.05;  // ~20 GB/s
  // XOR / GF multiply-accumulate per byte (delta computation, parity apply,
  // decode per source block). The paper notes RS is compute-bound.
  double gf_byte_ns = 1.0;  // ~1 GB/s single-threaded table lookups
  // Per-source-byte decode cost on the recovery master. Lower than
  // gf_byte_ns: reconstruction streams cache-hot decode rows and overlaps
  // with block collection; calibrated to Fig. 13's 64 KiB recovery times.
  double decode_byte_ns = 0.15;
  // Applying a replicated metadata entry during recovery.
  uint64_t recovery_entry_ns = 4;

  // --- Client CPU ---
  uint64_t client_base_ns = 2100;  // issue path bookkeeping
  uint64_t client_post_ns = 250;
  double client_put_byte_ns = 1.0;  // value marshalling on puts

  // --- Parity update framing ---
  // "The size of the parity update is larger than the actual request, since
  // the metadata must be replicated along with the update" (§6.1).
  uint64_t parity_update_metadata_bytes = 96;

  // --- Membership / failure handling ---
  uint64_t heartbeat_period_ns = 10 * kMillisecond;
  uint64_t failure_timeout_ns = 35 * kMillisecond;
  uint64_t client_retry_timeout_ns = 300 * kMicrosecond;

  // --- Client retry policy (chaos hardening) ---
  // The first retry fires one flat client_retry_timeout_ns after issue;
  // subsequent waits use decorrelated jitter — uniform in
  // [timeout, 3 * previous_wait), clipped to the cap — so synchronized
  // retry storms from many clients spread out instead of re-colliding.
  uint64_t client_backoff_cap_ns = 10 * kMillisecond;
  // Bounded retry budget: a request older than this fails with kUnavailable
  // rather than retrying forever (0 disables the deadline; the retry count
  // below still bounds it).
  uint64_t client_retry_budget_ns = 20 * kMillisecond;
  uint32_t client_max_retries = 64;
  // Coordinator-side backup retransmission: while a write's quorum round is
  // un-acked past this period, the coordinator resends the missing replica
  // appends / parity updates (the per-(shard, seq) replay fences make the
  // resends idempotent, and receivers re-ack absorbed duplicates). Client
  // retries cannot drive this — the at-most-once table swallows them — so
  // without it a single lost backup message wedges the key forever. 0
  // disables it (the fault-free default: no timer events, byte-identical
  // schedules); RingRuntime turns it on whenever a fault plan is installed.
  uint64_t write_retransmit_ns = 0;

  // Worst-case failure-detection window: a node that dies right after
  // heartbeating is declared failed once its silence exceeds the timeout,
  // observed at the next detection tick.
  uint64_t detection_window_ns() const {
    return failure_timeout_ns + 2 * heartbeat_period_ns;
  }
  // Worst-case window until a dead *leader* is replaced: the ranked election
  // adds up to half a heartbeat period per candidate rank, then the new
  // leader must detect and handle the failure.
  uint64_t election_window_ns(uint32_t candidates) const {
    return detection_window_ns() +
           candidates * heartbeat_period_ns / 2 + heartbeat_period_ns;
  }

  // --- Baseline systems (Fig. 7c) ---
  // Kernel TCP/IP stack one-way latency for memcached/Cocytus-style systems.
  uint64_t tcp_latency_ns = 25000;
  // HDD-backed log write on RAMCloud-like backups (WDC disks in the paper's
  // cluster; buffered log writes, not full seeks).
  uint64_t hdd_buffer_write_ns = 36000;
};

// A single global default; experiments copy and tweak.
inline constexpr SimParams kDefaultParams{};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_PARAMS_H_
