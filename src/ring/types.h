// Core Ring types: keys, versions, memgest descriptors (paper §5).
#ifndef RING_SRC_RING_TYPES_H_
#define RING_SRC_RING_TYPES_H_

#include <cstdint>
#include <string>

namespace ring {

using Key = std::string;
using Version = uint64_t;
using MemgestId = uint32_t;

// Sentinel: "use the cluster's default memgest" in put calls.
inline constexpr MemgestId kDefaultMemgest = 0xFFFFFFFFu;

// Read consistency mode (§16).
enum class ReadMode : uint8_t {
  // Linearizable read: waits out concurrent commits and in-flight
  // reconfigurations (validate-and-retry; may park on the quorum wait).
  kStrong = 0,
  // Non-blocking multiversion read: when the newest version is still
  // un-committed (a concurrent write, or a reconfiguration stalled its
  // quorum), serve the newest *committed* version immediately instead of
  // parking. Still strongly consistent per item — the served version is a
  // committed prefix point, and read-your-writes holds because put acks fire
  // at commit. Requires RingOptions::multiversion_depth > 0 to ever differ
  // from kStrong on GC'd histories.
  kNonBlocking = 1,
};

enum class SchemeKind : uint8_t {
  kReplicated,    // Rep(r, s): r-fold primary replication, quorum commits
  kErasureCoded,  // SRS(k, m, s): stretched Reed-Solomon
};

// A memgest is a storage scheme instance (paper §5.1). The stretch factor s
// is a cluster-wide constant (the number of coordinator shards), so it is
// not part of the descriptor.
struct MemgestDescriptor {
  SchemeKind kind = SchemeKind::kReplicated;
  uint32_t r = 1;  // replication factor including the primary (kReplicated)
  uint32_t k = 0;  // data blocks (kErasureCoded)
  uint32_t m = 0;  // parity blocks (kErasureCoded)
  // Replicated memgests only: commit when *all* replicas acknowledged
  // instead of a majority quorum. Tolerates r-1 failures instead of
  // floor((r-1)/2), at the price of waiting for the slowest replica
  // (paper §3.1's "basic fully synchronous replication").
  bool full_sync = false;
  std::string name;

  static MemgestDescriptor Replicated(uint32_t r, std::string name = "") {
    MemgestDescriptor d;
    d.kind = SchemeKind::kReplicated;
    d.r = r;
    d.name = std::move(name);
    return d;
  }
  static MemgestDescriptor FullSyncReplicated(uint32_t r,
                                              std::string name = "") {
    MemgestDescriptor d = Replicated(r, std::move(name));
    d.full_sync = true;
    return d;
  }
  static MemgestDescriptor ErasureCoded(uint32_t k, uint32_t m,
                                        std::string name = "") {
    MemgestDescriptor d;
    d.kind = SchemeKind::kErasureCoded;
    d.k = k;
    d.m = m;
    d.name = std::move(name);
    return d;
  }

  // Backup slots per shard: r-1 replicas, or m parity nodes.
  uint32_t backups() const {
    return kind == SchemeKind::kReplicated ? r - 1 : m;
  }

  // Rep(1, s): no redundancy, immediate commits, highest performance.
  bool unreliable() const {
    return kind == SchemeKind::kReplicated && r <= 1;
  }

  // Stored bytes per byte of user data.
  double StorageOverhead() const {
    if (kind == SchemeKind::kReplicated) {
      return static_cast<double>(r);
    }
    return 1.0 + static_cast<double>(m) / static_cast<double>(k);
  }

  // "Rep(3)" / "SRS(3,2)" — the paper's labels, s implied by the cluster.
  std::string ToString() const;
};

}  // namespace ring

#endif  // RING_SRC_RING_TYPES_H_
