// Metadata structures (paper §5.1-5.2).
//
// Each memgest has a *metadata hashtable* per shard: (key, version) ->
// location + commit state. It is write-ahead (entries exist before commit)
// and replicated to the memgest's redundancy nodes. The *volatile hashtable*
// maps key -> list of (version, memgest) pairs across all memgests of a
// coordinator; it is not replicated and is rebuilt from the metadata
// hashtables after failures.
#ifndef RING_SRC_RING_METADATA_H_
#define RING_SRC_RING_METADATA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/ring/types.h"

namespace ring {

// Approximate serialized size of one metadata entry (key hash, version,
// address, length, flags). Used for recovery-traffic modeling (Fig. 12).
inline constexpr uint64_t kMetaEntryWireBytes = 96;

// Coordinator-only state of a write still in its quorum round, plus the
// readers and movers parked on it. It lives behind MetaEntry::pending:
// StartWrite allocates it, CommitEntry releases it, and a get or move that
// must wait on an entry without one allocates it on demand. Committed
// entries, replica/parity mirrors and recovered entries carry none.
struct PendingWrite {
  // Redundancy targets still owed an ack: bitmask over replica ordinals or
  // parity indices.
  uint32_t acks_pending = 0;
  // Remaining ack count before the entry commits (quorum for replication,
  // all m parities for erasure coding).
  uint32_t acks_needed = 0;
  // Trace context of the write that created the entry: the originating
  // operation and when the coordinator started waiting for acknowledgments.
  // Plain stores, kept up to date even with tracing off; read only at
  // commit time.
  uint64_t trace_op = 0;
  uint64_t trace_quorum_start = 0;
  // Deferred readers/movers released at commit time (Fig. 5's client D).
  std::vector<std::function<void()>> waiters;
  // Re-send closures for this write's backup messages, indexed by replica
  // ordinal / parity index; invoked by the retransmit timer for every
  // ordinal still owed an ack.
  std::vector<std::function<void()>> backup_resend;
};

// The fields a metadata snapshot carries: everything but the in-flight
// write state.
struct MetaRecord {
  Version version = 0;
  uint64_t addr = 0;
  uint32_t len = 0;         // object bytes
  uint32_t region_len = 0;  // allocated region (>= len when a slot is reused)
  // Group size s of the geometry this entry was written under (§13). Always
  // the cluster's current s on a never-resized cluster; entries written
  // before an elastic resize keep their old shape until migrated, so shard
  // ids, replica/parity placement and stripe maps must be interpreted at
  // this s. 0 only on wire defaults, never on a stored entry.
  uint32_t geom_s = 0;
  // Slot that supplied this entry during a merged recovery metadata fetch
  // (-1 otherwise). Quorum-committed writes may live on only a subset of the
  // replicas, so block recovery must copy bytes from a slot known to hold
  // the entry — not from an arbitrary survivor.
  int32_t recovery_src = -1;
  bool committed = false;
  bool tombstone = false;
  // False on a recovered node until the object bytes are copied/decoded.
  bool data_present = true;
  // Durable moved-marker (§13): this version records that the key's contents
  // were handed to its new-shape owner. Moved entries are never served and
  // never trigger GC of the versions below them (the payload must survive
  // until the install is acknowledged).
  bool moved = false;
  // Volatile: the new owner acknowledged the install, so the rebalance scan
  // stops reporting the key. Lost on crash; the driver's verify pass simply
  // re-migrates (idempotent).
  bool moved_done = false;
  // Volatile: this entry owns a VolatileIndex reference on this node (it was
  // coordinator-written or indexed by a rebuild). Replica/parity mirrors of
  // other coordinators' writes never set it — the geometry purge must not
  // mistake a mirror for the entry an index ref belongs to.
  bool indexed = false;
};

struct MetaEntry : MetaRecord {
  // Null unless a write is in flight on this entry or something waits on it.
  std::unique_ptr<PendingWrite> pending;

  MetaEntry() = default;
  MetaEntry(MetaEntry&&) noexcept = default;
  MetaEntry& operator=(MetaEntry&&) noexcept = default;
  // Copies are metadata snapshots (recovery transfers, tests): they never
  // carry the source's in-flight write state.
  MetaEntry(const MetaEntry& other) : MetaRecord(other) {}
  MetaEntry& operator=(const MetaEntry& other) {
    MetaRecord::operator=(other);
    pending.reset();
    return *this;
  }

  // The in-flight state, allocated on first use.
  PendingWrite& Pending() {
    if (pending == nullptr) {
      pending = std::make_unique<PendingWrite>();
    }
    return *pending;
  }
  uint32_t acks_pending() const {
    return pending == nullptr ? 0 : pending->acks_pending;
  }
};
// One map node per entry: keep it in the 96-byte malloc class.
static_assert(sizeof(MetaEntry) <= 56, "MetaEntry grew past 56 bytes");

// Per-(memgest, shard) metadata hashtable.
class MetadataTable {
 public:
  MetaEntry* Find(const Key& key, Version version);
  const MetaEntry* Find(const Key& key, Version version) const;
  // Highest version for the key (committed or not), nullptr if absent.
  MetaEntry* Highest(const Key& key);
  MetaEntry& Insert(const Key& key, MetaEntry entry);
  // True when the entry existed.
  bool Erase(const Key& key, Version version);

  size_t entry_count() const { return entry_count_; }
  uint64_t ApproxBytes() const { return entry_count_ * kMetaEntryWireBytes; }

  // Iterates over every (key, entry); used by recovery transfers.
  void ForEach(
      const std::function<void(const Key&, const MetaEntry&)>& fn) const;
  // Mutable iteration; the callback must not insert or erase entries.
  void ForEachMutable(const std::function<void(const Key&, MetaEntry&)>& fn);

  // All versions of a key, ascending. Empty when absent.
  std::vector<Version> VersionsOf(const Key& key) const;

  void Clear();

 private:
  std::unordered_map<Key, std::map<Version, MetaEntry>> table_;
  size_t entry_count_ = 0;
};

// Versions a GC notice collected before their redundancy write arrived.
// The coordinator's GC notice is a one-sided write applied on arrival, while
// the ReplicaAppend/ParityUpdate it chases may still wait in this node's CPU
// queue; the late write would then insert an entry nothing ever collects.
// The notice records (shard, key, version) here instead, and the insert
// site consumes the record and skips the dead entry. FIFO-bounded: the
// record of a write that never arrives (dropped) ages out once kWindow
// newer records have been made.
class EarlyGcSet {
 public:
  static constexpr size_t kWindow = 256;

  void Record(uint32_t shard, const Key& key, Version version);
  // True when (shard, key, version) was recorded; forgets the record.
  bool Consume(uint32_t shard, const Key& key, Version version);
  // True when (shard, key, version) was recorded; keeps the record.
  bool Contains(uint32_t shard, const Key& key, Version version) const;
  size_t size() const { return records_.size(); }

 private:
  struct Entry {
    uint32_t shard;
    Version version;
    Key key;
  };
  std::vector<Entry>::const_iterator FindRecord(uint32_t shard, const Key& key,
                                                Version version) const;
  // Oldest first. Usually empty: a record lives only while its write waits
  // in the queue.
  std::vector<Entry> records_;
};

// Coordinator-side index over all memgests (paper Fig. 4).
class VolatileIndex {
 public:
  struct Ref {
    Version version;
    MemgestId memgest;
  };

  // Highest-version reference for the key, nullopt when absent.
  std::optional<Ref> Highest(const Key& key) const;
  // Version to assign to the next write of `key` (highest + 1, counting
  // uncommitted versions — paper §5.2).
  Version NextVersion(const Key& key) const;

  void Add(const Key& key, Version version, MemgestId memgest);
  void Remove(const Key& key, Version version);

  // All references for a key, descending by version.
  std::vector<Ref> Refs(const Key& key) const;

  size_t key_count() const { return index_.size(); }
  void Clear() { index_.clear(); }

 private:
  // Descending by version; lists stay short (GC removes old versions).
  std::unordered_map<Key, std::vector<Ref>> index_;
};

}  // namespace ring

#endif  // RING_SRC_RING_METADATA_H_
