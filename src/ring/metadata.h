// Metadata structures (paper §5.1-5.2).
//
// Each memgest has a *metadata hashtable* per shard: (key, version) ->
// location + commit state. It is write-ahead (entries exist before commit)
// and replicated to the memgest's redundancy nodes. The *volatile hashtable*
// (VolatileIndex, the coordinator's key directory) maps key -> list of
// (version, memgest) refs across all memgests of a coordinator; it is not
// replicated and is rebuilt from the metadata hashtables after failures.
#ifndef RING_SRC_RING_METADATA_H_
#define RING_SRC_RING_METADATA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
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
  // Plain stores, kept up to date even with tracing off; read at commit time
  // and by the retransmit timer, which resends under trace_op.
  uint64_t trace_op = 0;
  uint64_t trace_quorum_start = 0;
  // What a backup message carries beyond the entry's own fields, kept for
  // the retransmit timer: the store's write sequence number at this write
  // (the receivers' replay fence) and the payload, the value for a
  // replicated scheme and the parity delta for an erasure-coded one.
  uint64_t seq = 0;
  std::shared_ptr<Buffer> payload;
  // Work released at commit time: the write's own completion (StartWrite's
  // on_commit) and the readers and movers parked on it (Fig. 5's client D).
  // Each runs under the op it was parked under, not the committing write's.
  struct Waiter {
    uint64_t op = 0;
    std::function<void()> fn;
  };
  std::vector<Waiter> waiters;
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
  // this s. Every write path sets it.
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
  // coordinator-written or indexed by a rebuild), so erasing it must drop
  // that ref. Replica/parity mirrors of other coordinators' writes never
  // set it — the geometry purge must not mistake a mirror for the entry an
  // index ref belongs to.
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
// One pooled list node per entry, the entry plus its next pointer: keep it
// within sim::TaskPool's 64-byte class.
static_assert(sizeof(MetaEntry) <= 56, "MetaEntry grew past 56 bytes");

// Per-(memgest, shard) metadata hashtable (DESIGN.md §19.5). A key map in
// front of each key's versions, an ascending singly linked list of nodes
// from the thread's sim::TaskPool. An entry keeps its address until it is
// erased. Like a sim::Task, a table is created, used and destroyed on one
// thread.
class MetadataTable {
 public:
  MetadataTable() = default;
  // Copies are metadata snapshots: the key map's order, each key's versions
  // and no in-flight write state (MetaEntry's copy).
  MetadataTable(const MetadataTable& other) { *this = other; }
  MetadataTable& operator=(const MetadataTable& other);
  ~MetadataTable() { Clear(); }

  MetaEntry* Find(const Key& key, Version version);
  const MetaEntry* Find(const Key& key, Version version) const;
  // Replaces the entry at `entry.version` in place, or links a new one.
  MetaEntry& Insert(const Key& key, MetaEntry entry);
  // True when the entry existed.
  bool Erase(const Key& key, Version version);

  size_t entry_count() const { return entry_count_; }
  uint64_t ApproxBytes() const { return entry_count_ * kMetaEntryWireBytes; }
  // Entries whose object bytes are not local yet (data_present false).
  size_t entries_without_bytes() const { return without_bytes_; }
  // Sets `entry`'s data_present; `entry` is one of this table's.
  void MarkBytesPresent(MetaEntry& entry);

  // Iterates over every (key, entry); used by recovery transfers.
  void ForEach(
      const std::function<void(const Key&, const MetaEntry&)>& fn) const;
  // Mutable iteration; the callback must not insert or erase entries.
  void ForEachMutable(const std::function<void(const Key&, MetaEntry&)>& fn);

 private:
  struct Node {
    MetaEntry entry;
    Node* next = nullptr;  // the next higher version
  };

  static Node* NewNode(MetaEntry entry);
  static void FreeNode(Node* node);
  void Clear();

  // Key -> its lowest version. The map stays for its iteration order, which
  // recovery, metadata-fetch installs and rebalance scans follow: a key is
  // inserted with its first version and erased with its last.
  std::unordered_map<Key, Node*> table_;
  size_t entry_count_ = 0;
  size_t without_bytes_ = 0;
};

// Versions a GC notice collected before their redundancy write arrived.
// The coordinator's GC notice is a one-sided write applied on arrival, while
// the backup write it chases may still wait in this node's CPU queue; the
// late write would then insert an entry nothing ever collects. The notice
// records (key, version) here, in the backup store of the shard, instead,
// and the insert site consumes the record and skips the dead entry.
// FIFO-bounded: the record of a write that never arrives (dropped) ages out
// once kWindow newer records have been made.
class EarlyGcSet {
 public:
  static constexpr size_t kWindow = 256;

  void Record(const Key& key, Version version);
  // True when (key, version) was recorded; forgets the record.
  bool Consume(const Key& key, Version version);
  // True when (key, version) was recorded; keeps the record.
  bool Contains(const Key& key, Version version) const;
  size_t size() const { return records_.size(); }

 private:
  struct Entry {
    Version version;
    Key key;
  };
  std::vector<Entry>::const_iterator FindRecord(const Key& key,
                                                Version version) const;
  // Oldest first. A record lives while its write waits in the CPU queue, so
  // under saturation the set is seldom empty: on e2e put_saturate (seed 1)
  // a store held up to 179 records, and a Consume scanned 36 on average.
  std::vector<Entry> records_;
};

struct ShardStore;  // server.h: one shard's heap and metadata hashtable

// The coordinator's key directory: the volatile hashtable of paper Fig. 4,
// mapping a key to its (version, memgest) refs across all memgests. It is
// not replicated; RingServer::RebuildVolatileIndex rebuilds it from the
// metadata hashtables after failures.
//
// Layout (DESIGN.md §19): one dense record per key (the key, its hash, its
// newest ref inline and, only while the key has several versions, its older
// refs out of line), under an open-addressed array of 8-byte (tag, record)
// slots probed linearly. The home slot comes from the hash's high bits by
// Fibonacci hashing, never `hash & mask`: a coordinator only holds keys
// with hash % num_shards == its shard, so their low bits repeat.
//
// Each ref carries handles to the MetaEntry it names and the ShardStore
// holding it. The directory never dereferences them; RingServer erases a
// ref together with its entry. There is no iteration API, so the table's
// layout can never reach a schedule.
class VolatileIndex {
 public:
  struct Ref {
    Version version = 0;
    MetaEntry* entry = nullptr;
    ShardStore* store = nullptr;
    MemgestId memgest = 0;
    // RingServer::GeomKey(geom_s, shard) of *store.
    uint32_t store_key = 0;
  };

  // Newest ref of the key, nullptr when absent. Like Find, valid until the
  // next Add, Remove or Clear.
  const Ref* Highest(const HashedKey& key) const;
  // The ref at `version`, nullptr when absent.
  Ref* Find(const HashedKey& key, Version version);
  const Ref* Find(const HashedKey& key, Version version) const;
  // Version to assign to the next write of `key` (highest + 1, counting
  // uncommitted versions — paper §5.2).
  Version NextVersion(const HashedKey& key) const;

  // Adds a ref; one already at the same version is replaced (an idempotent
  // re-add, e.g. during recovery).
  void Add(const HashedKey& key, const Ref& ref);
  // Drops the ref at `version`, whatever its memgest. True when it existed.
  bool Remove(const HashedKey& key, Version version);

  // All references for a key, descending by version.
  std::vector<Ref> Refs(const HashedKey& key) const;

  size_t key_count() const { return records_.size(); }
  size_t ref_count() const { return ref_count_; }
  // Heap bytes held: slots, records, older-ref lists and out-of-line keys.
  size_t ApproxBytes() const;
  void Clear();

 private:
  struct Record {
    Key key;
    uint64_t hash = 0;
    Ref newest;
    // Older refs, descending; null while the key has a single ref.
    std::unique_ptr<std::vector<Ref>> older;
  };
  struct Slot {
    uint32_t tag = 0;    // hash >> 32
    uint32_t index = 0;  // record index + 1; 0 marks an empty slot
  };
  static constexpr size_t kNotFound = ~size_t{0};

  size_t Home(uint64_t hash) const;
  // Slot of the key's record, kNotFound when absent.
  size_t SlotOf(const HashedKey& key) const;
  void Grow();
  // Empties `slot` and drops its record, keeping both arrays dense.
  void EraseRecord(size_t slot);

  std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
  std::vector<Record> records_;
  uint32_t shift_ = 64;  // 64 - log2(slots_.size())
  size_t ref_count_ = 0;
};

}  // namespace ring

#endif  // RING_SRC_RING_METADATA_H_
