// RingServer: one node of the Ring KVS (paper §4-§5).
//
// Each server plays up to three roles per memgest, derived from its slot in
// the cluster configuration:
//  - coordinator of its key shard (slot < s): owns the shard's virtual
//    address space, the volatile hashtable and the write path,
//  - replica for other shards of replicated memgests,
//  - parity node of erasure-coded memgests (redundant slots).
//
// All state mutations run as discrete-event work items on the node's
// single-threaded CPU model; messages travel over the simulated RDMA fabric.
#ifndef RING_SRC_RING_SERVER_H_
#define RING_SRC_RING_SERVER_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/race.h"
#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/consensus/config.h"
#include "src/net/fabric.h"
#include "src/ring/metadata.h"
#include "src/ring/page_store.h"
#include "src/ring/registry.h"
#include "src/ring/seq_window.h"
#include "src/ring/types.h"

namespace ring {

class RingRuntime;

// ---------------------------------------------------------------------------
// Client-facing request/response types. Requests are plain values: the
// server answers one by sending its reply value back to (client, req_id),
// where RingClient's in-flight table completes the op (RingClient::OnReply).
// RingClient hashes the key once (HashedKey); routing and the key directory
// reuse that hash. A request's op is obs::MakeOpId(client, req_id); the
// fabric delivers it as the handler's op context, so no field carries it.

struct GetResult {
  Status status;
  Version version = 0;
  std::shared_ptr<Buffer> data;
};

// The reply to a put, move or delete; deletes carry version 0. It is also
// what the at-most-once table records and resends to a retried request.
struct WriteReply {
  Status status;
  Version version = 0;
};

struct PutRequest {
  HashedKey key;
  std::shared_ptr<Buffer> value;
  MemgestId memgest = kDefaultMemgest;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  // Set when a peer relayed this request during a rebalance (§13). Forwarded
  // requests are never forwarded again — a stale second hop drops them and
  // the client's retry machinery takes over.
  bool forwarded = false;
};

struct GetRequest {
  HashedKey key;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  bool forwarded = false;
  // §16: kNonBlocking serves the newest committed version instead of
  // parking on an in-flight commit's quorum wait.
  ReadMode mode = ReadMode::kStrong;
};

struct MoveRequest {
  HashedKey key;
  MemgestId dst = kDefaultMemgest;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  // Internal re-entry of a move that was postponed on an uncommitted entry:
  // it already claimed its at-most-once slot, so the dedup check is skipped.
  bool resumed = false;
  bool forwarded = false;
};

struct DeleteRequest {
  HashedKey key;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  bool forwarded = false;
};

// Memgest management (leader-processed, paper §5.1). The reply is a
// Result<MemgestId>, or a Result<MemgestDescriptor> for
// kGetMemgestDescriptor.
struct AdminRequest {
  enum class Op {
    kCreateMemgest,
    kDeleteMemgest,
    kSetDefaultMemgest,
    kGetMemgestDescriptor,
  };
  Op op = Op::kCreateMemgest;
  MemgestDescriptor desc;
  MemgestId id = kDefaultMemgest;
  net::NodeId client = 0;
  uint64_t req_id = 0;
};

// Per-shard object store: a virtual address space (heap) plus the shard's
// metadata hashtable. Coordinators own one for their shard; every backup
// node holds one for each shard it backs: a replica's mirror, or a parity
// node's copy of the table, whose bytes go into the strip (§5.4: parity
// nodes store more metadata than data nodes) and whose heap stays empty.
// Keep it within 216 B (208 today): get_100node holds about 29,400 stores
// in 224-B malloc chunks, so a larger one moves its peak RSS (DESIGN.md
// §20).
struct ShardStore {
  PageStore heap;
  uint64_t next_addr = 0;
  uint64_t write_seq = 0;  // fencing counter for parity rebuild
  // Freed regions (addr, len), oldest first from free_head on; Allocate
  // takes the first that fits, almost always the one at free_head. Not a
  // std::deque: an empty one already holds about 576 B, on each of a
  // cluster's stores (some 29,400 on e2e get_100node).
  std::vector<std::pair<uint64_t, uint32_t>> free_list;
  size_t free_head = 0;
  MetadataTable meta;
  // Replay fence for duplicated backup writes on this backup store.
  SeqWindow replica_seqs;
  // GC notices that overtook their backup write on this backup store.
  EarlyGcSet early_gc;

  // Reuses a freed region when possible (keeps parity deltas cheap),
  // otherwise extends the heap. Returns (addr, region_len).
  std::pair<uint64_t, uint32_t> Allocate(uint32_t len);
};

// At-most-once table of a server's client mutations: the last kWindow
// claims, oldest first, each with the reply recorded for it (none while the
// op still executes). Clients pipeline their ops (the e2e_bench generators
// keep 128 in flight each), so the window counts claims across all clients:
// a duplicate that arrives after kWindow newer claims re-executes.
//
// Layout: a FIFO ring whose power-of-two capacity doubles as claims arrive,
// up to kWindow, under an open-addressed index of ring positions probed
// linearly, at most half full. Nothing iterates it, so its layout can
// never reach a schedule.
class ClientOpWindow {
 public:
  static constexpr size_t kWindow = 8192;

  // Claims (client, req_id) and returns null when the claim is new: the
  // caller executes the op. Otherwise returns the earlier claim's reply,
  // empty while that op still executes. A new claim evicts the oldest once
  // kWindow are held.
  const std::optional<WriteReply>* Claim(net::NodeId client, uint64_t req_id);
  // Records `reply` against the claim, if it is still in the window.
  void RecordReply(net::NodeId client, uint64_t req_id,
                   const WriteReply& reply);
  // ring-lint: ok(test-only-api) Claim's growth and eviction
  size_t size() const { return size_; }
  void Clear();

 private:
  struct Entry {
    uint64_t req_id = 0;
    net::NodeId client = 0;
    std::optional<WriteReply> reply;
  };
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinCapacity = 16;

  static uint64_t Hash(net::NodeId client, uint64_t req_id);
  // Index slot naming the claim, kNotFound when absent.
  size_t SlotOf(net::NodeId client, uint64_t req_id) const;
  // Points a free index slot at ring position `pos`.
  void IndexAt(size_t pos);
  // Doubles the ring, oldest claim first at position 0, and re-indexes it.
  void Grow();
  void EvictOldest();

  std::vector<Entry> ring_;       // capacity: power of two, <= kWindow
  std::vector<uint32_t> index_;   // ring position + 1; 0 marks a free slot
  size_t head_ = 0;               // position of the oldest claim
  size_t size_ = 0;
};

class RingServer {
 public:
  RingServer(RingRuntime* runtime, net::NodeId id);

  net::NodeId id() const { return id_; }
  bool serving() const { return serving_; }

  // Client entry points (invoked over the fabric).
  void HandlePut(PutRequest req);
  void HandleGet(GetRequest req);
  void HandleMove(MoveRequest req);
  void HandleDelete(DeleteRequest req);
  void HandleAdmin(AdminRequest req);

  // ---- peer messages ----
  // One backup write (§5.2-5.3): a coordinator's write-ahead entry shipped
  // to one redundancy slot. Replicas and parity nodes run one protocol and
  // differ only in the apply step: a replica copies the payload (the value)
  // into its heap mirror, a parity node multiplies the payload (the parity
  // delta) into its strip.
  struct BackupWrite {
    MemgestId memgest;
    uint32_t shard;
    // Group size s the shard id belongs to (§13). Parity buffers are
    // per-shape, so writes of different shapes never mix.
    uint32_t geom_s;
    HashedKey key;
    Version version;
    uint64_t addr;
    uint32_t len;
    uint32_t region_len;
    bool tombstone;
    // The entry is a moved-marker (§13): backed up like any write so the
    // marker survives coordinator failover.
    bool moved;
    // Set from the memgest's scheme: the payload is a parity delta and
    // `ordinal` a parity index (coefficient row).
    bool parity;
    std::shared_ptr<Buffer> payload;
    uint32_t ordinal;  // replica ordinal or parity index (ack bit)
    net::NodeId from;
    // Per-(memgest, shard) write sequence number: the replay fence for
    // chaos duplicates (each write applies exactly once per backup), and the
    // parity-rebuild fence (apply only seq > snapshot seq).
    uint64_t seq;
  };
  void HandleBackupWrite(BackupWrite msg);

  // Asynchronous removal of a GC'd version on redundancy nodes.
  struct GcNotice {
    MemgestId memgest;
    uint32_t shard;
    HashedKey key;
    Version version;
    uint32_t geom_s;  // shape of `shard`
  };
  void HandleGcNotice(GcNotice msg);

  // A promoted node finished *data* recovery for a redundancy role; the
  // coordinator may count it towards pending commits again.
  struct RedundancyRecovered {
    MemgestId memgest;
    uint32_t shard;
    uint32_t ordinal;
    uint32_t geom_s;  // shape of `shard`
  };
  void HandleRedundancyRecovered(RedundancyRecovered msg);

  struct Ack {
    MemgestId memgest;
    uint32_t shard;
    HashedKey key;
    Version version;
    uint32_t ordinal;  // replica ordinal or parity index
    uint32_t geom_s;   // shape of `shard`
  };
  // Acknowledgments arrive as one-sided RDMA writes into a completion region
  // the coordinator polls — no coordinator CPU is charged (DARE-style
  // offload, §6: "CPUs on redundant nodes are not involved").
  void ApplyAck(const Ack& msg);

  // ---- recovery protocol ----
  // A promoted spare asks a source node for a shard's metadata hashtable;
  // the source answers the requester's HandleMetaFetchReply with the same
  // `fetch_id`. The reply also carries the source's replay-fence high-water
  // mark for the shard: a backup store's highest applied write sequence, or
  // a coordinator store's write_seq. A promoted coordinator
  // numbers its writes above it, or the backups would swallow them as
  // replays.
  struct MetaFetch {
    MemgestId memgest;
    uint32_t shard;
    net::NodeId requester;
    uint32_t geom_s;  // shape of `shard`
    uint64_t fetch_id;
  };
  void HandleMetaFetch(MetaFetch msg);
  void HandleMetaFetchReply(uint64_t fetch_id,
                            std::shared_ptr<MetadataTable> table,
                            uint64_t fence);

  // On-demand erasure-coded block recovery (paper §5.5): a data node asks a
  // parity node to reconstruct `len` bytes at `addr` of `shard`.
  struct RecoverBlock {
    MemgestId memgest;
    uint32_t shard;
    uint64_t addr;
    uint32_t len;
    net::NodeId requester;
    uint32_t geom_s;  // shape of `shard`
    std::function<void(std::shared_ptr<Buffer>)> reply;
  };
  void HandleRecoverBlock(RecoverBlock msg);

  // ---- elastic rebalance protocol (§13) ----
  // Driver -> node: report keys this node still serves at the previous
  // shape (old-placement coordinator duty not yet handed over).
  struct RebalanceScan {
    uint32_t max_keys = 0;  // 0 = unbounded
    net::NodeId requester = 0;
    std::function<void(std::vector<Key>)> reply;
  };
  void HandleRebalanceScan(RebalanceScan msg);

  // Driver -> old-shape owner: migrate one key to its new-shape owner.
  // Idempotent; replies kOk once the new owner has durably installed the
  // key (or it was already handed over / re-encoded).
  struct MigrateKey {
    Key key;
    net::NodeId requester = 0;
    std::function<void(Status)> reply;
  };
  void HandleMigrateKey(MigrateKey msg);

  // Old owner -> new owner: install the key's latest contents under the new
  // shape at a version >= floor (the moved-marker version, which fences all
  // old-shape writes below it).
  struct InstallKey {
    MemgestId memgest;
    Key key;
    Version floor = 0;
    std::shared_ptr<Buffer> value;  // nullptr together with tombstone=true
    bool tombstone = false;
    net::NodeId from;
    std::function<void(Status)> ack;  // runs back at the old owner
  };
  void HandleInstallKey(InstallKey msg);

  // Membership callback: reconfiguration / spare promotion (paper §5.5).
  void OnConfig(const consensus::ClusterConfig& config);

  // §16: a fenced node's in-flight quorum rounds can never complete (its
  // append/ack paths NACK), so drop their bookkeeping — clients finish via
  // retry against the promoted owner. Runs when a config marks this node
  // failed.
  void AbandonPendingWrites();

  // Crash-recovery: the process rebooted memory-less. Clears all store
  // state; the node re-enters as a non-serving spare and (if the cluster
  // readmits it into its old slot) rebuilds through the normal promotion
  // path. The fabric node object itself survives — in-flight closures hold
  // raw pointers to it.
  void Restart();

  // ---- introspection (tests & benches) ----
  struct Counters {
    uint64_t puts = 0;
    uint64_t moves = 0;
    uint64_t parity_updates = 0;
    uint64_t replica_appends = 0;
    uint64_t blocks_recovered = 0;
    uint64_t deferred_gets = 0;
    // kNonBlocking reads answered from an older committed version while the
    // newest version's quorum was still in flight (§16).
    uint64_t nonblocking_gets = 0;
    // Duplicate client requests answered from the at-most-once table.
    uint64_t resent_replies = 0;
    // Duplicate backup messages absorbed by the replay fences.
    uint64_t dup_backups = 0;
    // Backup messages resent by the write-retransmit timer.
    uint64_t retransmits = 0;
    // Reads/moves that found their version garbage-collected (region
    // reused) after the data-copy CPU charge and restarted resolution —
    // the validate-and-retry of the paper's optimistic one-sided reads.
    uint64_t op_restarts = 0;
    // ---- elastic rebalance (§13) ----
    // Client requests relayed to the key's authoritative owner during a
    // shape transition.
    uint64_t forwards = 0;
    // Requests dropped by epoch fencing (stale shape, mid-handoff).
    uint64_t fenced_drops = 0;
    // Keys handed to a new-shape owner (marker + install completed).
    uint64_t keys_migrated = 0;
    // Payload bytes shipped in acknowledged installs (old-owner side).
    uint64_t bytes_moved = 0;
    // Keys re-encoded locally (owner unchanged, shape changed).
    uint64_t keys_reencoded = 0;
    // InstallKey messages applied (new-owner side).
    uint64_t installs = 0;
  };
  const Counters& counters() const { return counters_; }

  // Serialized size of all metadata hashtables on this node (Fig. 12 x-axis).
  uint64_t TotalMetadataBytes() const;
  // Bytes of heap/parity memory allocated (high-water marks).
  uint64_t StoredBytes() const;
  // Bytes attributable to *live* objects: region bytes of every metadata
  // entry on this node, 1/k of them for a parity copy's entries (a parity
  // node's amortized share of a balanced stripe). This is the measure the
  // memory-saving use cases (§2, §6.2) compare.
  uint64_t LiveBytes() const;
  // Duration of the last completed promotion (metadata recovery), ns.
  uint64_t last_recovery_ns() const { return last_recovery_ns_; }

  // Model-checker state fingerprint (src/mc): order-insensitive hash of this
  // node's committed key-value state — (memgest, store, key, version,
  // tombstone, value bytes) tuples, sorted before hashing so unordered-map
  // iteration order and heap placement never leak in. Excludes timestamps,
  // counters and in-flight entries: schedules that commute must digest equal.
  uint64_t McStateDigest() const;
  // Key-directory audit (DESIGN.md §19.4); sends no messages and changes
  // nothing. Every ref's handles name the live entry at its (key, version),
  // every ref resolves to the entry FindEntry returns, each key's refs
  // descend strictly by version, no ref outlives its key's entries, and on
  // a serving node every indexed entry of a shard it coordinates owns a
  // ref. Returns "" when all hold, else the first violation.
  std::string CheckKeyDirectory() const;
  // Writes still awaiting redundancy acks (un-committed, acks outstanding).
  // The MC wedged-write oracle: after full quiesce this must be zero.
  uint64_t PendingWrites() const;
  // GC-notice records still waiting for the redundancy write they collect,
  // over every backup store (each holds at most EarlyGcSet::kWindow).
  uint64_t EarlyGcRecords() const;
  // Committed, non-tombstone, non-moved versions of `key` held on this node,
  // newest first, deduplicated across stores. The §16 multiversion GC bound
  // tests assert |result| ≤ ν+1 at quiescence and that the newest committed
  // version is never evicted.
  std::vector<Version> RetainedCommittedVersions(const Key& key) const;

  // Raw heap bytes for peer-driven recovery (RDMA read target: runs at this
  // node without CPU involvement). Returns zeros beyond the heap extent.
  // Like every helper here, `geom_s` is the shape the shard id belongs to.
  Buffer ReadRawForRecovery(MemgestId memgest, uint32_t shard, uint64_t addr,
                            uint32_t len, uint32_t geom_s);
  // Raw parity bytes (RDMA read target), zeros beyond extent.
  Buffer ReadRawParity(MemgestId memgest, uint32_t group, uint64_t addr,
                       uint32_t len, uint32_t geom_s);
  // True when this node's parity buffer for `memgest`/`group` under shape
  // `geom_s` is usable for decode.
  bool ParityUsable(MemgestId memgest, uint32_t group, uint32_t geom_s) const;
  // True when this node's store of `shard` under shape `geom_s` holds the
  // bytes of every entry, so its heap is a decode source. A promotion that
  // is still fetching metadata or recovering bytes leaves holes.
  bool DataUsable(MemgestId memgest, uint32_t shard, uint32_t geom_s) const;
  // Current heap extent and write fence of a shard store (RDMA-read targets
  // during parity rebuild).
  uint64_t HeapExtent(MemgestId memgest, uint32_t shard, uint32_t geom_s) const;
  uint64_t WriteSeq(MemgestId memgest, uint32_t shard, uint32_t geom_s) const;
  // Drops all local state of a deleted memgest (leader broadcast target).
  void ApplyMemgestDelete(MemgestId memgest);

 private:
  // A parity node's strip for one group of an erasure-coded memgest. The
  // copies of the group's shard tables, their replay fences and early-GC
  // records live in the node's stores, as a replica's do.
  struct ParityStore {
    uint32_t parity_index = 0;
    PageStore mem;
    // False on a freshly promoted parity node until the buffer is
    // reconstructed from the data shards; unrebuilt parity must not serve
    // decodes and queues incoming updates.
    bool rebuilt = true;
    std::vector<BackupWrite> queued;
  };

  // A memgest's shard stores sorted by GeomKey: lookups binary-search one
  // contiguous array (about 300 stores per node on a 100-server cluster) and
  // iteration stays in key order for recovery and purge. Each store is its
  // own allocation, so references to it survive inserts.
  class StoreTable {
   public:
    using Slot = std::pair<uint32_t, std::unique_ptr<ShardStore>>;

    ShardStore* Find(uint32_t key) const {
      const auto it =
          std::lower_bound(slots_.begin(), slots_.end(), key, KeyLess);
      return it != slots_.end() && it->first == key ? it->second.get()
                                                    : nullptr;
    }
    ShardStore& FindOrCreate(uint32_t key) {
      auto it = std::lower_bound(slots_.begin(), slots_.end(), key, KeyLess);
      if (it == slots_.end() || it->first != key) {
        it = slots_.emplace(it, key, std::make_unique<ShardStore>());
      }
      return *it->second;
    }
    // Drops every store whose key satisfies `pred`.
    template <typename Pred>
    void EraseIf(Pred pred) {
      std::erase_if(slots_, [&pred](const Slot& s) { return pred(s.first); });
    }

    std::vector<Slot>::iterator begin() { return slots_.begin(); }
    std::vector<Slot>::iterator end() { return slots_.end(); }
    std::vector<Slot>::const_iterator begin() const { return slots_.begin(); }
    std::vector<Slot>::const_iterator end() const { return slots_.end(); }

   private:
    static bool KeyLess(const Slot& s, uint32_t key) { return s.first < key; }
    std::vector<Slot> slots_;
  };

  struct MemgestState {
    const MemgestInfo* info = nullptr;
    // Own shards, replica mirrors and parity copies, keyed by
    // GeomKey(geom_s, shard) so each shape keeps a private address space
    // (§13).
    StoreTable stores;
    // Parity stores, one per (shape, group) whose rotation put a parity role
    // on this node (§5.4 balancing: with groups > 1 parity spreads out),
    // keyed by GeomKey(geom_s, group).
    std::map<uint32_t, ParityStore> parity;
    uint64_t log_len = 0;
  };

  sim::CpuWorker& cpu();
  obs::Hub& hub();
  // The one way server work reaches the CPU: charges `cost_ns` on this
  // node's core and runs `fn` when the charge completes, under the op that
  // is current now (sim::CpuWorker carries it). A dead node neither charges
  // nor runs: liveness is checked here and again when the charge completes,
  // so work queued before a crash dies with the node. Returns the completion
  // time, 0 when nothing was charged.
  template <typename Fn>
  sim::SimTime OnCpu(uint64_t cost_ns, Fn fn);
  // Marks the last `coding_ns` of a CPU charge that completes at `done` (an
  // OnCpu result) as GF work, so the breakdown splits coding out of plain
  // CPU time. Nothing when either is 0.
  void TraceCodingTail(const char* name, uint64_t op, sim::SimTime done,
                       uint64_t coding_ns);
  // Race-detector hook: logs an access to a declared region of this node's
  // protocol state ([lo, hi) bytes within `scope` of `kind`). One branch and
  // out when analysis is off.
  void NoteAccess(analysis::RegionKind kind, analysis::AccessKind access,
                  uint64_t scope, uint64_t lo, uint64_t hi, const char* site);
  bool IsAlive() const;
  // True when `node` is a usable peer: live on the fabric and not failed in
  // this node's config.
  bool PeerAlive(net::NodeId node) const;
  // True when this node currently coordinates `shard`.
  bool Coordinates(uint32_t shard) const;

  // ---- elastic rebalance helpers (§13) ----
  // Placement view for a shape: the current s -> current placement; the
  // previous shape only while rebalancing(); nullopt otherwise — the caller
  // treats that as an epoch-fenced (stale) operation and drops.
  std::optional<consensus::Placement> PlacementFor(uint32_t geom_s) const;
  // Routing decision for a client op on `key`. On a static cluster this is
  // the plain Coordinates check; during a rebalance the key is served by
  // its old-shape owner until its moved-marker lands, then by the new-shape
  // owner, with one forwarding hop bridging stale client configs.
  struct RouteAction {
    enum class Kind { kServe, kForward, kDrop };
    Kind kind = Kind::kDrop;
    uint32_t shard = 0;      // kServe: shard id under `geom_s`
    uint32_t geom_s = 0;     // kServe: shape the shard id belongs to
    net::NodeId target = 0;  // kForward
  };
  RouteAction RouteKey(const HashedKey& key, bool forwarded);
  // Admission of a client op (put, get, move, delete) once it runs on this
  // node's CPU: forwards `req` to the key's owner (Handle is the owner's
  // entry point, `payload_bytes` the value bytes riding along) or drops it,
  // and returns the route only when this node serves the key.
  template <auto Handle, typename Req>
  std::optional<RouteAction> Route(Req& req, uint64_t payload_bytes);
  // Where an entry lives: the entry, its store, and the store's shard id
  // and shape. `entry` and `store` are null when nothing was found.
  struct EntryLoc {
    MetaEntry* entry = nullptr;
    ShardStore* store = nullptr;
    uint32_t shard = 0;
    uint32_t geom = 0;
  };
  // Entry lookup across the live shapes: tries the current-shape shard,
  // then (while rebalancing) the previous-shape shard. The reference
  // semantics of a directory ref; the hot paths use EntryOf instead.
  EntryLoc FindEntry(const MemgestInfo& info, const HashedKey& key,
                     Version version) const;
  // What FindEntry returns for `ref` (a ref of `key` in `info`): the ref's
  // handles when they name a current-shape store, else FindEntry itself —
  // during a resize a current-shape copy of the same (key, version) takes
  // precedence over the previous-shape entry a handle names (DESIGN.md
  // §19).
  EntryLoc EntryOf(const MemgestInfo& info, const HashedKey& key,
                   const VolatileIndex::Ref& ref) const;
  // The entry at (key, version) in `info`'s store GeomKey(geom_s, shard),
  // re-probed by hash: a ref's handles are trusted only while the ref
  // exists and names that store; otherwise the store's table answers
  // (creating a missing store, as StoreOf does).
  EntryLoc StoreEntry(const MemgestInfo& info, uint32_t shard,
                      uint32_t geom_s, const HashedKey& key, Version version);
  // Erases a coordinator entry together with its directory ref. Every
  // erase of an indexed entry goes through here (or drops the whole
  // directory with the stores), so a ref never outlives its entry.
  void EraseIndexed(ShardStore& store, const HashedKey& key,
                    Version version);
  // Shard stores and parity stores are keyed per (shape, shard-or-group):
  // each geometry gets its own heap address space and stripe buffers, so
  // parity accumulated under one stripe layout never mixes with bytes laid
  // out under another.
  // The key orders a StoreTable by shape, then index, and the race
  // detector's parity-strip scopes embed it, so its packing is fixed.
  static constexpr uint32_t GeomKey(uint32_t geom_s, uint32_t idx) {
    return (geom_s << 16) | idx;
  }
  // GeomKey's inverse: the shape and the shard (or group) index of a key.
  static constexpr uint32_t GeomOfKey(uint32_t key) { return key >> 16; }
  static constexpr uint32_t IndexOfKey(uint32_t key) { return key & 0xffffu; }
  // Race-detector scopes: each RegionKind splits into one address space
  // per (memgest, sub). `sub` is the shard for heap bytes, metadata, ack
  // and commit words, and GeomKey(shape, group) for a parity strip, so a
  // strip's delta applies, rebuild and one-sided reads share one scope.
  static constexpr uint64_t ScopeOf(MemgestId memgest, uint32_t sub) {
    return (static_cast<uint64_t>(memgest) << 32) | sub;
  }
  // True when `state`'s store `store_key` is a parity copy: this node keeps
  // the strip of the store's group, so the store holds the shard's table
  // and no bytes. A data node never keeps the strip of its own group.
  static bool IsParityCopy(const MemgestState& state, uint32_t store_key) {
    const uint32_t geom = GeomOfKey(store_key);
    return state.parity.contains(GeomKey(geom, IndexOfKey(store_key) / geom));
  }
  // Drops every entry, store and parity buffer of shapes other than the
  // current one; runs on the rebalancing -> static config edge.
  void PurgeStaleGeometries();
  // §13 handoff step 2: after the moved-marker at `floor` committed, ship
  // the key's latest durable contents to its new-shape owner and reply to
  // the driver once the install is acknowledged.
  void SendInstall(const MemgestInfo& info, const HashedKey& key,
                   Version floor, std::function<void(Status)> reply);

  MemgestState& StateOf(const MemgestInfo& info);
  // The store for `shard` under shape `geom_s`.
  ShardStore& StoreOf(MemgestState& state, uint32_t shard, uint32_t geom_s);

  // Write path pieces. `shard` is a shard id under `geom_s`; `moved` writes
  // a §13 moved-marker entry. `on_commit` runs once the write commits, as
  // the entry's first waiter.
  void StartWrite(const MemgestInfo& info, uint32_t shard,
                  const HashedKey& key, Version version,
                  std::shared_ptr<Buffer> value, bool tombstone,
                  std::function<void()> on_commit, uint32_t geom_s,
                  bool moved = false);
  // Sends backup write `ordinal` (replica ordinal or parity index) of
  // `entry`, an un-committed write of `key` in `info`'s `shard`, to the
  // ordinal's slot (Placement::BackupSlot), built from the entry and its
  // PendingWrite. The slot's node is resolved under the write's shape on
  // every (re)send, so a retransmission after a promotion reaches the new
  // slot owner, and dies if the shape was retired (epoch fencing).
  void SendBackup(const MemgestInfo& info, uint32_t shard,
                  const HashedKey& key, const MetaEntry& entry,
                  uint32_t ordinal);
  // Deposits `ack` in `coordinator`'s completion region (one-sided write).
  void SendAck(net::NodeId coordinator, const Ack& ack);
  // Parks `fn` on `entry` until it commits; it runs under the op current
  // now.
  void ParkUntilCommit(MetaEntry& entry, std::function<void()> fn);
  // Commits `entry`, an un-committed write of `key` in `info`'s `shard`.
  void CommitEntry(const MemgestInfo& info, uint32_t shard,
                   const HashedKey& key, MetaEntry& entry);
  // Resends un-acked backup messages for a pending write every
  // write_retransmit_ns until it commits (no-op when the period is 0).
  void ScheduleWriteRetransmit(MemgestId gid, uint32_t shard, uint32_t geom_s,
                               const HashedKey& key, Version version);
  void GcOldVersions(const HashedKey& key, Version below);

  // Read path pieces.
  // Resolves the highest version of req.key and dispatches DeliverGet.
  // Called once per get and again whenever validate-and-retry detects that
  // the resolved version was garbage-collected mid-read.
  void ResolveGet(GetRequest req);
  void DeliverGet(const MemgestInfo& info, uint32_t shard, uint32_t geom_s,
                  MetaEntry* entry, GetRequest req);
  // The get's data copy once `entry`'s bytes are local: charges the copy
  // and re-validates the version before reading (validate-and-retry).
  void CopyForGet(const MemgestInfo& info, uint32_t shard, uint32_t geom_s,
                  const MetaEntry& entry, GetRequest req);
  // Makes the bytes of (key, version) local, recovering them from a backup
  // when a promotion left them behind, and calls `then`: OK, DataLoss when
  // no live source holds them, NotFound when the entry was collected and
  // FailedPrecondition when its shape retired. A get or move restarts on
  // the last two; only DataLoss reaches the client.
  void EnsureDataPresent(const MemgestInfo& info, uint32_t shard,
                         uint32_t geom_s, const Key& key, Version version,
                         std::function<void(Status)> then);
  // Validate-and-retry: `version`, which the op read, is gone or changed;
  // the op resolves the key afresh (a get through ResolveGet, a move as a
  // resumed HandleMove).
  void RestartGet(Version version, GetRequest req);
  void RestartMove(Version version, MoveRequest req);

  // Recovery pieces. `geom_s` selects the shape a shard id belongs to;
  // during a rebalance a promoted node recovers both shapes.
  //
  // The promotion this node runs (§5.5), from BeginPromotion until its
  // background data recovery is done. Restart, a demotion and a config that
  // marks this node failed end it, and so does a newer promotion. Every
  // later step of an ended promotion (a metadata reply or its retry timer,
  // an install, FinishPromotion's charge, a store-recovery step, a parity
  // rebuild's assemble) finds no record under its id and drops.
  struct Promotion {
    // One metadata fetch: `shard`'s table under `geom_s`, for a coordinator
    // or replica role or a parity role's copy, from the holder at
    // `src_slot`.
    struct Fetch {
      const MemgestInfo* info;
      uint32_t shard;
      uint32_t geom_s;
      bool as_parity;
      int32_t src_slot;
      // The reply is in hand: the timer stops re-sending, duplicates drop.
      bool answered = false;
    };
    uint64_t id = 0;
    sim::SimTime start = 0;
    std::map<uint64_t, Fetch> fetches;  // by fetch id, until installed
    size_t recoveries_left = 0;  // background recovery steps still running
  };
  // Creates the record and sends one metadata fetch per role and source.
  void BeginPromotion(uint32_t new_slot);
  bool PromotionLive(uint64_t id) const {
    return promotion_.has_value() && promotion_->id == id;
  }
  // A fetch of the running promotion, null once installed or ended.
  Promotion::Fetch* FindFetch(uint64_t fetch_id);
  // Sends fetch `fetch_id`, and again every kMetaFetchRetryNs while it is
  // unanswered: a lost MetaFetch must not wedge the promotion.
  void SendMetaFetch(uint64_t fetch_id);
  // Runs after the last install: rebuilds the volatile index, starts
  // serving and starts background data recovery.
  void FinishPromotion();
  // Alive holders of a shard's metadata, preference-ordered. All of them
  // for replicated schemes (quorum commit: survivors must be unioned), one
  // for erasure coding (every parity node has the full table).
  std::vector<int32_t> AliveMetaSources(const MemgestInfo& info,
                                        uint32_t shard, uint32_t geom_s) const;
  void RebuildVolatileIndex();
  void NotifyRedundancyRecovered();
  // Background reconstruction of every missing object and unrebuilt parity
  // strip; each step reports to RecoveryDone.
  void RecoverAllData();
  // One background step of promotion `id` ended; the last one announces
  // the node's redundancy roles and ends the promotion.
  void RecoveryDone(uint64_t id);
  void RebuildParity(uint64_t id, const MemgestInfo& info, uint32_t pkey);
  // Once every strip snapshot of RebuildParity is taken: re-encodes the
  // strip and drains the updates queued meanwhile.
  struct ShardSnapshot {
    std::shared_ptr<Buffer> bytes;  // null until taken; empty for a dead node
    uint64_t seq = 0;
    uint64_t extent = 0;
  };
  void AssembleParity(uint64_t id, const MemgestInfo& info, uint32_t pkey,
                      std::shared_ptr<std::vector<ShardSnapshot>> snaps,
                      sim::SimTime start);
  // A parity node's apply step: multiplies the delta of `msg` into the
  // strip of its group.
  void ApplyParityBytes(const MemgestInfo& info, const BackupWrite& msg);
  // Inserts the metadata copy `msg` carries into `backup`, this node's store
  // of its shard, unless a GC notice already collected the version
  // (EarlyGcSet).
  void InsertBackupMeta(ShardStore& backup, const BackupWrite& msg);
  // A GC notice found nothing to erase: record the version in the store its
  // redundancy write will land in.
  // `state` is the memgest's state on this node, null when it has none yet.
  void RecordEarlyGc(MemgestState* state, const GcNotice& msg, uint32_t geom);
  void RecoverStoreEntries(uint64_t id, const MemgestInfo& info,
                           uint32_t shard, uint32_t geom_s,
                           std::vector<std::pair<Key, Version>> todo,
                           size_t next);

  // Sends `reply` (a WriteReply, GetResult or admin Result) to the client
  // endpoint at node `client`, which completes its op `req_id` with it.
  template <typename Reply>
  void ReplyToClient(net::NodeId client, uint64_t req_id, uint64_t bytes,
                     Reply reply);
  void SendToNode(net::NodeId node, uint64_t bytes, sim::Task fn);

  // At-most-once execution of client mutations. ClaimClientOp returns true
  // exactly once per (client, req_id): the caller may execute the operation.
  // On a duplicate whose reply was already produced, the recorded reply is
  // resent; a duplicate of a still-executing op is ignored (the pending
  // reply will reach the client). ReplyToClientOnce records the reply value
  // against the claim so later duplicates can resend it.
  bool ClaimClientOp(net::NodeId client, uint64_t req_id);
  void ReplyToClientOnce(net::NodeId client, uint64_t req_id,
                         WriteReply reply);

  RingRuntime* rt_;
  net::NodeId id_;
  consensus::ClusterConfig config_;
  VolatileIndex volatile_index_;
  std::map<MemgestId, MemgestState> memgests_;
  bool serving_ = true;  // spares flip to false until promoted & recovered
  bool is_spare_ = true;
  // Set while the cluster considers this node failed (its slot was marked
  // dark). Cleared when a later config readmits it; the transition drives
  // the rejoin edge in OnConfig.
  bool excluded_ = false;
  uint64_t last_recovery_ns_ = 0;
  std::optional<Promotion> promotion_;
  // Promotion and fetch ids are never reused, so nothing of an ended
  // promotion matches a later one.
  uint64_t last_recovery_id_ = 0;
  Counters counters_;
  ClientOpWindow client_op_window_;
};

template <typename Fn>
sim::SimTime RingServer::OnCpu(uint64_t cost_ns, Fn fn) {
  if (!IsAlive()) {
    return 0;
  }
  // ring-lint: ok(server-admission) the one CPU admission point
  return cpu().Execute(cost_ns, [this, fn = std::move(fn)]() mutable {
    if (IsAlive()) {
      fn();
    }
  });
}

}  // namespace ring

#endif  // RING_SRC_RING_SERVER_H_
