#include "src/ring/server.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/gf/gf256.h"
#include "src/ring/client.h"
#include "src/ring/runtime.h"

namespace ring {
namespace {

// Fixed header bytes of a client request / peer message on the wire.
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kAckBytes = 48;
constexpr uint64_t kReplyBytes = 48;

uint64_t ReqBytes(size_t key_len, size_t payload) {
  return kHeaderBytes + key_len + payload;
}

// ---- race-detector region addressing (scopes: RingServer::ScopeOf) ----
using analysis::AccessKind;
using analysis::RegionKind;

// The volatile index is node-wide, not per-memgest.
constexpr uint64_t kVersionScope = 0xFFFFFFFFull << 32;

// Word regions (version/commit/ack) use a mixed (key, version) hash as the
// byte address.
uint64_t EntryWord(const HashedKey& key, Version version) {
  return key.hash() ^ (version * 0x9E3779B97F4A7C15ull);
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardStore

std::pair<uint64_t, uint32_t> ShardStore::Allocate(uint32_t len) {
  // First fit over freed regions: reuse keeps the address space compact and
  // makes erasure-coded deltas cover previously-scrubbed content for free.
  for (size_t i = free_head; i < free_list.size(); ++i) {
    if (free_list[i].second >= len) {
      const auto region = free_list[i];
      if (i == free_head) {
        ++free_head;
      } else {
        free_list.erase(free_list.begin() + static_cast<long>(i));
      }
      // Drop the taken prefix once it is half the list: O(1) amortized.
      if (2 * free_head >= free_list.size()) {
        free_list.erase(free_list.begin(),
                        free_list.begin() + static_cast<long>(free_head));
        free_head = 0;
      }
      return region;
    }
  }
  const uint64_t addr = next_addr;
  next_addr += len;
  heap.Grow(next_addr);
  return {addr, len};
}

// ---------------------------------------------------------------------------
// Construction / small helpers

RingServer::RingServer(RingRuntime* runtime, net::NodeId id)
    : rt_(runtime), id_(id), config_(runtime->membership().ConfigView(id)) {
  is_spare_ = (config_.slot_of_node[id_] == consensus::kSpareSlot);
  serving_ = !is_spare_;
}

sim::CpuWorker& RingServer::cpu() { return rt_->fabric().cpu(id_); }

obs::Hub& RingServer::hub() { return rt_->simulator().hub(); }

void RingServer::NoteAccess(RegionKind kind, AccessKind access,
                            uint64_t scope, uint64_t lo, uint64_t hi,
                            const char* site) {
  analysis::RaceDetector* race = rt_->simulator().race();
  if (race == nullptr) {
    return;
  }
  analysis::Region region;
  region.node = id_;
  region.kind = kind;
  region.scope = scope;
  region.lo = lo;
  region.hi = hi;
  race->OnAccess(region, access, site, rt_->simulator().now(),
                 hub().current_op());
}

bool RingServer::IsAlive() const { return rt_->fabric().alive(id_); }

bool RingServer::PeerAlive(net::NodeId node) const {
  return !config_.failed[node] && rt_->fabric().alive(node);
}

void RingServer::TraceCodingTail(const char* name, uint64_t op,
                                 sim::SimTime done, uint64_t coding_ns) {
  if (coding_ns > 0 && done != 0) {
    hub().tracer().Record(name, obs::Category::kCoding, id_, op,
                          done - coding_ns, done);
  }
}

bool RingServer::Coordinates(uint32_t shard) const {
  return serving_ && config_.CoordinatesShard(id_, shard);
}

RingServer::MemgestState& RingServer::StateOf(const MemgestInfo& info) {
  MemgestState& state = memgests_[info.id];
  state.info = &info;
  return state;
}

ShardStore& RingServer::StoreOf(MemgestState& state, uint32_t shard,
                                uint32_t geom_s) {
  return state.stores.FindOrCreate(GeomKey(geom_s, shard));
}

std::optional<consensus::Placement> RingServer::PlacementFor(
    uint32_t geom_s) const {
  if (geom_s == config_.s) {
    return config_.Current();
  }
  if (config_.rebalancing() && geom_s == config_.prev_s) {
    return config_.Previous();
  }
  return std::nullopt;  // retired shape: the operation is epoch-fenced
}

RingServer::EntryLoc RingServer::FindEntry(const MemgestInfo& info,
                                           const HashedKey& key,
                                           Version version) const {
  const auto it = memgests_.find(info.id);
  if (it == memgests_.end()) {
    return EntryLoc{};
  }
  const auto find_in = [&](uint32_t geom, uint32_t shard) {
    ShardStore* store = it->second.stores.Find(GeomKey(geom, shard));
    MetaEntry* e =
        store == nullptr ? nullptr : store->meta.Find(key.str(), version);
    return e == nullptr ? EntryLoc{} : EntryLoc{e, store, shard, geom};
  };
  EntryLoc loc = find_in(config_.s, key.Shard(config_.Current().num_shards()));
  if (loc.entry == nullptr && config_.rebalancing()) {
    loc = find_in(config_.prev_s, key.Shard(config_.Previous().num_shards()));
  }
  return loc;
}

RingServer::EntryLoc RingServer::EntryOf(const MemgestInfo& info,
                                         const HashedKey& key,
                                         const VolatileIndex::Ref& ref) const {
  if (GeomOfKey(ref.store_key) == config_.s) {
    return EntryLoc{ref.entry, ref.store, IndexOfKey(ref.store_key),
                    config_.s};
  }
  return FindEntry(info, key, ref.version);
}

RingServer::EntryLoc RingServer::StoreEntry(const MemgestInfo& info,
                                            uint32_t shard, uint32_t geom_s,
                                            const HashedKey& key,
                                            Version version) {
  if (const VolatileIndex::Ref* ref = volatile_index_.Find(key, version);
      ref != nullptr && ref->memgest == info.id &&
      ref->store_key == GeomKey(geom_s, shard)) {
    return EntryLoc{ref->entry, ref->store, shard, geom_s};
  }
  ShardStore& store = StoreOf(StateOf(info), shard, geom_s);
  return EntryLoc{store.meta.Find(key.str(), version), &store, shard, geom_s};
}

void RingServer::EraseIndexed(ShardStore& store, const HashedKey& key,
                              Version version) {
  store.meta.Erase(key.str(), version);
  volatile_index_.Remove(key, version);
}

RingServer::RouteAction RingServer::RouteKey(const HashedKey& key,
                                             bool forwarded) {
  RouteAction act;  // defaults to kDrop
  const uint32_t cur_shard = key.Shard(config_.Current().num_shards());
  if (!config_.rebalancing()) {
    // Static cluster: the plain coordinator check, zero extra work.
    if (Coordinates(cur_shard)) {
      act.kind = RouteAction::Kind::kServe;
      act.shard = cur_shard;
      act.geom_s = config_.s;
    }
    return act;
  }
  const consensus::Placement prev = config_.Previous();
  const uint32_t prev_shard = key.Shard(prev.num_shards());
  const net::NodeId old_owner = prev.CoordinatorOfShard(prev_shard);
  const net::NodeId new_owner =
      config_.Current().CoordinatorOfShard(cur_shard);
  if (old_owner == new_owner) {
    // Ownership unchanged by the resize (the key may still need a local
    // re-encode, which the rebalance driver performs in place).
    if (serving_ && id_ == new_owner) {
      act.kind = RouteAction::Kind::kServe;
      act.shard = cur_shard;
      act.geom_s = config_.s;
    }
    return act;
  }
  if (id_ == new_owner && serving_) {
    // The new owner serves only keys already installed here; everything else
    // still lives with the old owner. One forwarding hop bridges clients
    // with a fresher config than the key's migration state.
    if (volatile_index_.Highest(key) != nullptr) {
      act.kind = RouteAction::Kind::kServe;
      act.shard = cur_shard;
      act.geom_s = config_.s;
      return act;
    }
    if (!forwarded && !config_.failed[old_owner]) {
      act.kind = RouteAction::Kind::kForward;
      act.target = old_owner;
    }
    return act;
  }
  if (id_ == old_owner && serving_) {
    // The old owner serves until the key's moved-marker exists, then points
    // at the new owner. The marker fences even before it commits: a write
    // accepted above an in-flight marker would be lost at handoff, so the
    // moment the marker is written every op re-routes (and retries until
    // the new owner has the install).
    bool handed_over = false;
    if (const VolatileIndex::Ref* ref = volatile_index_.Highest(key);
        ref != nullptr) {
      if (const MemgestInfo* info = rt_->registry().Get(ref->memgest);
          info != nullptr) {
        const MetaEntry* e = EntryOf(*info, key, *ref).entry;
        handed_over = e != nullptr && e->moved;
      }
    }
    if (!handed_over) {
      act.kind = RouteAction::Kind::kServe;
      act.shard = prev_shard;
      act.geom_s = config_.prev_s;
      return act;
    }
    if (!forwarded && !config_.failed[new_owner]) {
      act.kind = RouteAction::Kind::kForward;
      act.target = new_owner;
    }
    return act;
  }
  return act;
}

template <auto Handle, typename Req>
std::optional<RingServer::RouteAction> RingServer::Route(
    Req& req, uint64_t payload_bytes) {
  const RouteAction route = RouteKey(req.key, req.forwarded);
  if (route.kind == RouteAction::Kind::kServe) {
    return route;
  }
  if (route.kind == RouteAction::Kind::kForward) {
    ++counters_.forwards;
    hub().metrics().Inc("server.forwards", 1, id_);
    auto* peer = rt_->server(route.target);
    req.forwarded = true;
    // Hoisted: the capture below moves `req`, and argument evaluation order
    // would otherwise read the gutted key and undercount the wire size.
    const uint64_t bytes = ReqBytes(req.key.str().size(), payload_bytes);
    SendToNode(route.target, bytes, [peer, req = std::move(req)]() mutable {
      (peer->*Handle)(std::move(req));
    });
    return std::nullopt;
  }
  // Not responsible (or mid-handoff): the client's retry / multicast takes
  // over.
  if (config_.rebalancing()) {
    ++counters_.fenced_drops;
  }
  return std::nullopt;
}

template <typename Reply>
void RingServer::ReplyToClient(net::NodeId client, uint64_t req_id,
                               uint64_t bytes, Reply reply) {
  RingRuntime* rt = rt_;
  rt_->fabric().Send(id_, client, bytes,
                     [rt, client, req_id, reply = std::move(reply)]() mutable {
                       if (RingClient* endpoint = rt->client(client)) {
                         endpoint->OnReply(req_id, std::move(reply));
                       }
                     });
}

void RingServer::SendToNode(net::NodeId node, uint64_t bytes, sim::Task fn) {
  rt_->fabric().Send(id_, node, bytes, std::move(fn));
}

bool RingServer::ClaimClientOp(net::NodeId client, uint64_t req_id) {
  const std::optional<WriteReply>* earlier =
      client_op_window_.Claim(client, req_id);
  if (earlier == nullptr) {
    return true;
  }
  if (earlier->has_value()) {
    // Executed already but the reply was evidently lost: resend it.
    ++counters_.resent_replies;
    hub().metrics().Inc("server.resent_replies", 1, id_);
    hub().recorder().Record(obs::RecKind::kDedup, "resent_reply", id_,
                            hub().current_op(), client, req_id);
    ReplyToClient(client, req_id, kReplyBytes, **earlier);
  }
  // Else still executing; the in-flight reply will cover this duplicate.
  return false;
}

void RingServer::ReplyToClientOnce(net::NodeId client, uint64_t req_id,
                                   WriteReply reply) {
  client_op_window_.RecordReply(client, req_id, reply);
  ReplyToClient(client, req_id, kReplyBytes, std::move(reply));
}

// ---------------------------------------------------------------------------
// ClientOpWindow

uint64_t ClientOpWindow::Hash(net::NodeId client, uint64_t req_id) {
  // splitmix64's finalizer: every input bit reaches the low bits the index
  // masks.
  uint64_t x = (static_cast<uint64_t>(client) << 48) ^ req_id;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

size_t ClientOpWindow::SlotOf(net::NodeId client, uint64_t req_id) const {
  if (size_ == 0) {
    return kNotFound;
  }
  const size_t mask = index_.size() - 1;
  for (size_t i = Hash(client, req_id) & mask;; i = (i + 1) & mask) {
    if (index_[i] == 0) {
      return kNotFound;
    }
    const Entry& e = ring_[index_[i] - 1];
    if (e.req_id == req_id && e.client == client) {
      return i;
    }
  }
}

void ClientOpWindow::IndexAt(size_t pos) {
  const size_t mask = index_.size() - 1;
  size_t i = Hash(ring_[pos].client, ring_[pos].req_id) & mask;
  while (index_[i] != 0) {
    i = (i + 1) & mask;
  }
  index_[i] = static_cast<uint32_t>(pos + 1);
}

const std::optional<WriteReply>* ClientOpWindow::Claim(net::NodeId client,
                                                       uint64_t req_id) {
  if (const size_t slot = SlotOf(client, req_id); slot != kNotFound) {
    return &ring_[index_[slot] - 1].reply;
  }
  if (size_ == ring_.size()) {
    if (ring_.size() < kWindow) {
      Grow();
    } else {
      EvictOldest();
    }
  }
  const size_t pos = (head_ + size_) & (ring_.size() - 1);
  ring_[pos].req_id = req_id;
  ring_[pos].client = client;
  ring_[pos].reply.reset();
  ++size_;
  IndexAt(pos);
  return nullptr;
}

void ClientOpWindow::RecordReply(net::NodeId client, uint64_t req_id,
                                 const WriteReply& reply) {
  if (const size_t slot = SlotOf(client, req_id); slot != kNotFound) {
    ring_[index_[slot] - 1].reply = reply;
  }
}

void ClientOpWindow::Grow() {
  const size_t capacity =
      ring_.empty() ? kMinCapacity : std::min(2 * ring_.size(), kWindow);
  std::vector<Entry> ring(capacity);
  for (size_t n = 0; n < size_; ++n) {
    ring[n] = std::move(ring_[(head_ + n) & (ring_.size() - 1)]);
  }
  ring_.swap(ring);
  head_ = 0;
  std::vector<uint32_t>(2 * capacity).swap(index_);
  for (size_t pos = 0; pos < size_; ++pos) {
    IndexAt(pos);
  }
}

void ClientOpWindow::EvictOldest() {
  const size_t mask = index_.size() - 1;
  size_t hole = SlotOf(ring_[head_].client, ring_[head_].req_id);
  // Backward-shift deletion (as in VolatileIndex::EraseRecord): pull later
  // members of the probe run into the hole unless their home slot lies
  // between the hole and them.
  for (size_t i = (hole + 1) & mask; index_[i] != 0; i = (i + 1) & mask) {
    const Entry& e = ring_[index_[i] - 1];
    const size_t home = Hash(e.client, e.req_id) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = 0;
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
}

void ClientOpWindow::Clear() {
  std::vector<Entry>().swap(ring_);
  std::vector<uint32_t>().swap(index_);
  head_ = 0;
  size_ = 0;
}

// ---------------------------------------------------------------------------
// Write path (paper §5.2-5.3)

void RingServer::HandlePut(PutRequest req) {
  const auto& p = rt_->simulator().params();
  const uint32_t len =
      req.value ? static_cast<uint32_t>(req.value->size()) : 0;
  const MemgestId gid = req.memgest == kDefaultMemgest
                            ? rt_->registry().default_id()
                            : req.memgest;
  const MemgestInfo* info = rt_->registry().Get(gid);
  uint64_t cost = p.server_base_ns +
                  static_cast<uint64_t>(p.mem_byte_ns * len) + p.post_send_ns;
  uint64_t coding_cost = 0;
  if (info != nullptr && info->erasure_coded()) {
    coding_cost = static_cast<uint64_t>(p.gf_byte_ns * len);
    cost += coding_cost + info->desc.m * p.post_send_ns;
  } else if (info != nullptr) {
    cost += (info->desc.r - 1) * p.post_send_ns;
  }
  const sim::SimTime done =
      OnCpu(cost, [this, req = std::move(req), info, len]() mutable {
        if (!serving_) {
          return;
        }
        const std::optional<RouteAction> route =
            Route<&RingServer::HandlePut>(req, len);
        if (!route.has_value() || !ClaimClientOp(req.client, req.req_id)) {
          return;  // duplicate: executed (reply resent) or still in flight
        }
        if (info == nullptr) {
          ReplyToClientOnce(
              req.client, req.req_id,
              WriteReply{InvalidArgumentError("no such memgest")});
          return;
        }
        ++counters_.puts;
        hub().metrics().Inc("server.puts", 1, id_, info->id,
                            obs::OpKind::kPut);
        const Version version = volatile_index_.NextVersion(req.key);
        StartWrite(*info, route->shard, req.key, version, req.value, false,
                   [this, client = req.client, req_id = req.req_id, version] {
                     ReplyToClientOnce(client, req_id,
                                       WriteReply{OkStatus(), version});
                   },
                   route->geom_s);
      });
  // The GF delta work is the tail of the put's CPU charge.
  TraceCodingTail("encode", hub().current_op(), done, coding_cost);
}

void RingServer::StartWrite(const MemgestInfo& info, uint32_t shard,
                            const HashedKey& key, Version version,
                            std::shared_ptr<Buffer> value, bool tombstone,
                            std::function<void()> on_commit, uint32_t geom_s,
                            bool moved) {
  MemgestState& state = StateOf(info);
  ShardStore& store = StoreOf(state, shard, geom_s);
  const uint32_t len = value ? static_cast<uint32_t>(value->size()) : 0;
  const auto [addr, region_len] = store.Allocate(len);

  // Erasure coding: the parity delta is old-region-content XOR new-value,
  // taken before the heap write (paper §3.2 "Update").
  std::shared_ptr<Buffer> delta;
  if (info.erasure_coded() && len > 0) {
    store.heap.Grow(addr + len);
    delta = std::make_shared<Buffer>(value->begin(), value->end());
    store.heap.ForEachSpan(addr, len, [&delta](ByteSpan old, uint64_t at) {
      gf::AddRegion(old, MutableByteSpan(delta->data() + at, old.size()));
    });
  }
  if (len > 0) {
    NoteAccess(RegionKind::kHeap, AccessKind::kWrite, ScopeOf(info.id, shard),
               addr, addr + len, "start_write/heap");
    store.heap.Write(addr, *value);
  }
  ++store.write_seq;
  ++state.log_len;

  // Write-ahead metadata (paper §5.2): the entry exists before it commits.
  MetaEntry entry;
  entry.version = version;
  entry.addr = addr;
  entry.len = len;
  entry.region_len = region_len;
  entry.tombstone = tombstone;
  entry.committed = false;
  entry.data_present = true;
  entry.geom_s = geom_s;
  entry.moved = moved;
  NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
             ScopeOf(info.id, shard), key.hash(), key.hash() + 1,
             "start_write/meta");
  MetaEntry& e = store.meta.Insert(key.str(), std::move(entry));
  NoteAccess(RegionKind::kVersionWord, AccessKind::kWrite, kVersionScope,
             key.hash(), key.hash() + 1, "start_write/version");
  volatile_index_.Add(key, VolatileIndex::Ref{version, &e, &store, info.id,
                                              GeomKey(geom_s, shard)});
  e.indexed = true;
  e.pending = std::make_unique<PendingWrite>();
  PendingWrite& pw = *e.pending;
  const uint64_t op_id = hub().current_op();
  pw.waiters.push_back({op_id, std::move(on_commit)});
  pw.trace_op = op_id;
  pw.seq = store.write_seq;
  pw.payload = info.erasure_coded() ? std::move(delta) : std::move(value);
  hub().tracer().Record("write_ahead", obs::Category::kOther, id_, op_id,
                        rt_->simulator().now(), rt_->simulator().now());

  const uint32_t backups = info.desc.backups();
  if (backups == 0) {
    CommitEntry(info, shard, key, e);  // nothing to wait for
    return;
  }
  // Quorum commit: majority of r counting the coordinator itself; the
  // fully-synchronous variant (§3.1) waits for every replica, and erasure
  // coding for every parity node.
  pw.acks_needed = info.erasure_coded() || info.desc.full_sync
                       ? backups
                       : info.desc.r / 2;
  pw.acks_pending = (1u << backups) - 1;
  pw.trace_quorum_start = rt_->simulator().now();
  for (uint32_t ordinal = 0; ordinal < backups; ++ordinal) {
    SendBackup(info, shard, key, e, ordinal);
  }
  ScheduleWriteRetransmit(info.id, shard, geom_s, key, version);
}

void RingServer::SendBackup(const MemgestInfo& info, uint32_t shard,
                            const HashedKey& key, const MetaEntry& entry,
                            uint32_t ordinal) {
  const auto placement = PlacementFor(entry.geom_s);
  if (!placement.has_value()) {
    return;
  }
  const bool parity = info.erasure_coded();
  const net::NodeId target =
      placement->NodeOfSlot(placement->BackupSlot(shard, ordinal, parity));
  auto* peer = rt_->server(target);
  const PendingWrite& pw = *entry.pending;
  // Parity updates carry replicated metadata on top of the payload (§6.1).
  const uint64_t bytes =
      ReqBytes(key.str().size(), entry.len) +
      (parity ? rt_->simulator().params().parity_update_metadata_bytes : 0);
  BackupWrite msg{.memgest = info.id,
                  .shard = shard,
                  .geom_s = entry.geom_s,
                  .key = key,
                  .version = entry.version,
                  .addr = entry.addr,
                  .len = entry.len,
                  .region_len = entry.region_len,
                  .tombstone = entry.tombstone,
                  .moved = entry.moved,
                  .parity = parity,
                  .payload = pw.payload,
                  .ordinal = ordinal,
                  .from = id_,
                  .seq = pw.seq};
  SendToNode(target, bytes, [peer, msg = std::move(msg)]() mutable {
    peer->HandleBackupWrite(std::move(msg));
  });
}

void RingServer::SendAck(net::NodeId coordinator, const Ack& ack) {
  auto* peer = rt_->server(coordinator);
  rt_->fabric().Write(id_, coordinator, kAckBytes,
                      [peer, ack] { peer->ApplyAck(ack); }, nullptr);
}

void RingServer::ParkUntilCommit(MetaEntry& entry, std::function<void()> fn) {
  entry.Pending().waiters.push_back({hub().current_op(), std::move(fn)});
}

// Periodic per-write repair: while the quorum round is un-acked, resend the
// missing backup messages. Replay fences dedup re-applied messages and
// receivers re-ack, so a lost append, update, or ack cannot wedge the key.
// The chain dies as soon as the entry commits, is superseded, or loses its
// pending bits to a configuration change.
void RingServer::ScheduleWriteRetransmit(MemgestId gid, uint32_t shard,
                                         uint32_t geom_s, const HashedKey& key,
                                         Version version) {
  const uint64_t period = rt_->simulator().params().write_retransmit_ns;
  if (period == 0 || rt_->options().test_bugs.no_write_retransmit) {
    return;  // test_bugs: PR 5 bug 1 — a lost append wedges the write
  }
  rt_->simulator().After(period, [this, gid, shard, geom_s, key, version] {
    if (!IsAlive() || is_spare_) {
      return;
    }
    const MemgestInfo* info = rt_->registry().Get(gid);
    if (info == nullptr) {
      return;
    }
    if (!PlacementFor(geom_s).has_value()) {
      return;  // shape retired: the write's fate was decided by the purge
    }
    const MetaEntry* entry =
        StoreEntry(*info, shard, geom_s, key, version).entry;
    if (entry == nullptr || entry->committed || entry->acks_pending() == 0) {
      return;
    }
    const PendingWrite& pw = *entry->pending;
    // A plain timer runs at op 0; the resends belong to the write.
    // ring-lint: ok(server-admission) a timer acting for its write
    obs::ScopedOp scope(hub(), pw.trace_op);
    for (uint32_t ordinal = 0; (pw.acks_pending >> ordinal) != 0; ++ordinal) {
      if ((pw.acks_pending & (1u << ordinal)) != 0) {
        ++counters_.retransmits;
        hub().metrics().Inc("server.retransmits", 1, id_, gid);
        hub().recorder().Record(obs::RecKind::kRetransmit, "write_retransmit",
                                id_, pw.trace_op, gid, ordinal);
        SendBackup(*info, shard, key, *entry, ordinal);
      }
    }
    ScheduleWriteRetransmit(gid, shard, geom_s, key, version);
  });
}

void RingServer::HandleBackupWrite(BackupWrite msg) {
  // The scheme picks the charge: a heap copy of the value, or a GF
  // multiply-add of the delta, whose coding time is the charge's tail.
  const auto& p = rt_->simulator().params();
  const uint64_t coding_cost =
      msg.parity ? static_cast<uint64_t>(p.gf_byte_ns * msg.len) : 0;
  const uint64_t cost =
      (msg.parity ? p.parity_base_ns + coding_cost
                  : p.replica_base_ns +
                        static_cast<uint64_t>(p.mem_byte_ns * msg.len)) +
      p.post_send_ns;
  const sim::SimTime done = OnCpu(cost, [this, msg = std::move(msg)]() mutable {
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    if (info == nullptr || is_spare_) {
      return;  // a restarted spare is memory-less: stale writes must not land
    }
    if (!PlacementFor(msg.geom_s).has_value() ||
        (msg.parity && rt_->registry().MapFor(*info, msg.geom_s) == nullptr)) {
      // Epoch fencing: the write was issued under a shape this node no
      // longer recognises (its rebalance completed, or the catalogue never
      // built it). Drop without acking.
      ++counters_.fenced_drops;
      return;
    }
    MemgestState& state = StateOf(*info);
    ShardStore& backup = StoreOf(state, msg.shard, msg.geom_s);
    const Ack ack{msg.memgest, msg.shard, msg.key, msg.version, msg.ordinal,
                  msg.geom_s};
    if (!backup.replica_seqs.MarkOnce(msg.seq)) {
      // Chaos duplicate: applied already, and a GF multiply-add must not
      // apply twice. Re-ack — the first ack may have been lost, and ApplyAck
      // is idempotent on the coordinator.
      ++counters_.dup_backups;
      SendAck(msg.from, ack);
      return;
    }
    if (msg.parity) {
      auto [pit, inserted] = state.parity.try_emplace(
          GeomKey(msg.geom_s, msg.shard / msg.geom_s));
      if (inserted) {
        pit->second.parity_index = msg.ordinal;
      }
      if (!pit->second.rebuilt) {
        // Freshly promoted parity: queue until the buffer is reconstructed.
        pit->second.queued.push_back(std::move(msg));
        return;
      }
      ++counters_.parity_updates;
      hub().metrics().Inc("server.parity_updates", 1, id_, info->id);
      ApplyParityBytes(*info, msg);
    } else {
      ++counters_.replica_appends;
      hub().metrics().Inc("server.replica_appends", 1, id_, info->id);
      if (msg.len > 0 && msg.payload) {
        NoteAccess(RegionKind::kHeap, AccessKind::kWrite,
                   ScopeOf(msg.memgest, msg.shard), msg.addr,
                   msg.addr + msg.len, "replica_append/heap");
        backup.heap.Write(msg.addr, *msg.payload);
      }
    }
    ++state.log_len;
    NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
               ScopeOf(msg.memgest, msg.shard), msg.key.hash(),
               msg.key.hash() + 1,
               msg.parity ? "parity_update/meta" : "replica_append/meta");
    InsertBackupMeta(backup, msg);
    SendAck(msg.from, ack);
  });
  TraceCodingTail("parity_mad", hub().current_op(), done, coding_cost);
}

void RingServer::ApplyParityBytes(const MemgestInfo& info,
                                  const BackupWrite& msg) {
  if (msg.len == 0 || !msg.payload) {
    return;
  }
  const uint32_t geom = msg.geom_s;
  const srs::SrsAddressMap* map = rt_->registry().MapFor(info, geom);
  const srs::SrsCode* code = rt_->registry().CodeFor(info, geom);
  if (map == nullptr || code == nullptr) {
    return;  // shape unknown in the catalogue: fenced
  }
  const uint32_t group = msg.shard / geom;
  ParityStore& parity = StateOf(info).parity.at(GeomKey(geom, group));
  const auto segments = map->MapDataRange(msg.shard % geom, msg.addr, msg.len);
  uint64_t max_extent = 0;
  for (const auto& seg : segments) {
    max_extent = std::max(max_extent, seg.parity_offset + seg.length);
  }
  parity.mem.Grow(max_extent);
  uint64_t consumed = 0;
  for (const auto& seg : segments) {
    NoteAccess(RegionKind::kParityStrip, AccessKind::kWrite,
               ScopeOf(info.id, GeomKey(geom, group)), seg.parity_offset,
               seg.parity_offset + seg.length, "parity_update/strip");
    const uint8_t coeff =
        code->rs().Coefficient(parity.parity_index, seg.rs_block);
    const uint8_t* delta = msg.payload->data() + consumed;
    parity.mem.ForEachSpan(
        seg.parity_offset, seg.length,
        [coeff, delta](MutableByteSpan strip, uint64_t at) {
          gf::MulAddRegion(coeff, ByteSpan(delta + at, strip.size()), strip);
        });
    consumed += seg.length;
  }
}

void RingServer::ApplyAck(const Ack& msg) {
  if (!IsAlive()) {
    return;
  }
  // The one-sided deposit lands in this node's completion region under the
  // issuer's clock; each (key, version, ordinal) gets its own word, so
  // concurrent acks from different redundancy nodes never conflict.
  NoteAccess(RegionKind::kAckWord, AccessKind::kWrite,
             ScopeOf(msg.memgest, msg.shard),
             EntryWord(msg.key, msg.version) + msg.ordinal,
             EntryWord(msg.key, msg.version) + msg.ordinal + 1,
             "ack/deposit");
  // The coordinator only touches the payload after polling the completion
  // word: an acquire edge into this CPU's clock.
  analysis::ScopedCpuAcquire acquire(rt_->simulator().race(), id_);
  {
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    if (info == nullptr) {
      return;
    }
    NoteAccess(RegionKind::kMetadata, AccessKind::kRead,
               ScopeOf(msg.memgest, msg.shard), msg.key.hash(),
               msg.key.hash() + 1, "ack/meta");
    MetaEntry* entry =
        StoreEntry(*info, msg.shard, msg.geom_s, msg.key, msg.version).entry;
    if (entry == nullptr || entry->committed) {
      return;  // already committed (late ack) or GC'd
    }
    const uint32_t bit = 1u << msg.ordinal;
    if ((entry->acks_pending() & bit) == 0) {
      return;  // duplicate
    }
    PendingWrite& pw = *entry->pending;
    pw.acks_pending &= ~bit;
    if (pw.acks_needed > 0) {
      --pw.acks_needed;
    }
    if (pw.acks_needed == 0) {
      CommitEntry(*info, msg.shard, msg.key, *entry);
    }
  }
}

void RingServer::CommitEntry(const MemgestInfo& info, uint32_t shard,
                             const HashedKey& key, MetaEntry& entry) {
  const Version version = entry.version;
  NoteAccess(RegionKind::kCommitFlag, AccessKind::kWrite,
             ScopeOf(info.id, shard), EntryWord(key, version),
             EntryWord(key, version) + 1, "commit/flag");
  entry.committed = true;
  // The write's in-flight state ends here; only its waiters outlive it.
  std::vector<PendingWrite::Waiter> waiters;
  uint64_t trace_op = 0;
  uint64_t quorum_start = 0;
  if (entry.pending != nullptr) {
    waiters = std::move(entry.pending->waiters);
    trace_op = entry.pending->trace_op;
    quorum_start = entry.pending->trace_quorum_start;
    entry.pending.reset();
  }
  if (hub().tracing_enabled()) {
    const sim::SimTime now = rt_->simulator().now();
    if (quorum_start != 0 && now > quorum_start) {
      hub().tracer().Record("quorum_wait", obs::Category::kQuorum, id_,
                            trace_op, quorum_start, now);
    }
    hub().tracer().Record("commit", obs::Category::kOther, id_, trace_op, now,
                          now);
  }
  hub().metrics().Inc("server.commits", 1, id_, info.id);
  if (hub().recorder_enabled()) {
    const sim::SimTime now = rt_->simulator().now();
    if (quorum_start != 0 && now > quorum_start) {
      hub().recorder().Record(obs::RecKind::kQuorum, "quorum_wait", id_,
                              trace_op, now - quorum_start);
    }
    hub().recorder().Record(obs::RecKind::kPhase, "commit", id_, trace_op,
                            info.id);
  }
  const bool moved_marker = entry.moved;
  // Remove superseded versions: "one instance of the key of a certain
  // version exists across all memgests" (§5.2); old versions are GC'd after
  // every committed put in the default configuration. A moved-marker must
  // NOT collect the versions below it: they are the payload the InstallKey
  // still has to deliver, and losing them before the new owner acknowledges
  // would lose the key everywhere if this node then crashed (§13).
  if (rt_->options().gc_old_versions && !moved_marker) {
    GcOldVersions(key, version);
  }
  for (auto& waiter : waiters) {
    // ring-lint: ok(server-admission) a waiter runs under its own op
    obs::ScopedOp scope(hub(), waiter.op);
    waiter.fn();
  }
}

void RingServer::GcOldVersions(const HashedKey& key, Version below) {
  // §16 multiversion retention: keep the ν newest committed versions below
  // the new commit (Refs is descending, so the first ν survivors are the
  // newest) — the stock of versions ReadMode::kNonBlocking serves from.
  // ν == 0 collects everything, byte-identical to the seed.
  const uint32_t retain = rt_->options().multiversion_depth;
  uint32_t retained = 0;
  for (const auto& ref : volatile_index_.Refs(key)) {
    if (ref.version >= below) {
      continue;
    }
    const MemgestInfo* info = rt_->registry().Get(ref.memgest);
    if (info == nullptr) {
      volatile_index_.Remove(key, ref.version);
      continue;
    }
    // The superseded version may live under either live shape (§13): a key
    // that auto-migrated via a put carries its old versions in the previous
    // geometry's store until this GC collects them.
    const EntryLoc loc = EntryOf(*info, key, ref);
    MetaEntry* entry = loc.entry;
    const uint32_t shard = entry != nullptr
                               ? loc.shard
                               : key.Shard(config_.Current().num_shards());
    const uint32_t geom = entry != nullptr ? loc.geom : config_.s;
    if (entry != nullptr && !entry->committed) {
      // A concurrent write still in its quorum round: reclaiming it here
      // would orphan its waiters and the client would never get a reply.
      // It is collected after it commits, by the next write of the key.
      continue;
    }
    if (entry != nullptr && retained < retain && !entry->tombstone &&
        !entry->moved) {
      // Multiversion retention (§16). The skip also skips the redundancy GC
      // notices below, so replica/parity copies of retained versions survive
      // with them and recovery reconstructs the same ν-deep history.
      ++retained;
      continue;
    }
    if (entry != nullptr) {
      if (entry->region_len > 0) {
        loc.store->free_list.emplace_back(entry->addr, entry->region_len);
      }
      NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
                 ScopeOf(ref.memgest, shard), key.hash(), key.hash() + 1,
                 "gc/meta");
    }
    NoteAccess(RegionKind::kVersionWord, AccessKind::kWrite, kVersionScope,
               key.hash(), key.hash() + 1, "gc/version");
    if (entry != nullptr) {
      EraseIndexed(*loc.store, key, ref.version);
    } else {
      volatile_index_.Remove(key, ref.version);
    }
    // Asynchronous metadata GC on redundancy nodes, under the placement of
    // the shape the version was written at.
    const auto placement = PlacementFor(geom);
    if (!placement.has_value()) {
      continue;
    }
    GcNotice notice{ref.memgest, shard, key, ref.version, geom};
    for (uint32_t ordinal = 0; ordinal < info->desc.backups(); ++ordinal) {
      const net::NodeId target = placement->NodeOfSlot(
          placement->BackupSlot(shard, ordinal, info->erasure_coded()));
      auto* peer = rt_->server(target);
      rt_->fabric().Write(id_, target, kAckBytes,
                          [peer, notice] { peer->HandleGcNotice(notice); },
                          nullptr);
    }
  }
}

void RingServer::HandleGcNotice(GcNotice msg) {
  // Delivered as a one-sided write into a GC ring the redundancy node
  // drains; the (tiny) metadata erase is not separately charged. Draining
  // the ring is an acquire into this CPU's clock, so the erase is ordered
  // with this node's own metadata work.
  if (!IsAlive() || is_spare_) {
    return;  // a spare holds no redundancy state (restarts come back empty)
  }
  const uint32_t geom = msg.geom_s;
  bool erased = false;
  auto it = memgests_.find(msg.memgest);
  MemgestState* state = it == memgests_.end() ? nullptr : &it->second;
  ShardStore* store =
      state == nullptr ? nullptr : state->stores.Find(GeomKey(geom, msg.shard));
  if (store != nullptr) {
    analysis::ScopedCpuAcquire acquire(rt_->simulator().race(), id_);
    NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
               ScopeOf(msg.memgest, msg.shard), msg.key.hash(),
               msg.key.hash() + 1, "gc_notice/meta");
    // A backup store: this node backs the shard, never coordinates it
    // under the same shape, so no entry here owns a directory ref.
    erased = store->meta.Erase(msg.key.str(), msg.version);
  }
  if (!erased) {
    RecordEarlyGc(state, msg, geom);
  }
}

void RingServer::RecordEarlyGc(MemgestState* state, const GcNotice& msg,
                               uint32_t geom) {
  // Nothing to erase: the version's redundancy write has not been applied
  // here yet (it waits in this CPU's queue, was dropped, or is in a metadata
  // snapshot still on its way to this promoted node). Remember the version
  // where that write would land, in a store this node backs under a live
  // shape.
  const MemgestInfo* info = rt_->registry().Get(msg.memgest);
  const auto placement = PlacementFor(geom);
  if (info == nullptr || !placement.has_value() ||
      placement->BackupOrdinal(msg.shard, placement->SlotOfNode(id_),
                               info->erasure_coded(),
                               info->desc.backups()) < 0) {
    return;
  }
  // A promoted node may not hold the memgest yet: its metadata snapshot is
  // still on the way, and the record must be there when it lands.
  StoreOf(state != nullptr ? *state : StateOf(*info), msg.shard, geom)
      .early_gc.Record(msg.key.str(), msg.version);
}

void RingServer::InsertBackupMeta(ShardStore& backup, const BackupWrite& msg) {
  // A GC notice that overtook the write already collected the version: the
  // payload applies and the ack flows, but no dead entry is inserted.
  if (backup.early_gc.Consume(msg.key.str(), msg.version)) {
    return;
  }
  MetaEntry entry;
  entry.version = msg.version;
  entry.addr = msg.addr;
  entry.len = msg.len;
  entry.region_len = msg.region_len;
  entry.tombstone = msg.tombstone;
  entry.committed = false;  // commit state tracked by the coordinator
  entry.data_present = true;
  entry.geom_s = msg.geom_s;
  entry.moved = msg.moved;
  backup.meta.Insert(msg.key.str(), std::move(entry));
}

// ---------------------------------------------------------------------------
// Read path (paper §5.2, Fig. 5)

void RingServer::HandleGet(GetRequest req) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, req = std::move(req)]() mutable {
          // Gets are not deduplicated: re-execution is side-effect free and
          // the client's completion table drops whichever reply arrives
          // second (a retry may race the original under fault injection).
          // Routing (incl. the coordinator check) happens in ResolveGet so
          // that re-entries after deferred commits re-route too.
          if (serving_) {
            ResolveGet(std::move(req));
          }
        });
}

void RingServer::ResolveGet(GetRequest req) {
  const std::optional<RouteAction> route =
      Route<&RingServer::HandleGet>(req, 0);
  if (!route.has_value()) {
    return;
  }
  hub().metrics().Inc("server.gets", 1, id_, obs::kNoMemgest,
                      obs::OpKind::kGet);
  NoteAccess(RegionKind::kVersionWord, AccessKind::kRead, kVersionScope,
             req.key.hash(), req.key.hash() + 1, "get/version");
  const VolatileIndex::Ref* ref = volatile_index_.Highest(req.key);
  if (ref == nullptr) {
    ReplyToClient(req.client, req.req_id, kReplyBytes,
                  GetResult{NotFoundError("no such key"), 0, nullptr});
    return;
  }
  const MemgestInfo* info = rt_->registry().Get(ref->memgest);
  if (info == nullptr) {
    ReplyToClient(req.client, req.req_id, kReplyBytes,
                  GetResult{InternalError("memgest vanished"), 0, nullptr});
    return;
  }
  // The highest version may live under either live shape (§13): serve it
  // from wherever it is, independent of the route's (current) shard id.
  const EntryLoc loc = EntryOf(*info, req.key, *ref);
  const uint32_t shard = loc.entry != nullptr ? loc.shard : route->shard;
  const uint32_t geom = loc.entry != nullptr ? loc.geom : route->geom_s;
  NoteAccess(RegionKind::kMetadata, AccessKind::kRead,
             ScopeOf(info->id, shard), req.key.hash(), req.key.hash() + 1,
             "get/meta");
  DeliverGet(*info, shard, geom, loc.entry, std::move(req));
}

void RingServer::DeliverGet(const MemgestInfo& info, uint32_t shard,
                            uint32_t geom_s, MetaEntry* entry,
                            GetRequest req) {
  if (entry == nullptr) {
    ReplyToClient(req.client, req.req_id, kReplyBytes,
                  GetResult{InternalError("metadata missing"), 0, nullptr});
    return;
  }
  if (entry->moved) {
    // Handed over to the new-shape owner (§13); re-route — the forward path
    // in ResolveGet sends the reader there.
    ResolveGet(std::move(req));
    return;
  }
  if (entry->tombstone) {
    ReplyToClient(req.client, req.req_id, kReplyBytes,
                  GetResult{NotFoundError("deleted"), 0, nullptr});
    return;
  }
  NoteAccess(RegionKind::kCommitFlag, AccessKind::kRead,
             ScopeOf(info.id, shard), EntryWord(req.key, entry->version),
             EntryWord(req.key, entry->version) + 1, "get/commit_flag");
  if (!entry->committed) {
    if (req.mode == ReadMode::kNonBlocking) {
      // §16: a concurrent write (or a reconfiguration stalling its quorum)
      // holds the newest version un-committed. Serve the newest *committed*
      // version instead of parking — with multiversion_depth > 0 the
      // commit-time GC retains ν of them. The recursion below re-enters the
      // normal committed path, so tombstones ("deleted") and moved markers
      // (re-route) keep their exact strong-read semantics.
      for (const auto& ref : volatile_index_.Refs(req.key)) {
        if (ref.version >= entry->version) {
          continue;
        }
        const MemgestInfo* vinfo = rt_->registry().Get(ref.memgest);
        if (vinfo == nullptr) {
          continue;
        }
        const EntryLoc older = EntryOf(*vinfo, req.key, ref);
        if (older.entry == nullptr || !older.entry->committed) {
          continue;
        }
        ++counters_.nonblocking_gets;
        hub().metrics().Inc("server.nonblocking_gets", 1, id_);
        hub().recorder().Record(obs::RecKind::kQuorum, "get_nonblocking", id_,
                                hub().current_op(), older.entry->version);
        DeliverGet(*vinfo, older.shard, older.geom, older.entry,
                   std::move(req));
        return;
      }
      // No committed version exists yet (first write of the key in flight):
      // nothing consistent to serve — fall through to the quorum wait.
    }
    // Fig. 5, client D: the reply is postponed until the version commits.
    ++counters_.deferred_gets;
    hub().metrics().Inc("server.deferred_gets", 1, id_);
    hub().recorder().Record(obs::RecKind::kQuorum, "get_deferred", id_,
                            hub().current_op(), entry->version);
    const sim::SimTime defer_start = rt_->simulator().now();
    const Version version = entry->version;
    const MemgestInfo* info_ptr = &info;
    ParkUntilCommit(*entry, [this, info_ptr, shard, geom_s, version,
                             defer_start, req = std::move(req)]() mutable {
      // The blocked interval is the reader's wait.
      hub().tracer().Record("get_deferred", obs::Category::kQuorum, id_,
                            hub().current_op(), defer_start,
                            rt_->simulator().now());
      MetaEntry* e =
          StoreEntry(*info_ptr, shard, geom_s, req.key, version).entry;
      DeliverGet(*info_ptr, shard, geom_s, e, std::move(req));
    });
    return;
  }
  if (entry->data_present && PlacementFor(geom_s).has_value()) {
    // The bytes are local: copy straight from the entry in hand.
    CopyForGet(info, shard, geom_s, *entry, std::move(req));
    return;
  }
  const Version version = entry->version;
  const Key key = req.key.str();  // req is moved into the continuation
  EnsureDataPresent(
      info, shard, geom_s, key, version,
      [this, info_ptr = &info, shard, geom_s, version,
       req = std::move(req)](Status s) mutable {
        if (s.code() == StatusCode::kDataLoss) {
          ReplyToClient(req.client, req.req_id, kReplyBytes,
                        GetResult{std::move(s), 0, nullptr});
          return;
        }
        const MetaEntry* e =
            s.ok() ? StoreEntry(*info_ptr, shard, geom_s, req.key, version)
                         .entry
                   : nullptr;
        if (e == nullptr) {
          // Collected (a put committed during the recovery) or its shape
          // retired: a newer version or owner answers.
          RestartGet(version, std::move(req));
          return;
        }
        CopyForGet(*info_ptr, shard, geom_s, *e, std::move(req));
      });
}

void RingServer::RestartGet(Version version, GetRequest req) {
  ++counters_.op_restarts;
  hub().metrics().Inc("server.op_restarts", 1, id_);
  hub().recorder().Record(obs::RecKind::kRestart, "get_restart", id_,
                          hub().current_op(), version);
  ResolveGet(std::move(req));
}

void RingServer::CopyForGet(const MemgestInfo& info, uint32_t shard,
                            uint32_t geom_s, const MetaEntry& entry,
                            GetRequest req) {
  const auto& p = rt_->simulator().params();
  const uint64_t cost =
      static_cast<uint64_t>(p.mem_byte_ns * entry.len) + p.post_send_ns;
  const uint64_t addr = entry.addr;
  const uint32_t len = entry.len;
  const Version version = entry.version;
  OnCpu(cost, [this, info_ptr = &info, shard, geom_s, addr, len, version,
               req = std::move(req)]() mutable {
    // Validate-and-retry (the check backing the paper's optimistic
    // one-sided reads): the version may have been garbage-collected — and
    // its heap region reused by a newer write — while this copy was queued
    // behind other CPU work. Re-resolve; a newer committed version exists
    // whenever that happens.
    const EntryLoc live =
        StoreEntry(*info_ptr, shard, geom_s, req.key, version);
    if (!rt_->options().test_bugs.no_gc_revalidate &&  // PR 5 bug 3
        (live.entry == nullptr || !live.entry->committed ||
         live.entry->tombstone || !live.entry->data_present ||
         live.entry->addr != addr)) {
      RestartGet(version, std::move(req));
      return;
    }
    NoteAccess(RegionKind::kHeap, AccessKind::kRead,
               ScopeOf(info_ptr->id, shard), addr, addr + len, "get/heap");
    auto data = std::make_shared<Buffer>();
    live.store->heap.AppendTo(addr, len, *data);
    ReplyToClient(req.client, req.req_id, kReplyBytes + len,
                  GetResult{OkStatus(), version, std::move(data)});
  });
}

// ---------------------------------------------------------------------------
// Move / delete (paper §5.2, §6.2)

void RingServer::HandleMove(MoveRequest req) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, req = std::move(req)]() mutable {
    if (!serving_) {
      return;
    }
    const std::optional<RouteAction> route =
        Route<&RingServer::HandleMove>(req, 0);
    if (!route.has_value()) {
      return;
    }
    if (!req.resumed && !ClaimClientOp(req.client, req.req_id)) {
      return;  // duplicate: executed (reply resent) or still in flight
    }
    ++counters_.moves;
    hub().metrics().Inc("server.moves", 1, id_, req.dst, obs::OpKind::kMove);
    NoteAccess(RegionKind::kVersionWord, AccessKind::kRead, kVersionScope,
               req.key.hash(), req.key.hash() + 1, "move/version");
    const VolatileIndex::Ref* ref = volatile_index_.Highest(req.key);
    if (ref == nullptr) {
      ReplyToClientOnce(req.client, req.req_id,
                        WriteReply{NotFoundError("no such key")});
      return;
    }
    const MemgestInfo* dst = rt_->registry().Get(req.dst);
    if (dst == nullptr) {
      ReplyToClientOnce(req.client, req.req_id,
                        WriteReply{InvalidArgumentError("no such memgest")});
      return;
    }
    const MemgestInfo* src = rt_->registry().Get(ref->memgest);
    if (src == nullptr) {
      ReplyToClientOnce(req.client, req.req_id,
                        WriteReply{InternalError("source memgest vanished")});
      return;
    }
    const EntryLoc loc = EntryOf(*src, req.key, *ref);
    MetaEntry* entry = loc.entry;
    const uint32_t src_shard = entry != nullptr ? loc.shard : route->shard;
    const uint32_t src_geom = entry != nullptr ? loc.geom : route->geom_s;
    if (entry == nullptr || entry->tombstone) {
      ReplyToClientOnce(req.client, req.req_id,
                        WriteReply{NotFoundError("deleted")});
      return;
    }
    if (!entry->committed) {
      // "The move request will also be postponed if the requested object is
      // not durable" (§5.2). The request already claimed its at-most-once
      // slot above, so the re-invocation must skip the claim — otherwise
      // the dedup table swallows the postponed move when the entry commits
      // and the client never hears back (it would burn through all its
      // retries, every one deduped, and report a spurious timeout).
      ParkUntilCommit(*entry, [this, req]() mutable {
        req.resumed = true;
        HandleMove(std::move(req));
      });
      return;
    }
    const Version src_version = entry->version;
    const Key key_copy = req.key.str();  // req is moved into the continuation
    EnsureDataPresent(
        *src, src_shard, src_geom, key_copy, src_version,
        [this, src, dst, shard = src_shard, geom = src_geom, src_version,
         req = std::move(req)](Status s) mutable {
          if (s.code() == StatusCode::kDataLoss) {
            ReplyToClientOnce(req.client, req.req_id,
                              WriteReply{std::move(s)});
            return;
          }
          const MetaEntry* e =
              s.ok() ? StoreEntry(*src, shard, geom, req.key, src_version)
                           .entry
                     : nullptr;
          if (e == nullptr) {
            RestartMove(src_version, std::move(req));  // as for a get
            return;
          }
          // Local read + re-encode into the destination memgest. All data is
          // local thanks to the SRS shared key-to-node map — no distributed
          // transaction (§5.2).
          const auto& p = rt_->simulator().params();
          uint64_t cost = p.server_base_ns +
                          static_cast<uint64_t>(2 * p.mem_byte_ns * e->len);
          uint64_t coding_cost = 0;
          if (dst->erasure_coded()) {
            coding_cost = static_cast<uint64_t>(p.gf_byte_ns * e->len);
            cost += coding_cost + dst->desc.m * p.post_send_ns;
          } else {
            cost += (dst->desc.r - 1) * p.post_send_ns;
          }
          const uint64_t addr = e->addr;
          const uint32_t len = e->len;
          const sim::SimTime move_done =
              OnCpu(cost, [this, src, dst, shard, geom, addr, len, src_version,
                           req = std::move(req)]() mutable {
            if (!serving_) {
              return;
            }
            // Validate-and-retry, as in the get path: the source version may
            // have been garbage-collected (region reused) while the copy was
            // queued, or a write may have added a newer version, which the
            // old bytes must not bury. Restart the move against the current
            // highest version.
            const EntryLoc live =
                StoreEntry(*src, shard, geom, req.key, src_version);
            const VolatileIndex::Ref* newest = volatile_index_.Highest(req.key);
            if (live.entry == nullptr || live.entry->tombstone ||
                !live.entry->data_present || live.entry->addr != addr ||
                newest == nullptr || newest->version != src_version) {
              RestartMove(src_version, std::move(req));
              return;
            }
            NoteAccess(RegionKind::kHeap, AccessKind::kRead,
                       ScopeOf(src->id, shard), addr, addr + len,
                       "move/heap");
            auto value = std::make_shared<Buffer>();
            live.store->heap.AppendTo(addr, len, *value);
            const Version version = volatile_index_.NextVersion(req.key);
            // The re-encoded copy stays under the geometry the key is
            // currently served at: migration to the new shape is the
            // rebalance driver's job, not the move path's.
            StartWrite(*dst, shard, req.key, version, value, false,
                       [this, client = req.client, req_id = req.req_id,
                        version] {
                         ReplyToClientOnce(client, req_id,
                                           WriteReply{OkStatus(), version});
                       },
                       geom);
          });
          TraceCodingTail("encode", hub().current_op(), move_done,
                          coding_cost);
        });
  });
}

void RingServer::RestartMove(Version version, MoveRequest req) {
  ++counters_.op_restarts;
  hub().metrics().Inc("server.op_restarts", 1, id_);
  hub().recorder().Record(obs::RecKind::kRestart, "move_restart", id_,
                          hub().current_op(), version);
  req.resumed = true;
  HandleMove(std::move(req));
}

void RingServer::HandleDelete(DeleteRequest req) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, req = std::move(req)]() mutable {
    if (!serving_) {
      return;
    }
    const std::optional<RouteAction> route =
        Route<&RingServer::HandleDelete>(req, 0);
    if (!route.has_value() || !ClaimClientOp(req.client, req.req_id)) {
      return;  // duplicate: executed (reply resent) or still in flight
    }
    hub().metrics().Inc("server.deletes", 1, id_, obs::kNoMemgest,
                        obs::OpKind::kDelete);
    NoteAccess(RegionKind::kVersionWord, AccessKind::kRead, kVersionScope,
               req.key.hash(), req.key.hash() + 1, "delete/version");
    const VolatileIndex::Ref* ref = volatile_index_.Highest(req.key);
    if (ref == nullptr) {
      ReplyToClientOnce(req.client, req.req_id,
                        WriteReply{NotFoundError("no such key")});
      return;
    }
    const MemgestInfo* info = rt_->registry().Get(ref->memgest);
    if (info == nullptr) {
      ReplyToClientOnce(req.client, req.req_id, WriteReply{OkStatus()});
      return;
    }
    // A delete is a replicated tombstone in the memgest of the current
    // highest version; commit then garbage-collects every older version.
    const Version version = volatile_index_.NextVersion(req.key);
    StartWrite(*info, route->shard, req.key, version, nullptr, true,
               [this, client = req.client, req_id = req.req_id] {
                 ReplyToClientOnce(client, req_id, WriteReply{OkStatus()});
               },
               route->geom_s);
  });
}

// ---------------------------------------------------------------------------
// Memgest management (paper §5, API)

void RingServer::HandleAdmin(AdminRequest req) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, req = std::move(req)]() mutable {
    if (config_.leader != id_) {
      return;  // only the leader manages memgests (§5.1)
    }
    Result<MemgestId> result = InternalError("unhandled admin op");
    switch (req.op) {
      case AdminRequest::Op::kGetMemgestDescriptor: {
        // Read-only: answer from the replicated catalogue, no quorum needed.
        const MemgestInfo* info = rt_->registry().Get(req.id);
        Result<MemgestDescriptor> out =
            info != nullptr ? Result<MemgestDescriptor>(info->desc)
                            : Result<MemgestDescriptor>(
                                  NotFoundError("no such memgest"));
        ReplyToClient(req.client, req.req_id, kReplyBytes, std::move(out));
        return;
      }
      case AdminRequest::Op::kCreateMemgest:
        result = rt_->registry().Create(req.desc);
        break;
      case AdminRequest::Op::kDeleteMemgest: {
        Status s = rt_->registry().Delete(req.id);
        result = s.ok() ? Result<MemgestId>(req.id) : Result<MemgestId>(s);
        break;
      }
      case AdminRequest::Op::kSetDefaultMemgest: {
        Status s = rt_->registry().SetDefault(req.id);
        result = s.ok() ? Result<MemgestId>(req.id) : Result<MemgestId>(s);
        break;
      }
    }
    if (!result.ok()) {
      ReplyToClient(req.client, req.req_id, kReplyBytes, std::move(result));
      return;
    }
    // Replicate the decision to all live members; reply after a majority
    // acknowledges (replicated configuration log, §5.1/§5.5).
    const uint32_t members = rt_->membership().num_members();
    uint32_t live = 0;
    for (net::NodeId n = 0; n < members; ++n) {
      if (!config_.failed[n]) {
        ++live;
      }
    }
    auto acks = std::make_shared<uint32_t>(1);  // self
    auto replied = std::make_shared<bool>(false);
    const uint32_t majority = live / 2 + 1;
    const bool is_delete = req.op == AdminRequest::Op::kDeleteMemgest;
    const MemgestId affected = is_delete ? req.id : *result;
    auto maybe_reply = [this, acks, replied, majority, client = req.client,
                        req_id = req.req_id, result] {
      if (*replied || *acks < majority) {
        return;
      }
      *replied = true;
      ReplyToClient(client, req_id, kReplyBytes, result);
    };
    for (net::NodeId n = 0; n < members; ++n) {
      if (n == id_ || config_.failed[n]) {
        continue;
      }
      auto* peer = rt_->server(n);
      rt_->fabric().Send(
          id_, n, 192, [this, peer, is_delete, affected, acks, maybe_reply] {
            if (is_delete) {
              peer->ApplyMemgestDelete(affected);
            }
            // Ack back to the leader.
            rt_->fabric().Send(peer->id(), id_, kAckBytes, [acks, maybe_reply] {
              ++*acks;
              maybe_reply();
            });
          });
    }
    maybe_reply();  // single-node clusters
  });
}

void RingServer::ApplyMemgestDelete(MemgestId memgest) {
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return;
  }
  // Remove volatile references to keys whose versions lived there. Removal
  // is keyed by (key, version) and versions are node-unique, so dropping a
  // replica-mirror entry that never had a volatile reference is a no-op —
  // no need to re-derive coordinator-ship per stored shape.
  for (auto& [store_key, store] : it->second.stores) {
    store->meta.ForEach([this](const Key& key, const MetaEntry& entry) {
      volatile_index_.Remove(HashedKey(key), entry.version);
    });
  }
  memgests_.erase(it);
}

// ---------------------------------------------------------------------------
// Introspection

uint64_t RingServer::TotalMetadataBytes() const {
  uint64_t total = 0;
  for (const auto& [id, state] : memgests_) {
    for (const auto& [shard, store] : state.stores) {
      total += store->meta.ApproxBytes();
    }
  }
  return total;
}

uint64_t RingServer::StoredBytes() const {
  uint64_t total = 0;
  for (const auto& [id, state] : memgests_) {
    for (const auto& [shard, store] : state.stores) {
      total += store->heap.size();
    }
    for (const auto& [group, parity] : state.parity) {
      total += parity.mem.size();
    }
  }
  return total;
}

uint64_t RingServer::LiveBytes() const {
  uint64_t total = 0;
  for (const auto& [id, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      const uint32_t share =
          IsParityCopy(state, store_key) ? state.info->desc.k : 1;
      store->meta.ForEach([&total, share](const Key&, const MetaEntry& entry) {
        total += entry.region_len / share;
      });
    }
  }
  return total;
}

uint64_t RingServer::HeapExtent(MemgestId memgest, uint32_t shard,
                                uint32_t geom_s) const {
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return 0;
  }
  const ShardStore* store = it->second.stores.Find(GeomKey(geom_s, shard));
  return store == nullptr ? 0 : store->next_addr;
}

uint64_t RingServer::WriteSeq(MemgestId memgest, uint32_t shard,
                              uint32_t geom_s) const {
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return 0;
  }
  const ShardStore* store = it->second.stores.Find(GeomKey(geom_s, shard));
  return store == nullptr ? 0 : store->write_seq;
}

Buffer RingServer::ReadRawForRecovery(MemgestId memgest, uint32_t shard,
                                      uint64_t addr, uint32_t len,
                                      uint32_t geom_s) {
  // One-sided read target: when fetched over Fabric::Read this runs under
  // the *issuer's* clock, so conflicts with this node's own writes to the
  // range surface as races unless the protocol fenced them.
  NoteAccess(RegionKind::kHeap, AccessKind::kRead, ScopeOf(memgest, shard),
             addr, addr + len, "recovery/raw_heap_read");
  Buffer out(len, 0);
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return out;
  }
  const ShardStore* store = it->second.stores.Find(GeomKey(geom_s, shard));
  if (store != nullptr) {
    store->heap.CopyOut(addr, out);
  }
  return out;
}

Buffer RingServer::ReadRawParity(MemgestId memgest, uint32_t group,
                                 uint64_t addr, uint32_t len,
                                 uint32_t geom_s) {
  NoteAccess(RegionKind::kParityStrip, AccessKind::kRead,
             ScopeOf(memgest, GeomKey(geom_s, group)), addr, addr + len,
             "recovery/raw_parity_read");
  Buffer out(len, 0);
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return out;
  }
  auto git = it->second.parity.find(GeomKey(geom_s, group));
  if (git != it->second.parity.end()) {
    git->second.mem.CopyOut(addr, out);
  }
  return out;
}

bool RingServer::ParityUsable(MemgestId memgest, uint32_t group,
                              uint32_t geom_s) const {
  auto it = memgests_.find(memgest);
  if (it == memgests_.end()) {
    return false;
  }
  auto git = it->second.parity.find(GeomKey(geom_s, group));
  return git != it->second.parity.end() && git->second.rebuilt;
}

bool RingServer::DataUsable(MemgestId memgest, uint32_t shard,
                            uint32_t geom_s) const {
  auto it = memgests_.find(memgest);
  const ShardStore* store =
      it == memgests_.end() ? nullptr
                            : it->second.stores.Find(GeomKey(geom_s, shard));
  return serving_ &&
         (store == nullptr || store->meta.entries_without_bytes() == 0);
}

}  // namespace ring
