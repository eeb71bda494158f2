// Failure handling and recovery paths of RingServer (paper §5.5, §6.4):
// spare promotion, metadata fetch, volatile-hashtable rebuild, on-demand and
// background data recovery, parity reconstruction with write fencing.
#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/gf/gf256.h"
#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {
namespace {
constexpr uint64_t kSmallMsgBytes = 64;
constexpr uint64_t kAckBytes = 48;
constexpr uint64_t kLogRecordBytes = 32;
// Re-send cadence for unanswered metadata fetches during a promotion (lossy
// links and partitions drop them; the promotion must not wedge).
constexpr sim::SimTime kMetaFetchRetryNs = 3 * sim::kMillisecond;

using analysis::AccessKind;
using analysis::RegionKind;

// Region-scope encoding; must match the definitions in server.cc (the
// helpers are TU-local there, so they are restated here).
uint64_t ScopeOf(MemgestId memgest, uint32_t sub) {
  return (static_cast<uint64_t>(memgest) << 32) | sub;
}
uint64_t ParityMetaScope(MemgestId memgest, uint32_t shard) {
  return ScopeOf(memgest, 0x80000000u | shard);
}
}  // namespace

void RingServer::OnConfig(const consensus::ClusterConfig& config) {
  const int32_t old_slot = config_.slot_of_node[id_];
  const bool was_rebalancing = config_.rebalancing();
  config_ = config;
  if (config.failed[id_]) {
    // The cluster considers this node dead (it may in fact be alive and
    // recovering). Stop serving; a later config that readmits it drives the
    // rejoin transition below.
    serving_ = false;
    excluded_ = true;
    // §16: fenced while live. Every redundancy append or ack this node
    // could still send NACKs at the witnesses, so its in-flight quorum
    // rounds are permanently stuck — abandon them instead of letting the
    // wedged-write probe count zombies.
    AbandonPendingWrites();
    return;
  }
  const bool readmitted = excluded_;
  excluded_ = false;
  const int32_t new_slot = config.slot_of_node[id_];
  if (new_slot == consensus::kSpareSlot) {
    if (!readmitted && config_.rebalancing() &&
        config_.Previous().SlotOfNode(id_) != consensus::kSpareSlot) {
      // Scale-in: our slot exists only in the previous shape. Keep serving
      // old-placement reads and sourcing migrations until the drain ends;
      // the CompleteRebalance config parks us in the spare pool below.
      return;
    }
    if (old_slot != consensus::kSpareSlot || readmitted || serving_) {
      // Demoted (our old slot was re-assigned while we were out),
      // readmitted into the spare pool after a crash, or a drained
      // scale-in just completed: whatever state we hold is stale. Start
      // over as a clean, non-serving spare.
      memgests_.clear();
      volatile_index_.Clear();
      serving_ = false;
      is_spare_ = true;
    }
    return;
  }
  if (old_slot == consensus::kSpareSlot || readmitted) {
    is_spare_ = false;
    if (readmitted) {
      // Readmitted straight into a slot (typically our own old slot, when
      // no spare had been available to take it): the restart was
      // memory-less, so rebuild through the normal promotion path.
      memgests_.clear();
      volatile_index_.Clear();
    }
    BeginPromotion(static_cast<uint32_t>(new_slot));
    return;
  }
  if (was_rebalancing && !config_.rebalancing()) {
    // Rebalance completed: every key has been handed to its new-shape owner,
    // so the previous shape's stores, parity strips and markers are garbage.
    PurgeStaleGeometries();
  }
}

void RingServer::AbandonPendingWrites() {
  for (auto& [gid, state] : memgests_) {
    for (auto& [store_key, store] : state.stores) {
      store->meta.ForEachMutable([&](const Key&, MetaEntry& e) {
        if (!e.committed) {
          e.pending.reset();
        }
      });
    }
  }
}

void RingServer::Restart() {
  // Memory-less reboot: every byte of store state is gone. The node comes
  // back as a non-serving spare; membership readmission (and, if the
  // cluster re-promotes it, the normal recovery path) restores service.
  memgests_.clear();
  volatile_index_.Clear();
  client_ops_.clear();
  client_ops_order_.clear();
  counters_ = Counters{};
  last_recovery_ns_ = 0;
  serving_ = false;
  is_spare_ = true;
  // Our view of the config is stale by construction: mark ourselves failed
  // and parked on the spare slot so the readmission config (which may hand
  // back our old slot) registers as a promotion edge in OnConfig.
  config_.failed[id_] = true;
  config_.slot_of_node[id_] = consensus::kSpareSlot;
  excluded_ = true;
}

void RingServer::BeginPromotion(uint32_t new_slot) {
  serving_ = false;
  const sim::SimTime start = rt_->simulator().now();

  // Enumerate the metadata-fetch tasks implied by the slot's roles. During
  // a rebalance (§13) both shapes are live: the node recovers its roles
  // under the current geometry *and* under the previous one (old-placement
  // keys are still served there until migrated).
  struct Task {
    const MemgestInfo* info;
    uint32_t shard;
    bool as_parity;
    uint32_t geom;
  };
  auto tasks = std::make_shared<std::vector<Task>>();
  auto enumerate_shape = [&](uint32_t geom, int32_t my_slot) {
    if (my_slot == consensus::kSpareSlot) {
      return;  // this node has no role under that shape
    }
    const auto placement = PlacementFor(geom);
    if (!placement.has_value()) {
      return;
    }
    const uint32_t slot = static_cast<uint32_t>(my_slot);
    rt_->registry().ForEach([&](const MemgestInfo& info) {
      if (!info.desc.unreliable()) {
        // Coordinator of every shard whose rotation lands on this slot.
        for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
          if (placement->SlotOfShard(shard) == slot) {
            tasks->push_back({&info, shard, false, geom});
          }
        }
      }
      if (info.desc.kind == SchemeKind::kReplicated) {
        for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
          const auto slots = MemgestRegistry::ReplicaSlotsFor(
              info, shard, geom, config_.d);
          if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
            tasks->push_back({&info, shard, false, geom});
          }
        }
      } else {
        for (uint32_t group = 0; group < config_.groups; ++group) {
          const auto parity_slots = MemgestRegistry::ParitySlotsFor(
              info, group, geom, config_.d);
          const auto it =
              std::find(parity_slots.begin(), parity_slots.end(), slot);
          if (it == parity_slots.end()) {
            continue;
          }
          MemgestState& state = StateOf(info);
          ParityStore& parity = state.parity[GeomKey(geom, group)];
          parity.parity_index =
              static_cast<uint32_t>(it - parity_slots.begin());
          parity.rebuilt = false;
          for (uint32_t sigma = 0; sigma < geom; ++sigma) {
            tasks->push_back({&info, group * geom + sigma, true, geom});
          }
        }
      }
    });
  };
  enumerate_shape(config_.s, static_cast<int32_t>(new_slot));
  if (config_.rebalancing()) {
    const auto prev = PlacementFor(config_.prev_s);
    if (prev.has_value()) {
      enumerate_shape(config_.prev_s, prev->SlotOfNode(id_));
    }
  }

  auto remaining = std::make_shared<size_t>(tasks->size());
  auto finish = [this, start] {
    // All metadata is local: rebuild the volatile hashtable and start
    // serving; data recovery continues in the background (§5.5 step 6).
    uint64_t entries = 0;
    for (const auto& [id, state] : memgests_) {
      for (const auto& [shard, store] : state.stores) {
        entries += store->meta.entry_count();
      }
    }
    const auto& p = rt_->simulator().params();
    cpu().Execute(p.server_base_ns + entries * p.recovery_entry_ns,
                  [this, start] {
      if (!IsAlive()) {
        return;
      }
      RebuildVolatileIndex();
      serving_ = true;
      last_recovery_ns_ = rt_->simulator().now() - start;
      hub().tracer().Record("promotion", obs::Category::kRecovery, id_, 0,
                            start, rt_->simulator().now());
      hub().metrics().Observe("recovery.promotion_ns", last_recovery_ns_, id_,
                              obs::kNoMemgest, obs::OpKind::kRecovery);
      hub().recorder().Record(obs::RecKind::kRecovery, "promotion", id_, 0,
                              last_recovery_ns_);
      RecoverAllData([this] { NotifyRedundancyRecovered(); });
    });
  };
  if (tasks->empty()) {
    finish();
    return;
  }
  for (const auto& task : *tasks) {
    FetchShardMetadata(*task.info, task.shard, task.as_parity, task.geom,
                       [remaining, finish] {
                         if (--*remaining == 0) {
                           finish();
                         }
                       });
  }
}

std::vector<int32_t> RingServer::AliveMetaSources(const MemgestInfo& info,
                                                  uint32_t shard,
                                                  uint32_t geom_s) const {
  const uint32_t geom = geom_s == 0 ? config_.s : geom_s;
  const auto placement = PlacementFor(geom);
  if (!placement.has_value()) {
    return {};
  }
  // Candidate holders of the shard's metadata, in preference order:
  // the coordinator itself, then replicas (Rep) or parity nodes (SRS).
  // All slot ids live in `geom`'s slot space.
  std::vector<uint32_t> candidates;
  candidates.push_back(placement->SlotOfShard(shard));
  if (info.desc.kind == SchemeKind::kReplicated) {
    for (uint32_t slot :
         MemgestRegistry::ReplicaSlotsFor(info, shard, geom, config_.d)) {
      candidates.push_back(slot);
    }
  } else {
    for (uint32_t slot : MemgestRegistry::ParitySlotsFor(
             info, placement->GroupOfShard(shard), geom, config_.d)) {
      candidates.push_back(slot);
    }
  }
  const int32_t my_slot = placement->SlotOfNode(id_);
  std::vector<int32_t> alive;
  for (uint32_t slot : candidates) {
    if (static_cast<int32_t>(slot) == my_slot) {
      continue;
    }
    const net::NodeId node = placement->NodeOfSlot(slot);
    if (!config_.failed[node] && rt_->fabric().alive(node)) {
      alive.push_back(static_cast<int32_t>(slot));
    }
  }
  // Replication commits on a quorum: any single survivor may be missing
  // committed writes, so recovery must union the metadata of every alive
  // holder. Parity nodes ack every update before commit — any one of them
  // has the complete table.
  if (info.desc.kind != SchemeKind::kReplicated && alive.size() > 1) {
    alive.resize(1);
  }
  if (rt_->options().test_bugs.single_source_recovery && alive.size() > 1) {
    // test_bugs: PR 5 bug 2 — trust the first alive holder alone; a holder
    // that missed a quorum-committed append loses that entry on promotion.
    alive.resize(1);
  }
  return alive;
}

void RingServer::FetchShardMetadata(const MemgestInfo& info, uint32_t shard,
                                    bool as_parity, uint32_t geom_s,
                                    std::function<void()> done) {
  const uint32_t geom = geom_s == 0 ? config_.s : geom_s;
  const std::vector<int32_t> sources = AliveMetaSources(info, shard, geom);
  const auto placement = PlacementFor(geom);
  if (sources.empty() || !placement.has_value()) {
    done();  // nothing recoverable (e.g. unreliable memgest)
    return;
  }
  auto remaining = std::make_shared<size_t>(sources.size());
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (const int32_t src_slot : sources) {
    const MemgestInfo* info_ptr = &info;
    // First response wins: the flag stops the retry timer and swallows both
    // chaos-duplicated replies and late originals after a re-send.
    auto responded = std::make_shared<bool>(false);
    auto reply = [this, info_ptr, shard, geom, as_parity, src_slot, remaining,
                  shared_done,
                  responded](std::shared_ptr<MetadataTable> table,
                             uint64_t wire_bytes) {
      (void)wire_bytes;
      if (*responded) {
        return;
      }
      *responded = true;
      const auto& p = rt_->simulator().params();
      cpu().Execute(table->entry_count() * p.recovery_entry_ns,
                    [this, info_ptr, shard, geom, as_parity, src_slot, table,
                     remaining, shared_done] {
        if (!IsAlive()) {
          return;
        }
        MemgestState& state = StateOf(*info_ptr);
        ParityStore* parity =
            as_parity ? &state.parity.at(GeomKey(geom, shard / geom))
                      : nullptr;
        ShardStore* store = as_parity ? nullptr : &StoreOf(state, shard, geom);
        MetadataTable& target =
            as_parity ? parity->shard_meta[shard] : store->meta;
        const EarlyGcSet& early_gc =
            as_parity ? parity->early_gc : store->early_gc;
        // Bulk re-population of the whole shard table on the promoted node.
        // Tables from multiple sources are unioned: quorum commit means a
        // write may survive on any single holder, so every survivor's view
        // contributes the entries the others missed.
        NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
                   as_parity ? ParityMetaScope(info_ptr->id, shard)
                             : ScopeOf(info_ptr->id, shard),
                   0, UINT64_MAX, "meta_fetch/install");
        uint64_t high_water = 0;
        uint64_t installed = 0;
        table->ForEach([&](const Key& key, const MetaEntry& src) {
          if (src.geom_s != 0 && src.geom_s != geom) {
            return;  // skewed source mixed in a foreign shape: not ours
          }
          if (target.Find(key, src.version) != nullptr) {
            return;  // another source already supplied this version
          }
          if (early_gc.Contains(shard, key, src.version)) {
            // Collected after the source's snapshot was taken. The record
            // stays: another source may still offer the same version.
            return;
          }
          MetaEntry entry = src;  // a copy carries no in-flight write state
          // Surviving entries are durable: treat them as committed. Their
          // bytes are not local yet and must be copied from a node that
          // actually holds this entry.
          entry.committed = true;
          entry.data_present = entry.tombstone || entry.len == 0;
          entry.geom_s = geom;
          entry.moved_done = false;  // volatile: re-verified by the driver
          entry.recovery_src = src_slot;
          high_water = std::max(high_water, entry.addr + entry.region_len);
          target.Insert(key, std::move(entry));
          ++installed;
        });
        if (!as_parity) {
          // The allocator must never re-issue addresses of recovered
          // regions: new puts racing with background data recovery would
          // overwrite the surviving replica/parity copies they are
          // recovered from.
          store->next_addr = std::max(store->next_addr, high_water);
          store->EnsureSize(store->next_addr);
          store->write_seq += table->entry_count();  // fencing stays monotonic
        }
        state.log_len += installed;
        if (--*remaining == 0) {
          (*shared_done)();
        }
      });
    };
    SendMetaFetchAttempt(info, shard, geom, src_slot, responded,
                         std::move(reply));
  }
}

void RingServer::SendMetaFetchAttempt(
    const MemgestInfo& info, uint32_t shard, uint32_t geom, int32_t src_slot,
    std::shared_ptr<bool> responded,
    std::function<void(std::shared_ptr<MetadataTable>, uint64_t)> reply) {
  if (*responded || !IsAlive()) {
    return;
  }
  // Resolve the slot's holder fresh on every attempt: a promotion may have
  // re-pointed it to a different node since the last send.
  const auto placement = PlacementFor(geom);
  if (!placement.has_value()) {
    // The shape was retired mid-promotion (a rebalance completed): treat the
    // fetch as answered with nothing so the promotion can finish.
    *responded = true;
    reply(std::make_shared<MetadataTable>(), 0);
    return;
  }
  MetaFetch msg;
  msg.memgest = info.id;
  msg.shard = shard;
  msg.requester = id_;
  msg.geom_s = geom;
  msg.reply = reply;
  const net::NodeId src_node =
      placement->NodeOfSlot(static_cast<uint32_t>(src_slot));
  auto* peer = rt_->server(src_node);
  SendToNode(src_node, kSmallMsgBytes,
             [peer, msg = std::move(msg)]() mutable {
               peer->HandleMetaFetch(std::move(msg));
             });
  const MemgestInfo* info_ptr = &info;
  rt_->simulator().After(
      kMetaFetchRetryNs,
      [this, info_ptr, shard, geom, src_slot, responded,
       reply = std::move(reply)]() mutable {
        SendMetaFetchAttempt(*info_ptr, shard, geom, src_slot,
                             std::move(responded), std::move(reply));
      });
}

void RingServer::HandleMetaFetch(MetaFetch msg) {
  if (!IsAlive()) {
    return;
  }
  const auto& p = rt_->simulator().params();
  cpu().Execute(p.server_base_ns, [this, msg = std::move(msg)]() mutable {
    if (!IsAlive()) {
      return;
    }
    const uint32_t geom = msg.geom_s == 0 ? config_.s : msg.geom_s;
    auto it = memgests_.find(msg.memgest);
    auto table = std::make_shared<MetadataTable>();
    uint64_t log_bytes = 0;
    if (it != memgests_.end()) {
      const MemgestState& state = it->second;
      const MetadataTable* source = nullptr;
      uint64_t source_scope = 0;
      if (const ShardStore* store = state.stores.Find(GeomKey(geom, msg.shard));
          store != nullptr) {
        source = &store->meta;
        source_scope = ScopeOf(msg.memgest, msg.shard);
      } else if (auto git = state.parity.find(GeomKey(geom, msg.shard / geom));
                 git != state.parity.end()) {
        auto pit = git->second.shard_meta.find(msg.shard);
        if (pit != git->second.shard_meta.end()) {
          source = &pit->second;
          source_scope = ParityMetaScope(msg.memgest, msg.shard);
        }
      }
      if (source != nullptr) {
        // Whole-table snapshot read on the surviving source node.
        NoteAccess(RegionKind::kMetadata, AccessKind::kRead, source_scope, 0,
                   UINT64_MAX, "meta_fetch/snapshot");
        *table = *source;
      }
      log_bytes = state.log_len * kLogRecordBytes;
    }
    // Serialization cost on the source side.
    const uint64_t wire = table->ApproxBytes() + log_bytes + kSmallMsgBytes;
    cpu().Execute(table->entry_count() *
                      rt_->simulator().params().recovery_entry_ns / 2,
                  [this, msg = std::move(msg), table, wire]() mutable {
      rt_->fabric().Send(id_, msg.requester, wire,
                         [reply = std::move(msg.reply), table, wire] {
                           reply(table, wire);
                         });
    });
  });
}

void RingServer::RebuildVolatileIndex() {
  volatile_index_.Clear();
  if (config_.failed[id_]) {
    return;
  }
  // Walk every store (both shapes during a rebalance) and index the entries
  // of shards this node coordinates *under the store's own shape*: old-shape
  // keys are routed to their old-placement coordinator until migrated (§13).
  for (auto& [id, state] : memgests_) {
    for (auto& [store_key, store] : state.stores) {
      const uint32_t geom = store_key >> 16;
      const uint32_t shard = store_key & 0xffffu;
      const auto placement = PlacementFor(geom);
      const bool mine = placement.has_value() &&
                        placement->CoordinatorOfShard(shard) == id_;
      store->meta.ForEachMutable([&](const Key& key, MetaEntry& entry) {
        // The flag rides along in metadata-fetch snapshots, so entries of
        // shards this node does *not* coordinate must be re-marked as plain
        // mirrors — a stale true would fool the geometry purge later.
        entry.indexed = mine;
        if (mine) {
          volatile_index_.Add(HashedKey(key),
                              VolatileIndex::Ref{entry.version, &entry,
                                                 store.get(), id, store_key});
        }
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Data recovery

void RingServer::EnsureDataPresent(const MemgestInfo& info, uint32_t shard,
                                   uint32_t geom_s, const Key& key,
                                   Version version,
                                   std::function<void(Status)> then) {
  const uint32_t geom = geom_s == 0 ? config_.s : geom_s;
  const auto placement = PlacementFor(geom);
  if (!placement.has_value()) {
    then(FailedPreconditionError("shape no longer live"));
    return;
  }
  MemgestState& state = StateOf(info);
  ShardStore& store = StoreOf(state, shard, geom);
  MetaEntry* entry = store.meta.Find(key, version);
  if (entry == nullptr) {
    then(NotFoundError("entry gone"));
    return;
  }
  if (entry->data_present) {
    then(OkStatus());
    return;
  }
  const uint64_t addr = entry->addr;
  const uint32_t len = entry->len;
  const MemgestInfo* info_ptr = &info;
  const uint64_t op_id = hub().current_op();
  const sim::SimTime recover_start = rt_->simulator().now();

  auto complete = [this, info_ptr, shard, geom, key, version, op_id,
                   recover_start,
                   then = std::move(then)](std::shared_ptr<Buffer> bytes) {
    obs::ScopedOp scope(hub(), op_id);
    hub().tracer().Record("block_recovery", obs::Category::kRecovery, id_,
                          op_id, recover_start, rt_->simulator().now());
    if (!IsAlive()) {
      return;
    }
    if (!bytes) {
      then(DataLossError("no live source for block recovery"));
      return;
    }
    MemgestState& st = StateOf(*info_ptr);
    ShardStore& sh = StoreOf(st, shard, geom);
    MetaEntry* e = sh.meta.Find(key, version);
    if (e == nullptr) {
      then(NotFoundError("entry gone during recovery"));
      return;
    }
    NoteAccess(RegionKind::kHeap, AccessKind::kWrite,
               ScopeOf(info_ptr->id, shard), e->addr,
               e->addr + bytes->size(), "recovery/block_install");
    sh.Write(e->addr, *bytes);
    e->data_present = true;
    ++counters_.blocks_recovered;
    hub().metrics().Inc("recovery.blocks", 1, id_, info_ptr->id,
                        obs::OpKind::kRecovery);
    hub().recorder().Record(obs::RecKind::kRecovery, "block_recovery", id_,
                            op_id, info_ptr->id, version);
    then(OkStatus());
  };

  if (info.desc.kind == SchemeKind::kReplicated) {
    // Copy over one-sided reads (§5.5) — first choice is the slot that
    // supplied this entry's metadata: with quorum commit other survivors
    // may never have applied the write, and their heap bytes at this
    // address would be stale.
    std::vector<uint32_t> candidates;
    if (entry->recovery_src >= 0) {
      candidates.push_back(static_cast<uint32_t>(entry->recovery_src));
    }
    candidates.push_back(placement->SlotOfShard(shard));  // the coordinator
    for (uint32_t slot :
         MemgestRegistry::ReplicaSlotsFor(info, shard, geom, config_.d)) {
      candidates.push_back(slot);
    }
    const int32_t my_slot = placement->SlotOfNode(id_);
    for (uint32_t slot : candidates) {
      if (static_cast<int32_t>(slot) == my_slot) {
        continue;
      }
      const net::NodeId node = placement->NodeOfSlot(slot);
      if (config_.failed[node] || !rt_->fabric().alive(node)) {
        continue;
      }
      auto* peer = rt_->server(node);
      auto bytes = std::make_shared<Buffer>();
      const MemgestId gid = info.id;
      rt_->fabric().Read(
          id_, node, len,
          [peer, bytes, gid, shard, geom, addr, len] {
            *bytes = peer->ReadRawForRecovery(gid, shard, addr, len, geom);
          },
          [complete, bytes]() mutable { complete(bytes); });
      return;
    }
    complete(nullptr);
    return;
  }

  // Erasure coded: ask a usable parity node to decode (§5.5). "The data node
  // sends a recovery request to the parity node responsible for the block."
  const uint32_t group = shard / geom;
  for (uint32_t slot :
       MemgestRegistry::ParitySlotsFor(info, group, geom, config_.d)) {
    const net::NodeId node = placement->NodeOfSlot(slot);
    if (config_.failed[node] || !rt_->fabric().alive(node)) {
      continue;
    }
    auto* peer = rt_->server(node);
    if (!peer->ParityUsable(info.id, group, geom)) {
      continue;
    }
    RecoverBlock msg;
    msg.memgest = info.id;
    msg.shard = shard;
    msg.addr = addr;
    msg.len = len;
    msg.requester = id_;
    msg.op_id = op_id;
    msg.geom_s = geom;
    msg.reply = complete;
    rt_->fabric().Send(id_, node, kSmallMsgBytes,
                       [peer, msg = std::move(msg)]() mutable {
                         peer->HandleRecoverBlock(std::move(msg));
                       });
    return;
  }
  complete(nullptr);
}

void RingServer::HandleRecoverBlock(RecoverBlock msg) {
  if (!IsAlive()) {
    return;
  }
  obs::ScopedOp scope(hub(), msg.op_id);
  const auto& p = rt_->simulator().params();
  cpu().Execute(p.server_base_ns, [this, msg = std::move(msg)]() mutable {
    obs::ScopedOp op_scope(hub(), msg.op_id);
    if (!IsAlive()) {
      return;
    }
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    const uint32_t geom = msg.geom_s == 0 ? config_.s : msg.geom_s;
    const uint32_t group = msg.shard / geom;
    const auto placement = PlacementFor(geom);
    const srs::SrsCode* code =
        info == nullptr ? nullptr : rt_->registry().CodeFor(*info, geom);
    const srs::SrsAddressMap* map =
        info == nullptr ? nullptr : rt_->registry().MapFor(*info, geom);
    if (info == nullptr || !placement.has_value() || code == nullptr ||
        map == nullptr || !ParityUsable(msg.memgest, group, geom)) {
      rt_->fabric().Send(id_, msg.requester, kSmallMsgBytes,
                         [reply = msg.reply] { reply(nullptr); });
      return;
    }
    MemgestState& state = StateOf(*info);
    ParityStore& parity = state.parity.at(GeomKey(geom, group));
    const auto segments = map->MapDataRange(msg.shard % geom, msg.addr, msg.len);
    auto result = std::make_shared<Buffer>(msg.len, 0);
    auto remaining = std::make_shared<size_t>(segments.size());
    auto failed = std::make_shared<bool>(false);

    // The block decodes segment by segment: each mini-stripe needs k source
    // chunks gathered from live data nodes (one-sided reads) plus local /
    // remote parity.
    uint64_t result_offset = 0;
    for (const auto& seg : segments) {
      const uint64_t out_off = result_offset;
      result_offset += seg.length;
      auto sources = map->DecodeSources(seg);
      auto collected = std::make_shared<
          std::vector<std::pair<uint32_t, Buffer>>>();
      auto outstanding = std::make_shared<size_t>(0);
      auto finished = std::make_shared<bool>(false);

      const uint32_t k = code->k();
      auto finish_segment = [this, code, seg, out_off, result, remaining,
                             failed, collected, finished, msg, k]() {
        if (*finished) {
          return;
        }
        if (collected->size() < k) {
          return;  // wait for more sources
        }
        *finished = true;
        const auto& pr = rt_->simulator().params();
        const uint64_t decode_cost =
            static_cast<uint64_t>(pr.decode_byte_ns * k * seg.length);
        cpu().Execute(
            decode_cost,
            [this, code, seg, out_off, result, remaining, failed, collected,
             msg] {
          obs::ScopedOp decode_scope(hub(), msg.op_id);
          if (!IsAlive()) {
            return;
          }
          std::vector<std::pair<uint32_t, ByteSpan>> avail;
          for (const auto& [h_row, buf] : *collected) {
            avail.emplace_back(h_row, ByteSpan(buf));
          }
          auto data = code->rs().RecoverData(avail);
          if (!data.ok()) {
            *failed = true;
          } else {
            std::copy((*data)[seg.rs_block].begin(),
                      (*data)[seg.rs_block].end(),
                      result->begin() + out_off);
          }
          if (--*remaining == 0) {
            auto out = *failed ? nullptr : result;
            rt_->fabric().Send(id_, msg.requester,
                               kSmallMsgBytes + (out ? out->size() : 0),
                               [reply = msg.reply, out] { reply(out); });
          }
        });
        if (decode_cost > 0) {
          hub().tracer().Record("decode", obs::Category::kCoding, id_,
                                msg.op_id, cpu().busy_until() - decode_cost,
                                cpu().busy_until());
        }
      };

      uint32_t launched = 0;
      for (const auto& src : sources) {
        if (launched >= k) {
          break;
        }
        if (!src.is_parity) {
          const uint32_t src_shard = group * geom + src.node;
          if (src_shard == msg.shard) {
            continue;  // the block being recovered
          }
          const net::NodeId node = placement->CoordinatorOfShard(src_shard);
          if (config_.failed[node] || !rt_->fabric().alive(node)) {
            continue;
          }
          auto* peer = rt_->server(node);
          auto buf = std::make_shared<Buffer>();
          const MemgestId gid = info->id;
          const uint32_t shard_src = src_shard;
          const uint64_t off = src.offset;
          const uint32_t piece = static_cast<uint32_t>(seg.length);
          const uint32_t h_row = src.h_row;
          ++launched;
          ++*outstanding;
          rt_->fabric().Read(
              id_, node, piece,
              [peer, buf, gid, shard_src, geom, off, piece] {
                *buf = peer->ReadRawForRecovery(gid, shard_src, off, piece,
                                                geom);
              },
              [collected, h_row, buf, outstanding, finish_segment] {
                collected->emplace_back(h_row, std::move(*buf));
                --*outstanding;
                finish_segment();
              });
        } else {
          if (src.node == parity.parity_index) {
            // Local parity bytes: no network involved.
            Buffer local = ReadRawParity(info->id, group, src.offset,
                                         static_cast<uint32_t>(seg.length),
                                         geom);
            collected->emplace_back(src.h_row, std::move(local));
            ++launched;
          } else {
            const net::NodeId node = placement->NodeOfSlot(
                placement->RedundantSlot(group, src.node));
            if (config_.failed[node] || !rt_->fabric().alive(node)) {
              continue;
            }
            auto* peer = rt_->server(node);
            if (!peer->ParityUsable(info->id, group, geom)) {
              continue;
            }
            auto buf = std::make_shared<Buffer>();
            const MemgestId gid = info->id;
            const uint64_t off = src.offset;
            const uint32_t piece = static_cast<uint32_t>(seg.length);
            const uint32_t h_row = src.h_row;
            ++launched;
            ++*outstanding;
            rt_->fabric().Read(
                id_, node, piece,
                [peer, buf, gid, group, geom, off, piece] {
                  *buf = peer->ReadRawParity(gid, group, off, piece, geom);
                },
                [collected, h_row, buf, outstanding, finish_segment] {
                  collected->emplace_back(h_row, std::move(*buf));
                  --*outstanding;
                  finish_segment();
                });
          }
        }
      }
      if (launched < k) {
        // Not enough live sources: the segment is unrecoverable.
        *failed = true;
        if (--*remaining == 0) {
          rt_->fabric().Send(id_, msg.requester, kSmallMsgBytes,
                             [reply = msg.reply] { reply(nullptr); });
        }
        continue;
      }
      finish_segment();  // covers the all-local case
    }
  });
}

void RingServer::RecoverAllData(std::function<void()> done) {
  // Collect every entry whose bytes are missing, across coordinator and
  // replica stores.
  struct StoreTask {
    const MemgestInfo* info;
    uint32_t shard;
    uint32_t geom;
    std::vector<std::pair<Key, Version>> entries;
  };
  auto tasks = std::make_shared<std::vector<StoreTask>>();
  auto parity_rebuilds = std::make_shared<
      std::vector<std::pair<const MemgestInfo*, uint32_t>>>();
  for (auto& [id, state] : memgests_) {
    if (rt_->options().background_data_recovery) {
      for (auto& [store_key, store] : state.stores) {
        StoreTask task{state.info, store_key & 0xffffu, store_key >> 16, {}};
        store->meta.ForEach([&](const Key& key, const MetaEntry& entry) {
          if (!entry.data_present) {
            task.entries.emplace_back(key, entry.version);
          }
        });
        if (!task.entries.empty()) {
          tasks->push_back(std::move(task));
        }
      }
    }
    for (auto& [pkey, parity] : state.parity) {
      if (!parity.rebuilt) {
        parity_rebuilds->push_back({state.info, pkey});
      }
    }
  }
  auto remaining =
      std::make_shared<size_t>(tasks->size() + parity_rebuilds->size());
  if (*remaining == 0) {
    done();
    return;
  }
  auto step = [remaining, done = std::move(done)] {
    if (--*remaining == 0) {
      done();
    }
  };
  for (auto& task : *tasks) {
    RecoverStoreEntries(*task.info, task.shard, task.geom,
                        std::move(task.entries), 0, step);
  }
  for (const auto& [info, pkey] : *parity_rebuilds) {
    RebuildParity(*info, pkey, step);
  }
}

void RingServer::RecoverStoreEntries(
    const MemgestInfo& info, uint32_t shard, uint32_t geom_s,
    std::vector<std::pair<Key, Version>> todo, size_t next,
    std::function<void()> done) {
  if (!IsAlive()) {
    return;
  }
  if (next >= todo.size()) {
    done();
    return;
  }
  const auto [key, version] = todo[next];
  const MemgestInfo* info_ptr = &info;
  EnsureDataPresent(info, shard, geom_s, key, version,
                    [this, info_ptr, shard, geom_s, todo = std::move(todo),
                     next, done = std::move(done)](Status) mutable {
                      RecoverStoreEntries(*info_ptr, shard, geom_s,
                                          std::move(todo), next + 1,
                                          std::move(done));
                    });
}

void RingServer::RebuildParity(const MemgestInfo& info, uint32_t pkey,
                               std::function<void()> done) {
  assert(StateOf(info).parity.count(pkey) > 0);
  const uint32_t geom = pkey >> 16;
  const uint32_t group = pkey & 0xffffu;
  const auto placement_now = PlacementFor(geom);
  if (!placement_now.has_value()) {
    done();  // shape retired mid-recovery; the store will be purged
    return;
  }
  const sim::SimTime rebuild_start = rt_->simulator().now();

  struct ShardSnapshot {
    std::shared_ptr<Buffer> bytes;
    uint64_t seq = 0;
    uint64_t extent = 0;
  };
  auto snaps = std::make_shared<std::vector<ShardSnapshot>>(geom);
  auto remaining = std::make_shared<size_t>(geom);
  const MemgestInfo* info_ptr = &info;

  std::function<void()> assemble = [this, info_ptr, geom, group, pkey, snaps,
                                    rebuild_start, done = std::move(done)] {
    if (!IsAlive()) {
      return;
    }
    uint64_t total_bytes = 0;
    for (const auto& snap : *snaps) {
      total_bytes += snap.extent;
    }
    const auto& p = rt_->simulator().params();
    const uint64_t gf_cost =
        static_cast<uint64_t>(p.gf_byte_ns * total_bytes);
    cpu().Execute(
        p.server_base_ns + gf_cost,
        [this, info_ptr, geom, group, pkey, snaps, rebuild_start, done] {
      if (!IsAlive()) {
        return;
      }
      const srs::SrsCode* code = rt_->registry().CodeFor(*info_ptr, geom);
      const srs::SrsAddressMap* map = rt_->registry().MapFor(*info_ptr, geom);
      const auto placement = PlacementFor(geom);
      if (code == nullptr || map == nullptr || !placement.has_value()) {
        done();  // shape retired mid-rebuild
        return;
      }
      MemgestState& st = StateOf(*info_ptr);
      ParityStore& par = st.parity.at(pkey);
      // The rebuild rewrites the entire strip in place.
      NoteAccess(RegionKind::kParityStrip, AccessKind::kWrite,
                 ScopeOf(info_ptr->id, group), 0, UINT64_MAX,
                 "parity_rebuild/strip");
      std::fill(par.mem.begin(), par.mem.end(), 0);
      // Collect every (coefficient, source, parity range) contribution
      // first, then fuse: segments from different shards that map to the
      // same parity range (same mini-stripe cell) are accumulated in one
      // multi-source pass so each parity cache line is touched once instead
      // of once per shard.
      struct Contribution {
        uint64_t parity_offset;
        uint64_t length;
        uint8_t coeff;
        const uint8_t* src;
      };
      std::vector<Contribution> contribs;
      uint64_t max_extent = 0;
      for (uint32_t sigma = 0; sigma < snaps->size(); ++sigma) {
        const auto& snap = (*snaps)[sigma];
        if (!snap.bytes || snap.bytes->empty()) {
          continue;
        }
        for (const auto& seg :
             map->MapDataRange(sigma, 0, snap.bytes->size())) {
          contribs.push_back(
              {seg.parity_offset, seg.length,
               code->rs().Coefficient(par.parity_index, seg.rs_block),
               snap.bytes->data() + seg.node_offset});
          max_extent = std::max(max_extent, seg.parity_offset + seg.length);
        }
      }
      par.EnsureSize(max_extent);
      std::sort(contribs.begin(), contribs.end(),
                [](const Contribution& a, const Contribution& b) {
                  return a.parity_offset != b.parity_offset
                             ? a.parity_offset < b.parity_offset
                             : a.length < b.length;
                });
      std::vector<uint8_t> coeffs;
      std::vector<const uint8_t*> srcs;
      for (size_t i = 0; i < contribs.size();) {
        size_t j = i;
        coeffs.clear();
        srcs.clear();
        while (j < contribs.size() &&
               contribs[j].parity_offset == contribs[i].parity_offset &&
               contribs[j].length == contribs[i].length) {
          coeffs.push_back(contribs[j].coeff);
          srcs.push_back(contribs[j].src);
          ++j;
        }
        gf::MulAddRegionMulti(
            coeffs, std::span<const uint8_t* const>(srcs),
            MutableByteSpan(par.mem.data() + contribs[i].parity_offset,
                            contribs[i].length));
        i = j;
      }
      par.rebuilt = true;
      // Drain updates queued during the rebuild. The write fence keeps the
      // parity exact: deltas already contained in a snapshot are skipped,
      // but their metadata and acknowledgment still flow.
      auto queued = std::move(par.queued);
      par.queued.clear();
      for (auto& upd : queued) {
        if (upd.seq > (*snaps)[upd.shard % geom].seq) {
          ApplyParityBytes(*info_ptr, upd);
        }
        InsertParityMeta(par, upd, geom);
        Ack ack{upd.memgest, upd.shard, upd.key, upd.version,
                upd.parity_index, geom};
        const net::NodeId coord = placement->CoordinatorOfShard(upd.shard);
        auto* peer = rt_->server(coord);
        rt_->fabric().Write(id_, coord, kAckBytes,
                            [peer, ack] { peer->ApplyAck(ack); }, nullptr);
      }
      hub().tracer().Record("parity_rebuild", obs::Category::kRecovery, id_,
                            0, rebuild_start, rt_->simulator().now());
      hub().metrics().Inc("recovery.parity_rebuilds", 1, id_, info_ptr->id,
                          obs::OpKind::kRecovery);
      hub().recorder().Record(obs::RecKind::kRecovery, "parity_rebuild", id_,
                              0, info_ptr->id);
      done();
    });
    if (gf_cost > 0) {
      hub().tracer().Record("parity_encode", obs::Category::kCoding, id_, 0,
                            cpu().busy_until() - gf_cost, cpu().busy_until());
    }
  };

  for (uint32_t sigma = 0; sigma < geom; ++sigma) {
    const uint32_t shard = group * geom + sigma;
    const net::NodeId node = placement_now->CoordinatorOfShard(shard);
    if (config_.failed[node] || !rt_->fabric().alive(node)) {
      (*snaps)[sigma] = ShardSnapshot{};
      if (--*remaining == 0) {
        assemble();
      }
      continue;
    }
    auto* peer = rt_->server(node);
    const uint64_t extent = peer->HeapExtent(info.id, shard, geom);
    auto snap = std::make_shared<ShardSnapshot>();
    snap->extent = extent;
    snap->bytes = std::make_shared<Buffer>();
    const MemgestId gid = info.id;
    rt_->fabric().Read(
        id_, node, extent,
        [peer, snap, gid, shard, geom, extent] {
          // Bytes and fence captured atomically at the source.
          *snap->bytes = peer->ReadRawForRecovery(
              gid, shard, 0, static_cast<uint32_t>(extent), geom);
          snap->seq = peer->WriteSeq(gid, shard, geom);
        },
        [snaps, snap, sigma, remaining, assemble] {
          (*snaps)[sigma] = *snap;
          if (--*remaining == 0) {
            assemble();
          }
        });
  }
}

void RingServer::NotifyRedundancyRecovered() {
  for (auto& [gid, state] : memgests_) {
    const MemgestInfo* info = state.info;
    if (info == nullptr) {
      continue;
    }
    if (info->desc.kind == SchemeKind::kReplicated) {
      // Announce under every shape this node has a replica role in.
      std::vector<uint32_t> shapes{config_.s};
      if (config_.rebalancing()) {
        shapes.push_back(config_.prev_s);
      }
      for (const uint32_t geom : shapes) {
        const auto placement = PlacementFor(geom);
        if (!placement.has_value()) {
          continue;
        }
        const int32_t my_slot = placement->SlotOfNode(id_);
        if (my_slot < 0) {
          continue;
        }
        for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
          const auto slots = MemgestRegistry::ReplicaSlotsFor(
              *info, shard, geom, config_.d);
          const auto it = std::find(slots.begin(), slots.end(),
                                    static_cast<uint32_t>(my_slot));
          if (it == slots.end()) {
            continue;
          }
          RedundancyRecovered msg{gid, shard,
                                  static_cast<uint32_t>(it - slots.begin()),
                                  geom};
          const net::NodeId coord = placement->CoordinatorOfShard(shard);
          auto* peer = rt_->server(coord);
          rt_->fabric().Send(id_, coord, kSmallMsgBytes, [peer, msg] {
            peer->HandleRedundancyRecovered(msg);
          });
        }
      }
    } else {
      for (const auto& [pkey, parity] : state.parity) {
        const uint32_t geom = pkey >> 16;
        const uint32_t group = pkey & 0xffffu;
        const auto placement = PlacementFor(geom);
        if (!placement.has_value()) {
          continue;
        }
        for (uint32_t sigma = 0; sigma < geom; ++sigma) {
          const uint32_t shard = group * geom + sigma;
          RedundancyRecovered msg{gid, shard, parity.parity_index, geom};
          const net::NodeId coord = placement->CoordinatorOfShard(shard);
          auto* peer = rt_->server(coord);
          rt_->fabric().Send(id_, coord, kSmallMsgBytes, [peer, msg] {
            peer->HandleRedundancyRecovered(msg);
          });
        }
      }
    }
  }
}

void RingServer::HandleRedundancyRecovered(RedundancyRecovered msg) {
  if (!IsAlive()) {
    return;
  }
  cpu().Execute(rt_->simulator().params().server_base_ns, [this, msg] {
    if (!IsAlive()) {
      return;
    }
    const uint32_t geom = msg.geom_s == 0 ? config_.s : msg.geom_s;
    const auto placement = PlacementFor(geom);
    if (!placement.has_value() ||
        placement->CoordinatorOfShard(msg.shard) != id_) {
      return;
    }
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    if (info == nullptr) {
      return;
    }
    MemgestState& state = StateOf(*info);
    ShardStore& store = StoreOf(state, msg.shard, geom);
    // The recovered node now covers all durable bytes of this shard: count
    // it as an acknowledgment for every entry still waiting on it.
    std::vector<std::pair<Key, Version>> to_commit;
    const uint32_t bit = 1u << msg.ordinal;
    store.meta.ForEachMutable([&](const Key& key, MetaEntry& entry) {
      if (entry.committed || (entry.acks_pending() & bit) == 0) {
        return;
      }
      PendingWrite& pw = *entry.pending;
      pw.acks_pending &= ~bit;
      if (pw.acks_needed > 0 && --pw.acks_needed == 0) {
        to_commit.emplace_back(key, entry.version);
      }
    });
    for (const auto& [key, version] : to_commit) {
      const HashedKey hkey(key);
      // Looked up afresh per commit: the waiters an earlier commit releases
      // may write or collect entries of this store.
      MetaEntry* entry =
          StoreEntry(*info, msg.shard, geom, hkey, version).entry;
      if (entry != nullptr && !entry->committed) {
        CommitEntry(*info, msg.shard, hkey, *entry);
      }
    }
  });
}

}  // namespace ring
