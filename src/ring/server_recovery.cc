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
constexpr uint64_t kLogRecordBytes = 32;
// Re-send cadence for unanswered metadata fetches during a promotion (lossy
// links and partitions drop them; the promotion must not wedge).
constexpr sim::SimTime kMetaFetchRetryNs = 3 * sim::kMillisecond;

using analysis::AccessKind;
using analysis::RegionKind;
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
    promotion_.reset();
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
      ClearStores();
      promotion_.reset();
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
      ClearStores();
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
          EndWaiters(e);
          e.pending.reset();
        }
      });
    }
  }
}

void RingServer::ClearStores() {
  for (auto& [gid, state] : memgests_) {
    for (auto& [store_key, store] : state.stores) {
      store->meta.ForEach(
          [this](const Key&, const MetaEntry& e) { EndWaiters(e); });
    }
  }
  memgests_.clear();
  volatile_index_.Clear();
}

void RingServer::Restart() {
  // Memory-less reboot: every byte of store state and every in-flight op is
  // gone, so a CPU charge queued before the crash drops when it completes.
  // The node comes back as a non-serving spare; membership readmission
  // (and, if the cluster re-promotes it, the normal recovery path) restores
  // service. The counters survive: they count what the node has done.
  ops_->Clear();
  ClearStores();
  client_op_window_.Clear();
  last_recovery_ns_ = 0;
  promotion_.reset();
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
  promotion_ = Promotion{++last_recovery_id_, rt_->simulator().now(), {}, 0};

  // One fetch per role and alive source. During a rebalance (§13) both
  // shapes are live: the node recovers its roles under the current
  // geometry *and* under the previous one (old-placement keys are still
  // served there until migrated).
  auto fetch_roles = [&](uint32_t geom, int32_t my_slot) {
    const auto placement = PlacementFor(geom);
    if (my_slot == consensus::kSpareSlot || !placement.has_value()) {
      return;  // this node has no role under that shape
    }
    auto fetch = [&](const MemgestInfo& info, uint32_t shard, bool as_parity) {
      for (const int32_t src_slot : AliveMetaSources(info, shard, geom)) {
        const uint64_t fetch_id = ++last_recovery_id_;
        promotion_->fetches.emplace(
            fetch_id,
            Promotion::Fetch{&info, shard, geom, as_parity, src_slot});
        SendMetaFetch(fetch_id);
      }
    };
    rt_->registry().ForEach([&](const MemgestInfo& info) {
      // Coordinator roles first, then the shards this slot backs.
      for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
        if (!info.desc.unreliable() &&
            placement->SlotOfShard(shard) == static_cast<uint32_t>(my_slot)) {
          fetch(info, shard, false);
        }
      }
      for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
        const int32_t ordinal = placement->BackupOrdinal(
            shard, my_slot, info.erasure_coded(), info.desc.backups());
        if (ordinal < 0) {
          continue;
        }
        if (info.erasure_coded()) {
          ParityStore& parity =
              StateOf(info).parity[GeomKey(geom, shard / geom)];
          parity.parity_index = static_cast<uint32_t>(ordinal);
          parity.rebuilt = false;
        }
        fetch(info, shard, info.erasure_coded());
      }
    });
  };
  fetch_roles(config_.s, static_cast<int32_t>(new_slot));
  if (config_.rebalancing()) {
    const auto prev = PlacementFor(config_.prev_s);
    if (prev.has_value()) {
      fetch_roles(config_.prev_s, prev->SlotOfNode(id_));
    }
  }
  if (promotion_->fetches.empty()) {
    FinishPromotion();
  }
}

void RingServer::FinishPromotion() {
  // All metadata is local: rebuild the volatile hashtable and start
  // serving; data recovery continues in the background (§5.5 step 6).
  uint64_t entries = 0;
  for (const auto& [id, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      if (!IsParityCopy(state, store_key)) {
        entries += store->meta.entry_count();
      }
    }
  }
  const auto& p = rt_->simulator().params();
  OnCpu(p.server_base_ns + entries * p.recovery_entry_ns,
        [this, id = promotion_->id] {
    if (!PromotionLive(id)) {
      return;
    }
    const sim::SimTime start = promotion_->start;
    RebuildVolatileIndex();
    serving_ = true;
    last_recovery_ns_ = rt_->simulator().now() - start;
    hub().tracer().Record("promotion", obs::Category::kRecovery, id_, 0,
                          start, rt_->simulator().now());
    hub().metrics().Observe("recovery.promotion_ns", last_recovery_ns_, id_,
                            obs::kNoMemgest, obs::OpKind::kRecovery);
    hub().recorder().Record(obs::RecKind::kRecovery, "promotion", id_, 0,
                            last_recovery_ns_);
    RecoverAllData();
  });
}

std::vector<int32_t> RingServer::AliveMetaSources(const MemgestInfo& info,
                                                  uint32_t shard,
                                                  uint32_t geom) const {
  const auto placement = PlacementFor(geom);
  if (!placement.has_value()) {
    return {};
  }
  // Candidate holders of the shard's metadata, in preference order:
  // the coordinator itself, then replicas (Rep) or parity nodes (SRS) by
  // ordinal. All slot ids live in `geom`'s slot space.
  const int32_t my_slot = placement->SlotOfNode(id_);
  std::vector<int32_t> alive;
  const auto consider = [&](uint32_t slot) {
    if (static_cast<int32_t>(slot) != my_slot &&
        PeerAlive(placement->NodeOfSlot(slot))) {
      alive.push_back(static_cast<int32_t>(slot));
    }
  };
  consider(placement->SlotOfShard(shard));
  for (uint32_t ordinal = 0; ordinal < info.desc.backups(); ++ordinal) {
    consider(placement->BackupSlot(shard, ordinal, info.erasure_coded()));
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

RingServer::Promotion::Fetch* RingServer::FindFetch(uint64_t fetch_id) {
  if (!promotion_.has_value()) {
    return nullptr;
  }
  const auto it = promotion_->fetches.find(fetch_id);
  return it == promotion_->fetches.end() ? nullptr : &it->second;
}

void RingServer::SendMetaFetch(uint64_t fetch_id) {
  const Promotion::Fetch* fetch = FindFetch(fetch_id);
  if (fetch == nullptr || fetch->answered || !IsAlive()) {
    return;
  }
  // Resolve the slot's holder fresh on every attempt: a promotion may have
  // re-pointed it to a different node since the last send.
  const auto placement = PlacementFor(fetch->geom_s);
  if (!placement.has_value()) {
    return;
  }
  const MetaFetch msg{fetch->info->id, fetch->shard, id_, fetch->geom_s,
                      fetch_id};
  const net::NodeId src_node =
      placement->NodeOfSlot(static_cast<uint32_t>(fetch->src_slot));
  auto* peer = rt_->server(src_node);
  SendToNode(src_node, kSmallMsgBytes,
             [peer, msg] { peer->HandleMetaFetch(msg); });
  rt_->simulator().After(kMetaFetchRetryNs,
                         [this, fetch_id] { SendMetaFetch(fetch_id); });
}

void RingServer::HandleMetaFetchReply(uint64_t fetch_id,
                                      std::shared_ptr<MetadataTable> table,
                                      uint64_t fence) {
  Promotion::Fetch* fetch = FindFetch(fetch_id);
  if (fetch == nullptr || fetch->answered) {
    return;  // an ended promotion's, or a duplicate
  }
  fetch->answered = true;
  const auto& p = rt_->simulator().params();
  OnCpu(table->entry_count() * p.recovery_entry_ns,
        [this, fetch_id, table, fence] {
    const Promotion::Fetch* fetch = FindFetch(fetch_id);
    if (fetch == nullptr) {
      return;
    }
    const uint32_t shard = fetch->shard;
    const uint32_t geom = fetch->geom_s;
    MemgestState& state = StateOf(*fetch->info);
    ShardStore& store = StoreOf(state, shard, geom);
    // Bulk re-population of the whole shard table on the promoted node.
    // Tables from multiple sources are unioned: quorum commit means a
    // write may survive on any single holder, so every survivor's view
    // contributes the entries the others missed.
    NoteAccess(RegionKind::kMetadata, AccessKind::kWrite,
               ScopeOf(fetch->info->id, shard), 0, UINT64_MAX,
               "meta_fetch/install");
    uint64_t high_water = 0;
    uint64_t installed = 0;
    table->ForEach([&](const Key& key, const MetaEntry& src) {
      if (src.geom_s != geom) {
        return;  // skewed source mixed in a foreign shape: not ours
      }
      if (store.meta.Find(key, src.version) != nullptr) {
        return;  // another source already supplied this version
      }
      if (store.early_gc.Contains(key, src.version)) {
        // Collected after the source's snapshot was taken. The record
        // stays: another source may still offer the same version.
        return;
      }
      MetaEntry entry = src;  // a copy carries no in-flight write state
      // Surviving entries are durable: treat them as committed. Their
      // bytes are not local yet and must be copied from a node that
      // actually holds this entry. A parity copy never holds bytes, so
      // data recovery has nothing to do for it.
      entry.committed = true;
      entry.data_present = fetch->as_parity || entry.tombstone ||
                           entry.len == 0;
      entry.geom_s = geom;
      entry.moved_done = false;  // volatile: re-verified by the driver
      entry.recovery_src = fetch->src_slot;
      high_water = std::max(high_water, entry.addr + entry.region_len);
      store.meta.Insert(key, std::move(entry));
      ++installed;
    });
    if (!fetch->as_parity) {
      // The allocator must never re-issue addresses of recovered regions:
      // new puts racing with background data recovery would overwrite the
      // surviving replica/parity copies they are recovered from.
      store.next_addr = std::max(store.next_addr, high_water);
      store.heap.Grow(store.next_addr);
      // The write sequence stays monotonic and clears every survivor's
      // replay fence, so no new backup write reads as a replay.
      store.write_seq =
          std::max(store.write_seq + table->entry_count(), fence);
    }
    state.log_len += installed;
    promotion_->fetches.erase(fetch_id);
    if (promotion_->fetches.empty()) {
      FinishPromotion();
    }
  });
}

void RingServer::HandleMetaFetch(MetaFetch msg) {
  OnCpu(rt_->simulator().params().server_base_ns, [this, msg] {
    const uint32_t geom = msg.geom_s;
    auto it = memgests_.find(msg.memgest);
    auto table = std::make_shared<MetadataTable>();
    uint64_t log_bytes = 0;
    uint64_t fence = 0;
    if (it != memgests_.end()) {
      if (const ShardStore* store =
              it->second.stores.Find(GeomKey(geom, msg.shard));
          store != nullptr) {
        // Whole-table snapshot read on the surviving source node.
        NoteAccess(RegionKind::kMetadata, AccessKind::kRead,
                   ScopeOf(msg.memgest, msg.shard), 0, UINT64_MAX,
                   "meta_fetch/snapshot");
        *table = store->meta;
        fence = std::max(store->write_seq, store->replica_seqs.high());
      }
      log_bytes = it->second.log_len * kLogRecordBytes;
    }
    // Serialization cost on the source side.
    const uint64_t wire = table->ApproxBytes() + log_bytes + kSmallMsgBytes;
    OnCpu(table->entry_count() *
              rt_->simulator().params().recovery_entry_ns / 2,
          [this, msg, table, wire, fence] {
      auto* requester = rt_->server(msg.requester);
      rt_->fabric().Send(id_, msg.requester, wire,
                         [requester, fetch_id = msg.fetch_id, table, fence] {
                           requester->HandleMetaFetchReply(fetch_id, table,
                                                           fence);
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
      const auto placement = PlacementFor(GeomOfKey(store_key));
      const bool mine =
          placement.has_value() &&
          placement->CoordinatorOfShard(IndexOfKey(store_key)) == id_;
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

void RingServer::EnsureDataPresent(ServerOp& op, const Key& key) {
  const auto placement = PlacementFor(op.geom);
  if (!placement.has_value()) {
    op.recovered = FailedPreconditionError("shape no longer live");
    BytesReady(op);
    return;
  }
  MetaEntry* entry = StoreOf(StateOf(*op.info), op.shard, op.geom)
                         .meta.Find(key, op.version);
  if (entry == nullptr || entry->data_present) {
    op.recovered = entry == nullptr ? NotFoundError("entry gone") : OkStatus();
    BytesReady(op);
    return;
  }
  op.addr = entry->addr;
  op.len = entry->len;
  op.since = rt_->simulator().now();
  // A one-sided read completes, and a RecoverBlock reply is delivered,
  // under the op that issued the request.
  const uint64_t id = ops_->Await(op, ServerOp::Step::kBytes);
  const MemgestInfo& info = *op.info;
  if (info.desc.kind == SchemeKind::kReplicated) {
    // Copy over one-sided reads (§5.5) — first choice is the slot that
    // supplied this entry's metadata: with quorum commit other survivors
    // may never have applied the write, and their heap bytes at this
    // address would be stale. Then the coordinator, then the replicas by
    // ordinal. Reads from `slot` and returns true when it is another live
    // node.
    const int32_t my_slot = placement->SlotOfNode(id_);
    const auto read_from = [&](uint32_t slot) {
      const net::NodeId node = placement->NodeOfSlot(slot);
      if (static_cast<int32_t>(slot) == my_slot || !PeerAlive(node)) {
        return false;
      }
      auto* peer = rt_->server(node);
      auto bytes = std::make_shared<Buffer>();
      rt_->fabric().Read(
          id_, node, op.len,
          [peer, bytes, gid = info.id, shard = op.shard, geom = op.geom,
           addr = op.addr, len = op.len] {
            *bytes = peer->ReadRawForRecovery(gid, shard, addr, len, geom);
          },
          [this, claim = Claim(id), bytes] {
            HandleBlockReply(*claim, bytes);
          });
      return true;
    };
    if ((entry->recovery_src >= 0 &&
         read_from(static_cast<uint32_t>(entry->recovery_src))) ||
        read_from(placement->SlotOfShard(op.shard))) {
      return;
    }
    for (uint32_t ordinal = 0; ordinal < info.desc.backups(); ++ordinal) {
      if (read_from(placement->BackupSlot(op.shard, ordinal, false))) {
        return;
      }
    }
    HandleBlockReply(id, nullptr);
    return;
  }

  // Erasure coded: ask a usable parity node to decode (§5.5). "The data node
  // sends a recovery request to the parity node responsible for the block."
  const uint32_t group = op.shard / op.geom;
  for (uint32_t ordinal = 0; ordinal < info.desc.backups(); ++ordinal) {
    const net::NodeId node =
        placement->NodeOfSlot(placement->BackupSlot(op.shard, ordinal, true));
    if (!PeerAlive(node)) {
      continue;
    }
    auto* peer = rt_->server(node);
    if (!peer->ParityUsable(info.id, group, op.geom)) {
      continue;
    }
    RecoverBlock msg{info.id, op.shard, op.addr, op.len,
                     id_,     op.geom,  Claim(id)};
    rt_->fabric().Send(id_, node, kSmallMsgBytes,
                       [peer, msg = std::move(msg)]() mutable {
                         peer->HandleRecoverBlock(std::move(msg));
                       });
    return;
  }
  HandleBlockReply(id, nullptr);
}

void RingServer::HandleBlockReply(uint64_t op_id,
                                  std::shared_ptr<Buffer> bytes) {
  ServerOp* op = ops_->Find(op_id);
  if (op == nullptr) {
    return;  // the op ended meanwhile (a restart), or a duplicated reply
  }
  hub().tracer().Record("block_recovery", obs::Category::kRecovery, id_,
                        op->trace_op, op->since, rt_->simulator().now());
  if (!IsAlive()) {
    End(*op);
    return;
  }
  if (!bytes) {
    op->recovered = DataLossError("no live source for block recovery");
    BytesReady(*op);
    return;
  }
  const auto* run = std::get_if<StoreRecovery>(&op->req);
  const Key& key = run != nullptr ? run->todo[run->next].first
                                  : ReadKey(*op).str();
  ShardStore& sh = StoreOf(StateOf(*op->info), op->shard, op->geom);
  MetaEntry* e = sh.meta.Find(key, op->version);
  if (e == nullptr) {
    op->recovered = NotFoundError("entry gone during recovery");
    BytesReady(*op);
    return;
  }
  NoteAccess(RegionKind::kHeap, AccessKind::kWrite,
             ScopeOf(op->info->id, op->shard), e->addr,
             e->addr + bytes->size(), "recovery/block_install");
  sh.heap.Write(e->addr, *bytes);
  sh.meta.MarkBytesPresent(*e);
  ++counters_.blocks_recovered;
  hub().metrics().Inc("recovery.blocks", 1, id_, op->info->id,
                      obs::OpKind::kRecovery);
  hub().recorder().Record(obs::RecKind::kRecovery, "block_recovery", id_,
                          op->trace_op, op->info->id, op->version);
  op->recovered = OkStatus();
  BytesReady(*op);
}

void RingServer::HandleRecoverBlock(RecoverBlock msg) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, msg = std::move(msg)]() mutable {
    // Answers the requester's op with the block's bytes, null on failure.
    const auto reply = [this, requester = msg.requester,
                        claim = msg.op](std::shared_ptr<Buffer> out) {
      auto* peer = rt_->server(requester);
      rt_->fabric().Send(
          id_, requester, kSmallMsgBytes + (out ? out->size() : 0),
          [peer, claim, out] { peer->HandleBlockReply(*claim, out); });
    };
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    const uint32_t geom = msg.geom_s;
    const uint32_t group = msg.shard / geom;
    const auto placement = PlacementFor(geom);
    const srs::SrsCode* code =
        info == nullptr ? nullptr : rt_->registry().CodeFor(*info, geom);
    const srs::SrsAddressMap* map =
        info == nullptr ? nullptr : rt_->registry().MapFor(*info, geom);
    if (info == nullptr || !placement.has_value() || code == nullptr ||
        map == nullptr || !ParityUsable(msg.memgest, group, geom)) {
      reply(nullptr);
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
      auto finished = std::make_shared<bool>(false);

      const uint32_t k = code->k();
      auto finish_segment = [this, code, seg, out_off, result, remaining,
                             failed, collected, finished, reply, k]() {
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
        const sim::SimTime decoded = OnCpu(
            decode_cost,
            [code, seg, out_off, result, remaining, failed, collected,
             reply] {
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
            reply(*failed ? nullptr : result);
          }
        });
        TraceCodingTail("decode", hub().current_op(), decoded, decode_cost);
      };

      // Gather k chunks: local parity bytes directly, everything else over
      // one-sided reads of live data nodes and usable remote parity nodes.
      const uint32_t piece = static_cast<uint32_t>(seg.length);
      uint32_t launched = 0;
      for (const auto& src : sources) {
        if (launched >= k) {
          break;
        }
        if (src.is_parity && src.node == parity.parity_index) {
          collected->emplace_back(
              src.h_row,
              ReadRawParity(info->id, group, src.offset, piece, geom));
          ++launched;
          continue;
        }
        const uint32_t src_shard = group * geom + src.node;
        if (!src.is_parity && src_shard == msg.shard) {
          continue;  // the block being recovered
        }
        const net::NodeId node =
            src.is_parity ? placement->NodeOfSlot(
                                placement->RedundantSlot(group, src.node))
                          : placement->CoordinatorOfShard(src_shard);
        if (!PeerAlive(node)) {
          continue;
        }
        // A data node still recovering its bytes is no source: its heap
        // holds zeros where the bytes will land.
        auto* peer = rt_->server(node);
        if (src.is_parity ? !peer->ParityUsable(info->id, group, geom)
                          : !peer->DataUsable(info->id, src_shard, geom)) {
          continue;
        }
        auto buf = std::make_shared<Buffer>();
        ++launched;
        rt_->fabric().Read(
            id_, node, piece,
            [peer, buf, gid = info->id, src, src_shard, group, geom, piece] {
              *buf = src.is_parity
                         ? peer->ReadRawParity(gid, group, src.offset, piece,
                                               geom)
                         : peer->ReadRawForRecovery(gid, src_shard,
                                                    src.offset, piece, geom);
            },
            [collected, h_row = src.h_row, buf, finish_segment] {
              collected->emplace_back(h_row, std::move(*buf));
              finish_segment();
            });
      }
      if (launched < k) {
        // Not enough live sources: the segment is unrecoverable.
        *failed = true;
        if (--*remaining == 0) {
          reply(nullptr);
        }
        continue;
      }
      finish_segment();  // covers the all-local case
    }
  });
}

void RingServer::RecoverAllData() {
  // One step per store with missing bytes (all stores before any parity
  // strip) and per parity strip to rebuild, plus one for this walk, so a
  // step that ends at once cannot end the recovery early.
  const uint64_t id = promotion_->id;
  promotion_->recoveries_left = 1;
  // Without background recovery, object bytes are recovered on demand only.
  for (auto& [gid, state] : memgests_) {
    for (auto& [store_key, store] : state.stores) {
      std::vector<std::pair<Key, Version>> todo;
      if (rt_->options().background_data_recovery) {
        store->meta.ForEach([&](const Key& key, const MetaEntry& entry) {
          if (!entry.data_present) {
            todo.emplace_back(key, entry.version);
          }
        });
      }
      if (!todo.empty()) {
        ++promotion_->recoveries_left;
        ServerOp& op = ops_->Emplace(hub().current_op(),
                                    StoreRecovery{id, std::move(todo)});
        op.info = state.info;
        op.shard = IndexOfKey(store_key);
        op.geom = GeomOfKey(store_key);
        Serve(op, std::get<StoreRecovery>(op.req));
      }
    }
  }
  for (auto& [gid, state] : memgests_) {
    for (auto& [pkey, parity] : state.parity) {
      if (!parity.rebuilt) {
        ++promotion_->recoveries_left;
        RebuildParity(id, *state.info, pkey);
      }
    }
  }
  RecoveryDone(id);
}

void RingServer::RecoveryDone(uint64_t id) {
  if (!PromotionLive(id) || --promotion_->recoveries_left > 0) {
    return;
  }
  promotion_.reset();
  NotifyRedundancyRecovered();
}

void RingServer::Serve(ServerOp& op, StoreRecovery& run) {
  const uint64_t promotion = run.promotion;
  if (!IsAlive() || !PromotionLive(promotion)) {
    End(op);  // the promotion ended
    return;
  }
  if (run.next >= run.todo.size()) {
    End(op);
    RecoveryDone(promotion);
    return;
  }
  op.version = run.todo[run.next].second;
  EnsureDataPresent(op, run.todo[run.next].first);
}

void RingServer::RebuildParity(uint64_t id, const MemgestInfo& info,
                               uint32_t pkey) {
  assert(StateOf(info).parity.count(pkey) > 0);
  const uint32_t geom = GeomOfKey(pkey);
  const uint32_t group = IndexOfKey(pkey);
  const auto placement = PlacementFor(geom);
  if (!placement.has_value()) {
    RecoveryDone(id);  // shape retired mid-recovery; the store will be purged
    return;
  }
  const sim::SimTime start = rt_->simulator().now();
  // One snapshot per data shard of the group, each taken by a one-sided
  // read; the last one taken assembles the strip.
  auto snaps = std::make_shared<std::vector<ShardSnapshot>>(geom);
  const MemgestInfo* info_ptr = &info;
  for (uint32_t sigma = 0; sigma < geom; ++sigma) {
    const uint32_t shard = group * geom + sigma;
    const net::NodeId node = placement->CoordinatorOfShard(shard);
    if (!PeerAlive(node)) {
      (*snaps)[sigma].bytes = std::make_shared<Buffer>();
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
        [this, id, info_ptr, pkey, snaps, snap, sigma, start] {
          (*snaps)[sigma] = *snap;
          AssembleParity(id, *info_ptr, pkey, snaps, start);
        });
  }
  AssembleParity(id, info, pkey, snaps, start);  // every source may be dead
}

void RingServer::AssembleParity(
    uint64_t id, const MemgestInfo& info, uint32_t pkey,
    std::shared_ptr<std::vector<ShardSnapshot>> snaps, sim::SimTime start) {
  if (!PromotionLive(id) ||
      std::any_of(snaps->begin(), snaps->end(),
                  [](const ShardSnapshot& s) { return s.bytes == nullptr; })) {
    return;
  }
  uint64_t total_bytes = 0;
  for (const auto& snap : *snaps) {
    total_bytes += snap.extent;
  }
  const auto& p = rt_->simulator().params();
  const uint64_t gf_cost = static_cast<uint64_t>(p.gf_byte_ns * total_bytes);
  const MemgestInfo* info_ptr = &info;
  const sim::SimTime rebuilt = OnCpu(
      p.server_base_ns + gf_cost, [this, id, info_ptr, pkey, snaps, start] {
    if (!PromotionLive(id)) {
      return;
    }
    const uint32_t geom = GeomOfKey(pkey);
    const uint32_t group = IndexOfKey(pkey);
    const srs::SrsCode* code = rt_->registry().CodeFor(*info_ptr, geom);
    const srs::SrsAddressMap* map = rt_->registry().MapFor(*info_ptr, geom);
    const auto placement = PlacementFor(geom);
    if (code == nullptr || map == nullptr || !placement.has_value()) {
      RecoveryDone(id);  // shape retired mid-rebuild
      return;
    }
    MemgestState& st = StateOf(*info_ptr);
    ParityStore& par = st.parity.at(pkey);
    // The rebuild rewrites the entire strip in place.
    NoteAccess(RegionKind::kParityStrip, AccessKind::kWrite,
               ScopeOf(info_ptr->id, GeomKey(geom, group)), 0, UINT64_MAX,
               "parity_rebuild/strip");
    par.mem.Zero();
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
    par.mem.Grow(max_extent);
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
      while (j < contribs.size() &&
             contribs[j].parity_offset == contribs[i].parity_offset &&
             contribs[j].length == contribs[i].length) {
        coeffs.push_back(contribs[j].coeff);
        ++j;
      }
      // A cell may straddle a page of the strip: each page span takes the
      // sources from the same distance into the cell.
      par.mem.ForEachSpan(
          contribs[i].parity_offset, contribs[i].length,
          [&](MutableByteSpan strip, uint64_t at) {
            srcs.clear();
            for (size_t c = i; c < j; ++c) {
              srcs.push_back(contribs[c].src + at);
            }
            gf::MulAddRegionMulti(
                coeffs, std::span<const uint8_t* const>(srcs), strip);
          });
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
      InsertBackupMeta(StoreOf(st, upd.shard, geom), upd);
      SendAck(placement->CoordinatorOfShard(upd.shard),
              Ack{upd.memgest, upd.shard, upd.key, upd.version,
                  upd.ordinal, geom});
    }
    hub().tracer().Record("parity_rebuild", obs::Category::kRecovery, id_,
                          0, start, rt_->simulator().now());
    hub().metrics().Inc("recovery.parity_rebuilds", 1, id_, info_ptr->id,
                        obs::OpKind::kRecovery);
    hub().recorder().Record(obs::RecKind::kRecovery, "parity_rebuild", id_,
                            0, info_ptr->id);
    RecoveryDone(id);
  });
  TraceCodingTail("parity_encode", 0, rebuilt, gf_cost);
}

void RingServer::NotifyRedundancyRecovered() {
  // Announce every backup role under every live shape: the current one
  // first, then (while rebalancing) the previous one.
  std::vector<uint32_t> shapes{config_.s};
  if (config_.rebalancing()) {
    shapes.push_back(config_.prev_s);
  }
  for (auto& [gid, state] : memgests_) {
    const MemgestInfo* info = state.info;
    if (info == nullptr) {
      continue;
    }
    for (const uint32_t geom : shapes) {
      const auto placement = PlacementFor(geom);
      if (!placement.has_value()) {
        continue;
      }
      const int32_t my_slot = placement->SlotOfNode(id_);
      for (uint32_t shard = 0; shard < placement->num_shards(); ++shard) {
        const int32_t ordinal = placement->BackupOrdinal(
            shard, my_slot, info->erasure_coded(), info->desc.backups());
        if (ordinal < 0) {
          continue;
        }
        RedundancyRecovered msg{gid, shard, static_cast<uint32_t>(ordinal),
                                geom};
        const net::NodeId coord = placement->CoordinatorOfShard(shard);
        auto* peer = rt_->server(coord);
        rt_->fabric().Send(id_, coord, kSmallMsgBytes, [peer, msg] {
          peer->HandleRedundancyRecovered(msg);
        });
      }
    }
  }
}

void RingServer::HandleRedundancyRecovered(RedundancyRecovered msg) {
  OnCpu(rt_->simulator().params().server_base_ns, [this, msg] {
    const uint32_t geom = msg.geom_s;
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
