// Elastic-rebalance protocol pieces of RingServer (§13): the per-node scan
// that reports keys still living at the previous shape, the per-key
// linearizable handoff (moved-marker + install), and the purge that retires
// the previous shape once the transition commits.
#include <algorithm>
#include <set>
#include <utility>

#include "src/common/hash.h"
#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {
namespace {
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kAckBytes = 48;

uint64_t ReqBytes(size_t key_len, size_t payload) {
  return kHeaderBytes + key_len + payload;
}
}  // namespace

void RingServer::HandleRebalanceScan(RebalanceScan msg) {
  OnCpu(rt_->simulator().params().server_base_ns,
        [this, msg = std::move(msg)]() mutable {
    // Keys needing migration are exactly the ones whose highest version
    // still lives in a previous-shape store of a shard this node served as
    // old-placement coordinator. std::set gives a sorted, deduplicated
    // report (a key can appear in several memgests).
    std::set<Key> pending;
    uint64_t scanned = 0;
    if (serving_ && config_.rebalancing()) {
      const consensus::Placement prev = config_.Previous();
      for (auto& [gid, state] : memgests_) {
        const MemgestInfo* info = state.info;
        if (info == nullptr || info->desc.unreliable()) {
          continue;
        }
        for (auto& [store_key, store] : state.stores) {
          if (GeomOfKey(store_key) != config_.prev_s ||
              prev.CoordinatorOfShard(IndexOfKey(store_key)) != id_) {
            continue;
          }
          store->meta.ForEach([&](const Key& key, const MetaEntry&) {
            ++scanned;
            if (msg.max_keys != 0 && pending.size() >= msg.max_keys) {
              return;
            }
            if (pending.count(key) != 0) {
              return;
            }
            const HashedKey hkey(key);
            const VolatileIndex::Ref* ref = volatile_index_.Highest(hkey);
            if (ref == nullptr) {
              return;  // replica mirror only / already erased
            }
            const MemgestInfo* owner = rt_->registry().Get(ref->memgest);
            if (owner == nullptr) {
              return;
            }
            const EntryLoc found = EntryOf(*owner, hkey, *ref);
            const MetaEntry* e = found.entry;
            if (e == nullptr || found.geom == config_.s) {
              return;  // already living at the new shape
            }
            if (e->moved && e->moved_done) {
              return;  // handed over and acknowledged
            }
            pending.insert(key);
          });
        }
      }
    }
    const auto& p = rt_->simulator().params();
    OnCpu(scanned * p.recovery_entry_ns / 2,
          [this, requester = msg.requester, reply = std::move(msg.reply),
           keys = std::vector<Key>(pending.begin(), pending.end())] {
      uint64_t wire = kHeaderBytes;
      for (const Key& k : keys) {
        wire += k.size() + 8;
      }
      rt_->fabric().Send(id_, requester, wire,
                         [reply = std::move(reply), keys]() mutable {
                           reply(std::move(keys));
                         });
    });
  });
}

void RingServer::HandleMigrateKey(MigrateKey msg) {
  // A node that is not serving drops it: the driver's timeout and retry
  // cover the silence.
  Admit(std::move(msg), rt_->simulator().params().server_base_ns);
}

void RingServer::Serve(ServerOp& op, MigrateKey& msg) {
  if (!config_.rebalancing()) {
    Reply(op, OkStatus());  // transition completed: nothing to move
    return;
  }
  const HashedKey key(msg.key);
  const VolatileIndex::Ref* ref = volatile_index_.Highest(key);
  op.info = ref == nullptr ? nullptr : rt_->registry().Get(ref->memgest);
  const EntryLoc loc =
      op.info == nullptr ? EntryLoc{} : EntryOf(*op.info, key, *ref);
  MetaEntry* entry = loc.entry;
  if (entry == nullptr || loc.geom == config_.s ||
      (entry->moved && entry->moved_done)) {
    // Erased or never here (the scan will not re-report it), its highest
    // version already lives at the new shape, or it was handed over.
    Reply(op, OkStatus());
    return;
  }
  if (!entry->committed) {
    // A client write is in flight, and the marker must fence *above* it;
    // or the marker itself still collects acks. Run again once it commits
    // (more writes may have landed meanwhile).
    ParkUntilCommit(*entry, op);
    return;
  }
  if (entry->moved) {
    // Marker durable but the install was never acknowledged (crash or
    // lost ack): re-send it. The install is idempotent at the receiver.
    op.version = entry->version;
    SendInstall(op);
    return;
  }
  // Write the durable moved-marker one version above the highest committed
  // write. From this moment RouteKey refuses new old-shape ops on the key;
  // once the marker commits on its redundancy set, ship the contents.
  op.version = volatile_index_.NextVersion(key);
  StartWrite(op, *op.info, loc.shard, key, op.version, nullptr, false,
             loc.geom, /*moved=*/true);
}

void RingServer::Reply(ServerOp& op, Status status) {
  if (auto* migrate = std::get_if<MigrateKey>(&op.req)) {
    rt_->fabric().Send(
        id_, migrate->requester, kAckBytes,
        [reply = std::move(migrate->reply), status] { reply(status); });
  } else {
    const InstallKey& install = std::get<InstallKey>(op.req);
    auto* peer = rt_->server(install.from);
    SendToNode(install.from, kAckBytes, [peer, claim = install.op, status] {
      peer->HandleInstallAck(*claim, status);
    });
  }
  End(op);
}

void RingServer::SendInstall(ServerOp& op) {
  // Payload: the highest committed non-marker version below the floor. All
  // versions of the key below the marker survive (CommitEntry suppresses GC
  // under a marker), so this lookup cannot race a reclaim.
  const MemgestInfo& info = *op.info;
  const HashedKey key(std::get<MigrateKey>(op.req).key);
  const Version floor = op.version;
  std::shared_ptr<Buffer> value;
  bool tombstone = false;
  Version payload_version = 0;
  for (const auto& r : volatile_index_.Refs(key)) {
    if (r.version >= floor || r.memgest != info.id) {
      continue;
    }
    const EntryLoc loc = EntryOf(info, key, r);
    const MetaEntry* e = loc.entry;
    if (e == nullptr || !e->committed || e->moved) {
      continue;
    }
    payload_version = r.version;
    if (e->tombstone) {
      tombstone = true;
    } else {
      value = std::make_shared<Buffer>();
      loc.store->heap.AppendTo(e->addr, e->len, *value);
    }
    break;
  }
  if (payload_version == 0) {
    // No durable content below the marker (everything was deleted): install
    // a tombstone so the new owner still holds the version floor.
    tombstone = true;
  }
  const consensus::Placement cur = config_.Current();
  const net::NodeId new_owner =
      cur.CoordinatorOfShard(key.Shard(cur.num_shards()));
  op.len = value ? static_cast<uint32_t>(value->size()) : 0;
  op.local = new_owner == id_;

  InstallKey msg;
  msg.memgest = info.id;
  msg.key = key.str();
  msg.floor = floor;
  msg.value = value;
  msg.tombstone = tombstone;
  msg.from = id_;
  msg.op = Claim(ops_->Await(op, ServerOp::Step::kAck));
  hub().recorder().Record(obs::RecKind::kRecovery, "rebalance_install", id_,
                          hub().current_op(), info.id, floor);
  if (op.local) {
    HandleInstallKey(std::move(msg));
    return;
  }
  auto* peer = rt_->server(new_owner);
  SendToNode(new_owner, ReqBytes(key.str().size(), op.len),
             [peer, msg = std::move(msg)]() mutable {
               peer->HandleInstallKey(std::move(msg));
             });
}

void RingServer::HandleInstallAck(uint64_t op_id, Status status) {
  ServerOp* op = ops_->Find(op_id);
  if (op == nullptr) {
    return;  // the migration ended meanwhile (a restart), or a duplicate
  }
  if (status.ok()) {
    const HashedKey key(std::get<MigrateKey>(op->req).key);
    if (MetaEntry* marker = FindEntry(*op->info, key, op->version).entry;
        marker != nullptr) {
      marker->moved_done = true;
    }
    if (op->local) {
      // Owner unchanged by the resize: the handover was a re-encode under
      // the new shape, no network hop — keep the traffic counters honest.
      ++counters_.keys_reencoded;
      hub().metrics().Inc("rebalance.keys_reencoded", 1, id_, op->info->id);
    } else {
      ++counters_.keys_migrated;
      counters_.bytes_moved += op->len;
      hub().metrics().Inc("rebalance.keys_moved", 1, id_, op->info->id);
      hub().metrics().Inc("rebalance.bytes", op->len, id_, op->info->id);
    }
  }
  Reply(*op, std::move(status));
}

void RingServer::HandleInstallKey(InstallKey msg) {
  // A node that is not serving drops it: the old owner's driver retry
  // re-sends the install.
  Admit(std::move(msg), rt_->simulator().params().server_base_ns);
}

void RingServer::Serve(ServerOp& op, InstallKey& msg) {
  const HashedKey key(msg.key);
  const consensus::Placement cur = config_.Current();
  const uint32_t cur_shard = key.Shard(cur.num_shards());
  if (cur.CoordinatorOfShard(cur_shard) != id_) {
    End(op);  // stale routing (a failover moved the shard); retry covers
    return;
  }
  const MemgestInfo* info = rt_->registry().Get(msg.memgest);
  if (info == nullptr) {
    Reply(op, NotFoundError("memgest gone"));
    return;
  }
  // Idempotency: once a version >= floor lives here *at the new shape*, a
  // previous install (or a client write accepted after it) already covers
  // this request. The geometry check matters for the local re-encode case:
  // the old owner's own moved-marker sits at version == floor in the old
  // geometry and must not satisfy the install.
  for (const auto& r : volatile_index_.Refs(key)) {
    if (r.version < msg.floor || r.memgest != msg.memgest) {
      continue;
    }
    const EntryLoc loc = EntryOf(*info, key, r);
    if (loc.entry != nullptr && loc.geom == config_.s && !loc.entry->moved) {
      Reply(op, OkStatus());
      return;
    }
  }
  ++counters_.installs;
  hub().metrics().Inc("server.installs", 1, id_, info->id);
  op.version = std::max(volatile_index_.NextVersion(key), msg.floor);
  StartWrite(op, *info, cur_shard, key, op.version, msg.value, msg.tombstone,
             config_.s);
}

void RingServer::PurgeStaleGeometries() {
  uint64_t dropped_entries = 0;
  for (auto& [gid, state] : memgests_) {
    const auto stale = [this](uint32_t store_key) {
      return GeomOfKey(store_key) != config_.s;
    };
    for (auto& [store_key, store] : state.stores) {
      if (!stale(store_key)) {
        continue;
      }
      // Old-shape store: unlink its volatile references before the whole
      // heap + table is dropped below. Careful with version-number
      // collisions: an installed key reuses its moved-marker's version at the
      // new shape, so the ref may now belong to the live current-shape entry
      // and must survive the purge — with its handles re-pointed there if
      // they named the dropped entry. The entry must be *indexed*, though: a
      // plain replica mirror of the new owner's install also resolves (key,
      // version) here, but owns no ref — keeping the ref for a mirror leaves
      // it dangling, and a later get on this node trips over it instead of
      // forwarding.
      store->meta.ForEach([&](const Key& key, const MetaEntry& entry) {
        ++dropped_entries;
        EndWaiters(entry);  // the ops waiting on its writes end with them
        const HashedKey hkey(key);
        const uint32_t cur_key =
            GeomKey(config_.s, hkey.Shard(config_.Current().num_shards()));
        if (ShardStore* cur = state.stores.Find(cur_key); cur != nullptr) {
          MetaEntry* live = cur->meta.Find(key, entry.version);
          if (live != nullptr && live->indexed) {
            VolatileIndex::Ref* ref = volatile_index_.Find(hkey, entry.version);
            if (ref != nullptr && ref->store == store.get()) {
              *ref = VolatileIndex::Ref{entry.version, live, cur, gid, cur_key};
            }
            return;
          }
        }
        volatile_index_.Remove(hkey, entry.version);
      });
    }
    state.stores.EraseIf(stale);
    for (auto it = state.parity.begin(); it != state.parity.end();) {
      if (GeomOfKey(it->first) == config_.s) {
        ++it;
      } else {
        it = state.parity.erase(it);
      }
    }
  }
  hub().metrics().Inc("rebalance.purged_entries", dropped_entries, id_);
  hub().recorder().Record(obs::RecKind::kRecovery, "geometry_purge", id_,
                          hub().current_op(), dropped_entries);
}

}  // namespace ring
