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
  if (!IsAlive()) {
    return;
  }
  cpu().Execute(rt_->simulator().params().server_base_ns,
                [this, msg = std::move(msg)]() mutable {
    if (!IsAlive()) {
      return;
    }
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
          const uint32_t geom = store_key >> 16;
          const uint32_t shard = store_key & 0xffffu;
          if (geom != config_.prev_s ||
              prev.CoordinatorOfShard(shard) != id_) {
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
    cpu().Execute(scanned * p.recovery_entry_ns / 2,
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
  if (!IsAlive()) {
    return;
  }
  obs::ScopedOp scope(hub(), msg.op_id);
  cpu().Execute(rt_->simulator().params().server_base_ns,
                [this, msg = std::move(msg)]() mutable {
    obs::ScopedOp op_scope(hub(), msg.op_id);
    if (!IsAlive() || !serving_) {
      return;  // driver timeout + retry covers the silence
    }
    auto done = [this, requester = msg.requester,
                 reply = msg.reply](Status s) {
      rt_->fabric().Send(id_, requester, kAckBytes,
                         [reply, s] { reply(s); });
    };
    if (!config_.rebalancing()) {
      done(OkStatus());  // transition already completed: nothing to move
      return;
    }
    const HashedKey key(msg.key);
    const VolatileIndex::Ref* ref = volatile_index_.Highest(key);
    if (ref == nullptr) {
      done(OkStatus());  // erased (or never here): scan will not re-report
      return;
    }
    const MemgestInfo* info = rt_->registry().Get(ref->memgest);
    if (info == nullptr) {
      done(OkStatus());
      return;
    }
    const EntryLoc loc = EntryOf(*info, key, *ref);
    MetaEntry* entry = loc.entry;
    const uint32_t shard = loc.shard;
    const uint32_t geom = loc.geom;
    if (entry == nullptr) {
      done(OkStatus());
      return;
    }
    if (geom == config_.s) {
      done(OkStatus());  // highest already lives at the new shape
      return;
    }
    if (entry->moved) {
      if (entry->moved_done) {
        done(OkStatus());
        return;
      }
      if (entry->committed) {
        // Marker durable but the install was never acknowledged (crash or
        // lost ack): re-send it. The install is idempotent at the receiver.
        SendInstall(*info, key, entry->version, std::move(done));
        return;
      }
      // Marker still collecting acks: retry once it commits.
      entry->Pending().waiters.push_back([this, msg]() mutable {
        HandleMigrateKey(std::move(msg));
      });
      return;
    }
    if (!entry->committed) {
      // A client write is in flight; the marker must fence *above* it, so
      // wait for it to settle and re-run (the re-run recomputes the highest
      // version — more writes may have landed meanwhile).
      entry->Pending().waiters.push_back([this, msg]() mutable {
        HandleMigrateKey(std::move(msg));
      });
      return;
    }
    // Write the durable moved-marker one version above the highest committed
    // write. From this moment RouteKey refuses new old-shape ops on the key;
    // once the marker commits on its redundancy set, ship the contents.
    const Version floor = volatile_index_.NextVersion(key);
    const MemgestInfo* info_ptr = info;
    StartWrite(*info, shard, key, floor, nullptr, false,
               [this, info_ptr, key, floor,
                done = std::move(done)](Status s) mutable {
                 if (!s.ok()) {
                   done(s);
                   return;
                 }
                 SendInstall(*info_ptr, key, floor, std::move(done));
               },
               geom, /*moved=*/true);
  });
}

void RingServer::SendInstall(const MemgestInfo& info, const HashedKey& key,
                             Version floor,
                             std::function<void(Status)> reply) {
  // Payload: the highest committed non-marker version below the floor. All
  // versions of the key below the marker survive (CommitEntry suppresses GC
  // under a marker), so this lookup cannot race a reclaim.
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
      const ByteSpan bytes = loc.store->Read(e->addr, e->len);
      value->assign(bytes.begin(), bytes.end());
    }
    break;
  }
  if (payload_version == 0) {
    // No durable content below the marker (everything was deleted): install
    // a tombstone so the new owner still holds the version floor.
    tombstone = true;
  }
  const uint32_t cur_shard = key.Shard(config_.num_shards());
  const net::NodeId new_owner = config_.CoordinatorOfShard(cur_shard);
  const uint64_t payload = value ? value->size() : 0;

  InstallKey msg;
  msg.memgest = info.id;
  msg.key = key.str();
  msg.floor = floor;
  msg.value = value;
  msg.tombstone = tombstone;
  msg.from = id_;
  msg.op_id = hub().current_op();
  const MemgestInfo* info_ptr = &info;
  const bool local = new_owner == id_;
  msg.ack = [this, info_ptr, key, floor, payload, local,
             reply = std::move(reply)](Status s) mutable {
    // Runs back at the old owner once the new owner replies.
    if (s.ok()) {
      if (MetaEntry* marker = FindEntry(*info_ptr, key, floor).entry;
          marker != nullptr) {
        marker->moved_done = true;
      }
      if (local) {
        // Owner unchanged by the resize: the handover was a re-encode under
        // the new shape, no network hop — keep the traffic counters honest.
        ++counters_.keys_reencoded;
        hub().metrics().Inc("rebalance.keys_reencoded", 1, id_, info_ptr->id);
      } else {
        ++counters_.keys_migrated;
        counters_.bytes_moved += payload;
        hub().metrics().Inc("rebalance.keys_moved", 1, id_, info_ptr->id);
        hub().metrics().Inc("rebalance.bytes", payload, id_, info_ptr->id);
      }
    }
    reply(s);
  };
  hub().recorder().Record(obs::RecKind::kRecovery, "rebalance_install", id_,
                          msg.op_id, info.id, floor);
  if (local) {
    HandleInstallKey(std::move(msg));
    return;
  }
  auto* peer = rt_->server(new_owner);
  SendToNode(new_owner, ReqBytes(key.str().size(), payload),
             [peer, msg = std::move(msg)]() mutable {
               peer->HandleInstallKey(std::move(msg));
             });
}

void RingServer::HandleInstallKey(InstallKey msg) {
  if (!IsAlive()) {
    return;
  }
  obs::ScopedOp scope(hub(), msg.op_id);
  cpu().Execute(rt_->simulator().params().server_base_ns,
                [this, msg = std::move(msg)]() mutable {
    obs::ScopedOp op_scope(hub(), msg.op_id);
    if (!IsAlive() || !serving_) {
      return;  // the old owner's driver retry re-sends the install
    }
    const HashedKey key(msg.key);
    const uint32_t cur_shard = key.Shard(config_.num_shards());
    if (config_.CoordinatorOfShard(cur_shard) != id_) {
      return;  // stale routing (a failover moved the shard); retry covers
    }
    const MemgestInfo* info = rt_->registry().Get(msg.memgest);
    if (info == nullptr) {
      SendToNode(msg.from, kAckBytes,
                 [ack = msg.ack] { ack(NotFoundError("memgest gone")); });
      return;
    }
    // Idempotency: once a version >= floor lives here *at the new shape*, a
    // previous install (or a client write accepted after it) already covers
    // this request. The geometry check matters for the local re-encode case:
    // the old owner's own moved-marker sits at version == floor in the old
    // geometry and must not satisfy the install.
    bool covered = false;
    for (const auto& r : volatile_index_.Refs(key)) {
      if (r.version < msg.floor || r.memgest != msg.memgest) {
        continue;
      }
      const EntryLoc loc = EntryOf(*info, key, r);
      if (loc.entry != nullptr && loc.geom == config_.s && !loc.entry->moved) {
        covered = true;
        break;
      }
    }
    if (covered) {
      SendToNode(msg.from, kAckBytes, [ack = msg.ack] { ack(OkStatus()); });
      return;
    }
    ++counters_.installs;
    hub().metrics().Inc("server.installs", 1, id_, info->id);
    const Version version =
        std::max(volatile_index_.NextVersion(key), msg.floor);
    StartWrite(*info, cur_shard, key, version, msg.value, msg.tombstone,
               [this, from = msg.from, ack = msg.ack](Status s) {
                 SendToNode(from, kAckBytes, [ack, s] { ack(s); });
               });
  });
}

void RingServer::PurgeStaleGeometries() {
  uint64_t dropped_entries = 0;
  for (auto& [gid, state] : memgests_) {
    const auto stale = [this](uint32_t store_key) {
      return (store_key >> 16) != config_.s;
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
        const HashedKey hkey(key);
        const uint32_t cur_key =
            GeomKey(config_.s, hkey.Shard(config_.num_shards()));
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
      if ((it->first >> 16) == config_.s) {
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
