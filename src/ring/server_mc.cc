// Model-checker introspection (src/mc): a canonical digest of a server's
// committed state, the wedged-write probe and the key-directory audit. Kept
// out of server.cc so the hot protocol paths and the checker-only code
// evolve independently.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
}

void HashU64(uint64_t& h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }

// One committed entry, flattened to a sortable canonical form. Heap
// addresses are deliberately absent: allocation order differs between
// equivalent interleavings while the visible value does not.
struct DigestTuple {
  MemgestId gid;
  uint32_t store_key;
  Key key;
  Version version;
  bool tombstone;
  uint64_t value_hash;

  bool operator<(const DigestTuple& o) const {
    if (gid != o.gid) return gid < o.gid;
    if (store_key != o.store_key) return store_key < o.store_key;
    if (key != o.key) return key < o.key;
    return version < o.version;
  }
};

}  // namespace

uint64_t RingServer::McStateDigest() const {
  std::vector<DigestTuple> tuples;
  for (const auto& [gid, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      if (IsParityCopy(state, store_key)) {
        continue;  // no bytes; the data node's store digests the entry
      }
      store->meta.ForEach([&](const Key& key, const MetaEntry& e) {
        if (!e.committed || e.moved) {
          return;  // only durable, visible state enters the fingerprint
        }
        uint64_t vh = kFnvOffset;
        if (e.data_present && !e.tombstone) {
          store->heap.ForEachSpan(e.addr, e.len,
                                  [&vh](ByteSpan bytes, uint64_t) {
                                    HashBytes(vh, bytes.data(), bytes.size());
                                  });
        }
        tuples.push_back(DigestTuple{gid, store_key, key, e.version,
                                     e.tombstone, vh});
      });
    }
  }
  std::sort(tuples.begin(), tuples.end());
  uint64_t h = kFnvOffset;
  HashU64(h, tuples.size());
  for (const DigestTuple& t : tuples) {
    HashU64(h, t.gid);
    HashU64(h, t.store_key);
    HashBytes(h, t.key.data(), t.key.size());
    HashU64(h, t.version);
    HashU64(h, t.tombstone ? 1 : 0);
    HashU64(h, t.value_hash);
  }
  return h;
}

std::vector<Version> RingServer::RetainedCommittedVersions(
    const Key& key) const {
  std::vector<Version> out;
  for (const auto& [gid, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      if (IsParityCopy(state, store_key)) {
        continue;  // a copy holds no version's bytes
      }
      store->meta.ForEach([&](const Key& k, const MetaEntry& e) {
        if (k == key && e.committed && !e.tombstone && !e.moved) {
          out.push_back(e.version);
        }
      });
    }
  }
  std::sort(out.begin(), out.end(), std::greater<Version>());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t RingServer::PendingWrites() const {
  uint64_t pending = 0;
  for (const auto& [gid, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      store->meta.ForEach([&](const Key&, const MetaEntry& e) {
        if (!e.committed && e.acks_pending() != 0) {
          ++pending;
        }
      });
    }
  }
  return pending;
}

uint64_t RingServer::EarlyGcRecords() const {
  uint64_t records = 0;
  for (const auto& [gid, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      records += store->early_gc.size();
    }
  }
  return records;
}

std::string RingServer::CheckKeyDirectory() const {
  const std::string node = "node " + std::to_string(id_) + ": ";
  // Keys are collected sorted, so the first violation reported does not
  // depend on table layout.
  std::set<Key> keys;
  std::string missing;  // first indexed entry without its ref
  const bool serving = serving_ && !config_.failed[id_];
  for (const auto& [gid, state] : memgests_) {
    for (const auto& [store_key, store] : state.stores) {
      const auto placement = PlacementFor(GeomOfKey(store_key));
      const bool mine =
          serving && placement.has_value() &&
          placement->CoordinatorOfShard(IndexOfKey(store_key)) == id_;
      store->meta.ForEach([&](const Key& key, const MetaEntry& e) {
        keys.insert(key);
        if (!mine || !e.indexed || !missing.empty()) {
          return;
        }
        const VolatileIndex::Ref* ref =
            volatile_index_.Find(HashedKey(key), e.version);
        if (ref == nullptr || ref->memgest != gid) {
          missing = node + "indexed entry " + key + " v" +
                    std::to_string(e.version) + " of memgest " +
                    std::to_string(gid) + " owns no ref";
        }
      });
    }
  }
  size_t refs_seen = 0;
  for (const Key& key : keys) {
    const HashedKey hkey(key);
    const std::vector<VolatileIndex::Ref> refs = volatile_index_.Refs(hkey);
    refs_seen += refs.size();
    for (size_t i = 0; i < refs.size(); ++i) {
      const VolatileIndex::Ref& ref = refs[i];
      const std::string at = key + " v" + std::to_string(ref.version);
      if (i > 0 && refs[i - 1].version <= ref.version) {
        return node + "refs of " + key + " not strictly descending at v" +
               std::to_string(ref.version);
      }
      // The handles must name a live entry: the store registered under the
      // ref's store key, and that store's entry at (key, version).
      const auto state = memgests_.find(ref.memgest);
      const ShardStore* store = state == memgests_.end()
                                    ? nullptr
                                    : state->second.stores.Find(ref.store_key);
      if (store == nullptr || store != ref.store ||
          store->meta.Find(key, ref.version) != ref.entry) {
        return node + "ref " + at + " holds a dangling handle";
      }
      const MemgestInfo* info = rt_->registry().Get(ref.memgest);
      if (info == nullptr) {
        continue;  // memgest deleted: no descriptor to resolve against
      }
      if (EntryOf(*info, hkey, ref).entry !=
          FindEntry(*info, hkey, ref.version).entry) {
        return node + "ref " + at + " resolves to another entry than " +
               "FindEntry";
      }
    }
  }
  if (!missing.empty()) {
    return missing;
  }
  if (refs_seen != volatile_index_.ref_count()) {
    return node + std::to_string(volatile_index_.ref_count() - refs_seen) +
           " ref(s) for keys no store holds";
  }
  return "";
}

}  // namespace ring
