// Model-checker introspection (src/mc): a canonical digest of a server's
// committed state, and the wedged-write probe. Kept out of server.cc so the
// hot protocol paths and the checker-only code evolve independently.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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
      store->meta.ForEach([&](const Key& key, const MetaEntry& e) {
        if (!e.committed || e.moved) {
          return;  // only durable, visible state enters the fingerprint
        }
        uint64_t vh = kFnvOffset;
        if (e.data_present && !e.tombstone) {
          const ByteSpan bytes = store->Read(e.addr, e.len);
          HashBytes(vh, bytes.data(), bytes.size());
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
    for (const auto& [pkey, parity] : state.parity) {
      records += parity.early_gc.size();
    }
  }
  return records;
}

}  // namespace ring
