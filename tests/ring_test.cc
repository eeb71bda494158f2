#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/gf/gf256.h"
#include "src/ring/cluster.h"
#include "src/ring/page_store.h"
#include "src/ring/seq_window.h"

namespace ring {
namespace {

// A key that hashes to the given shard (deterministic).
Key KeyInShard(uint32_t shard, uint32_t s, int salt = 0) {
  for (int i = 0;; ++i) {
    Key k = "key-" + std::to_string(salt) + "-" + std::to_string(i);
    if (KeyShard(k, s) == shard) {
      return k;
    }
  }
}

TEST(MemgestDescriptorTest, Basics) {
  const auto rep3 = MemgestDescriptor::Replicated(3);
  EXPECT_FALSE(rep3.unreliable());
  EXPECT_DOUBLE_EQ(rep3.StorageOverhead(), 3.0);
  EXPECT_EQ(rep3.ToString(), "Rep(3)");

  const auto rep1 = MemgestDescriptor::Replicated(1);
  EXPECT_TRUE(rep1.unreliable());

  const auto srs32 = MemgestDescriptor::ErasureCoded(3, 2);
  EXPECT_NEAR(srs32.StorageOverhead(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(srs32.ToString(), "SRS(3,2)");
}

// A directory ref carrying only a version and a memgest (the directory
// never dereferences its handles).
VolatileIndex::Ref RefAt(Version version, MemgestId memgest,
                         MetaEntry* entry = nullptr) {
  VolatileIndex::Ref ref;
  ref.version = version;
  ref.memgest = memgest;
  ref.entry = entry;
  return ref;
}

TEST(VolatileIndexTest, VersionOrdering) {
  VolatileIndex idx;
  const HashedKey a("a");
  EXPECT_EQ(idx.NextVersion(a), 1u);
  idx.Add(a, RefAt(1, 0));
  idx.Add(a, RefAt(3, 1));
  idx.Add(a, RefAt(2, 0));
  ASSERT_NE(idx.Highest(a), nullptr);
  EXPECT_EQ(idx.Highest(a)->version, 3u);
  EXPECT_EQ(idx.Highest(a)->memgest, 1u);
  EXPECT_EQ(idx.NextVersion(a), 4u);
  EXPECT_EQ(idx.ref_count(), 3u);
  idx.Remove(a, 3);
  EXPECT_EQ(idx.Highest(a)->version, 2u);
  idx.Remove(a, 1);
  idx.Remove(a, 2);
  EXPECT_EQ(idx.Highest(a), nullptr);
  EXPECT_EQ(idx.key_count(), 0u);
  EXPECT_EQ(idx.ref_count(), 0u);
}

TEST(VolatileIndexTest, HandlesRideWithTheirRef) {
  VolatileIndex idx;
  MetaEntry first;
  MetaEntry second;
  const HashedKey k("k");
  idx.Add(k, RefAt(4, 2, &first));
  ASSERT_NE(idx.Find(k, 4), nullptr);
  EXPECT_EQ(idx.Find(k, 4)->entry, &first);
  EXPECT_EQ(idx.Find(k, 5), nullptr);
  // A re-add at the same version replaces the ref, handles included.
  idx.Add(k, RefAt(4, 2, &second));
  EXPECT_EQ(idx.ref_count(), 1u);
  EXPECT_EQ(idx.Highest(k)->entry, &second);
  // Another key with the very same 64-bit hash is a different key.
  const HashedKey twin = HashedKey::WithHashForTesting("twin", k.hash());
  EXPECT_EQ(idx.Highest(twin), nullptr);
  idx.Add(twin, RefAt(9, 0, &first));
  EXPECT_EQ(idx.Highest(k)->version, 4u);
  EXPECT_EQ(idx.Highest(twin)->version, 9u);
  EXPECT_TRUE(idx.Remove(k, 4));
  EXPECT_FALSE(idx.Remove(k, 4));
  EXPECT_EQ(idx.Highest(twin)->entry, &first);
}

TEST(VolatileIndexTest, StaysWithinTheMapIndexPerKeyBudget) {
  // About 1000 keys per coordinator on get_100node, one ref each. The
  // unordered_map<Key, vector<Ref>> this directory replaced cost about
  // 120 heap bytes per 8-byte key; the directory must not cost more.
  VolatileIndex idx;
  for (uint64_t i = 0; i < 1000; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "%08llu",
                  static_cast<unsigned long long>(i));
    idx.Add(HashedKey(name), RefAt(1, 0));
  }
  EXPECT_EQ(idx.key_count(), 1000u);
  EXPECT_LE(idx.ApproxBytes(), 1000u * 120);
}

// The index as first written — an ordered map from key to its refs,
// descending by version: the reference model the key directory must match
// step for step.
struct MapIndex {
  std::map<Key, std::vector<VolatileIndex::Ref>> refs;
  size_t ref_count = 0;

  const VolatileIndex::Ref* Highest(const Key& key) const {
    auto it = refs.find(key);
    return it == refs.end() ? nullptr : &it->second.front();
  }
  const VolatileIndex::Ref* Find(const Key& key, Version version) const {
    auto it = refs.find(key);
    if (it == refs.end()) {
      return nullptr;
    }
    for (const auto& r : it->second) {
      if (r.version == version) {
        return &r;
      }
    }
    return nullptr;
  }
  void Add(const Key& key, const VolatileIndex::Ref& ref) {
    auto& v = refs[key];
    auto pos = std::lower_bound(v.begin(), v.end(), ref.version,
                                [](const VolatileIndex::Ref& a, Version x) {
                                  return a.version > x;
                                });
    if (pos != v.end() && pos->version == ref.version) {
      *pos = ref;
    } else {
      v.insert(pos, ref);
      ++ref_count;
    }
  }
  bool Remove(const Key& key, Version version) {
    auto it = refs.find(key);
    if (it == refs.end()) {
      return false;
    }
    auto& v = it->second;
    const size_t before = v.size();
    std::erase_if(v, [version](const VolatileIndex::Ref& r) {
      return r.version == version;
    });
    const bool removed = v.size() != before;
    ref_count -= before - v.size();
    if (v.empty()) {
      refs.erase(it);
    }
    return removed;
  }
};

bool SameRef(const VolatileIndex::Ref* a, const VolatileIndex::Ref* b) {
  if (a == nullptr || b == nullptr) {
    return a == b;
  }
  return a->version == b->version && a->memgest == b->memgest &&
         a->entry == b->entry;
}

TEST(VolatileIndexTest, MatchesMapReferenceOnRandomSteps) {
  std::vector<MetaEntry> entries(8);  // handle targets, compared by address
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    // Key universe: plain keys; groups of four keys sharing one full 64-bit
    // hash; and keys whose hashes all share their low 20 bits, as the keys
    // of one coordinator shard share hash % num_shards.
    std::vector<HashedKey> keys;
    const uint32_t universe = 200 + static_cast<uint32_t>(rng.NextBelow(1800));
    for (uint32_t i = 0; i < universe; ++i) {
      const Key name = "dk-" + std::to_string(seed) + "-" + std::to_string(i);
      switch (i % 3) {
        case 0:
          keys.emplace_back(name);
          break;
        case 1:
          keys.push_back(HashedKey::WithHashForTesting(
              name, 0x5EEDC0111DE00000ull + seed * 4096 + i / 12));
          break;
        default:
          keys.push_back(HashedKey::WithHashForTesting(
              name, (HashKey(name) & ~0xFFFFFull) | 0x2A2Aull));
          break;
      }
    }
    VolatileIndex fast;
    MapIndex ref;
    size_t peak_keys = 0;
    for (int step = 0; step < 20000; ++step) {
      const HashedKey& key = keys[rng.NextBelow(keys.size())];
      const Version version = 1 + rng.NextBelow(12);
      // The first half grows the table, the second half drains it.
      const bool growing = step < 10000;
      const uint64_t op = rng.NextBelow(10);
      if (op < (growing ? 4u : 1u)) {
        const auto r = RefAt(version, static_cast<MemgestId>(rng.NextBelow(3)),
                             &entries[rng.NextBelow(entries.size())]);
        fast.Add(key, r);
        ref.Add(key.str(), r);
      } else if (op < 5) {
        // Remove: mostly a version the key holds, sometimes any version.
        Version v = version;
        if (const auto* h = ref.Highest(key.str());
            h != nullptr && rng.NextBernoulli(0.7)) {
          v = h->version - rng.NextBelow(2);
        }
        ASSERT_EQ(fast.Remove(key, v), ref.Remove(key.str(), v))
            << "seed " << seed << " step " << step;
      } else if (op < 7) {
        ASSERT_TRUE(SameRef(fast.Highest(key), ref.Highest(key.str())))
            << "seed " << seed << " step " << step;
      } else if (op < 8) {
        ASSERT_TRUE(SameRef(fast.Find(key, version),
                            ref.Find(key.str(), version)))
            << "seed " << seed << " step " << step;
      } else if (op < 9) {
        const auto* h = ref.Highest(key.str());
        ASSERT_EQ(fast.NextVersion(key), h == nullptr ? 1 : h->version + 1);
      } else {
        const std::vector<VolatileIndex::Ref> got = fast.Refs(key);
        auto it = ref.refs.find(key.str());
        const size_t want = it == ref.refs.end() ? 0 : it->second.size();
        ASSERT_EQ(got.size(), want) << "seed " << seed << " step " << step;
        for (size_t i = 0; i < want; ++i) {
          ASSERT_TRUE(SameRef(&got[i], &it->second[i]));
        }
      }
      ASSERT_EQ(fast.key_count(), ref.refs.size())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(fast.ref_count(), ref.ref_count);
      peak_keys = std::max(peak_keys, fast.key_count());
    }
    EXPECT_GT(peak_keys, 100u) << "table never grew, seed " << seed;
    EXPECT_LT(fast.key_count(), peak_keys) << "never drained, seed " << seed;
    // Every key is still answered right after the churn.
    for (const HashedKey& key : keys) {
      ASSERT_TRUE(SameRef(fast.Highest(key), ref.Highest(key.str())))
          << key.str();
    }
  }
}

TEST(MetadataTableTest, InsertFindErase) {
  MetadataTable t;
  MetaEntry e;
  e.version = 5;
  e.addr = 100;
  e.len = 8;
  t.Insert("k", e);
  ASSERT_NE(t.Find("k", 5), nullptr);
  EXPECT_EQ(t.Find("k", 5)->addr, 100u);
  EXPECT_EQ(t.Find("k", 4), nullptr);
  EXPECT_EQ(t.entry_count(), 1u);
  e.version = 7;
  t.Insert("k", e);
  ASSERT_NE(t.Find("k", 7), nullptr);
  EXPECT_EQ(t.Find("k", 7)->version, 7u);
  EXPECT_NE(t.Find("k", 5), nullptr);
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_TRUE(t.Erase("k", 5));
  EXPECT_FALSE(t.Erase("k", 5));
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_TRUE(t.Erase("k", 7));
  EXPECT_EQ(t.Find("k", 7), nullptr);
  EXPECT_EQ(t.entry_count(), 0u);
}

// The metadata table as first written, a std::map of versions per key
// behind the same key map: the reference model the pooled version lists
// must match step for step, key order included.
using MapMetadataTable = std::unordered_map<Key, std::map<Version, MetaEntry>>;

std::vector<std::pair<Key, Version>> VisitOrder(const MetadataTable& t) {
  std::vector<std::pair<Key, Version>> out;
  t.ForEach([&out](const Key& key, const MetaEntry& e) {
    out.emplace_back(key, e.version);
  });
  return out;
}

std::vector<std::pair<Key, Version>> VisitOrder(const MapMetadataTable& t) {
  std::vector<std::pair<Key, Version>> out;
  // ring-lint: ok(unordered-iter) the reference order under test.
  for (const auto& [key, versions] : t) {
    for (const auto& [version, entry] : versions) {
      out.emplace_back(key, version);
    }
  }
  return out;
}

size_t WithoutBytes(const MapMetadataTable& t) {
  size_t n = 0;
  // ring-lint: ok(unordered-iter) a count; order reaches nothing.
  for (const auto& [key, versions] : t) {
    for (const auto& [version, entry] : versions) {
      n += entry.data_present ? 0 : 1;
    }
  }
  return n;
}

TEST(MetadataTableTest, MatchesMapReferenceOnRandomSteps) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const uint32_t universe = 50 + static_cast<uint32_t>(rng.NextBelow(400));
    std::vector<Key> keys;
    for (uint32_t i = 0; i < universe; ++i) {
      keys.push_back("mk-" + std::to_string(seed) + "-" + std::to_string(i));
    }
    MetadataTable table;
    MapMetadataTable ref;
    // Every live entry's address as Insert returned it.
    std::map<std::pair<Key, Version>, const MetaEntry*> handles;
    // Assigned over and over, so a copy also replaces older contents.
    MetadataTable snapshot;
    size_t peak_entries = 0;
    for (int step = 0; step < 20000; ++step) {
      const Key& key = keys[rng.NextBelow(keys.size())];
      const Version version = 1 + rng.NextBelow(8);
      // The first half grows the table, the second half drains it.
      const bool growing = step < 10000;
      const uint64_t op = rng.NextBelow(1000);
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (op < (growing ? 450u : 150u)) {
        // Insert, or re-insert over a live version in place.
        MetaEntry e;
        e.version = version;
        e.addr = rng.NextU64();
        e.data_present = rng.NextBernoulli(0.7);
        const MetaEntry& got = table.Insert(key, e);
        ref[key][version] = e;
        const auto [it, fresh] = handles.try_emplace({key, version}, &got);
        ASSERT_EQ(it->second, &got) << where << ": a replace moved the entry";
        ASSERT_EQ(got.addr, e.addr) << where;
      } else if (op < 750) {
        // Erase: mostly a version the key holds, sometimes any version.
        Version v = version;
        if (auto it = ref.find(key);
            it != ref.end() && rng.NextBernoulli(0.7)) {
          auto vit = it->second.begin();
          std::advance(vit, rng.NextBelow(it->second.size()));
          v = vit->first;
        }
        bool want = false;
        if (auto it = ref.find(key); it != ref.end()) {
          want = it->second.erase(v) != 0;
          if (it->second.empty()) {
            ref.erase(it);
          }
        }
        ASSERT_EQ(table.Erase(key, v), want) << where;
        handles.erase({key, v});
      } else if (op < 790) {
        // Erase all of a key's versions, oldest first; the key goes with
        // its last.
        if (auto it = ref.find(key); it != ref.end()) {
          const std::map<Version, MetaEntry> versions = it->second;
          ref.erase(it);
          for (const auto& [v, e] : versions) {
            ASSERT_TRUE(table.Erase(key, v)) << where;
            handles.erase({key, v});
          }
        }
        ASSERT_EQ(table.Find(key, version), nullptr) << where;
      } else if (op < 840) {
        if (MetaEntry* e = table.Find(key, version); e != nullptr) {
          table.MarkBytesPresent(*e);
          ref[key][version].data_present = true;
        }
      } else if (op < 988) {
        const MetaEntry* got = table.Find(key, version);
        auto it = ref.find(key);
        const bool present =
            it != ref.end() && it->second.count(version) != 0;
        ASSERT_EQ(got != nullptr, present) << where;
        if (present) {
          ASSERT_EQ(got, handles.at({key, version})) << where;
          ASSERT_EQ(got->addr, it->second.at(version).addr) << where;
        }
      } else if (op < 996) {
        ASSERT_EQ(VisitOrder(table), VisitOrder(ref)) << where;
        ASSERT_EQ(table.entries_without_bytes(), WithoutBytes(ref)) << where;
        for (const auto& [id, entry] : handles) {
          ASSERT_EQ(table.Find(id.first, id.second), entry) << where;
        }
      } else {
        // A metadata-fetch snapshot: the copy visits in the source's order
        // and owns its entries.
        snapshot = table;
        const MapMetadataTable ref_copy = ref;
        ASSERT_EQ(VisitOrder(snapshot), VisitOrder(ref_copy)) << where;
        ASSERT_EQ(snapshot.entry_count(), table.entry_count()) << where;
        ASSERT_EQ(snapshot.entries_without_bytes(),
                  table.entries_without_bytes())
            << where;
        if (const MetaEntry* e = table.Find(key, version); e != nullptr) {
          ASSERT_NE(snapshot.Find(key, version), e) << where;
        }
      }
      ASSERT_EQ(table.entry_count(), handles.size()) << where;
      peak_entries = std::max(peak_entries, table.entry_count());
    }
    EXPECT_GT(peak_entries, 100u) << "table never grew, seed " << seed;
    EXPECT_LT(table.entry_count(), peak_entries)
        << "never drained, seed " << seed;
    ASSERT_EQ(VisitOrder(table), VisitOrder(ref)) << "seed " << seed;
    ASSERT_EQ(table.entries_without_bytes(), WithoutBytes(ref));
  }
}

// True when `store` holds exactly the bytes of `ref`, read by one span
// visit over the whole space, which must tile it in address order with
// each span inside one page.
bool MatchesFlat(const PageStore& store, const Buffer& ref,
                 const std::string& where) {
  uint64_t next = 0;
  bool equal = store.size() == ref.size();
  store.ForEachSpan(0, store.size(), [&](ByteSpan span, uint64_t at) {
    EXPECT_EQ(at, next) << where << ": spans out of order";
    EXPECT_FALSE(span.empty()) << where;
    EXPECT_EQ(at / PageStore::kPageBytes,
              (at + span.size() - 1) / PageStore::kPageBytes)
        << where << ": span crosses a page";
    equal = equal && at + span.size() <= ref.size() &&
            std::equal(span.begin(), span.end(), ref.begin() + at);
    next = at + span.size();
  });
  EXPECT_EQ(next, store.size()) << where << ": spans miss bytes";
  return equal && next == ref.size();
}

// An address within `slack` bytes of a page boundary at or below `limit`,
// so ranges starting there straddle pages.
uint64_t NearBoundary(Rng& rng, uint64_t limit, uint64_t slack) {
  const uint64_t pages = limit / PageStore::kPageBytes;
  if (pages == 0) {
    return rng.NextBelow(limit + 1);
  }
  const uint64_t boundary = (1 + rng.NextBelow(pages)) * PageStore::kPageBytes;
  return boundary - std::min(boundary, rng.NextBelow(slack + 1));
}

TEST(PageStoreTest, MatchesFlatReferenceOnRandomSteps) {
  // Three words, as the vector was, so a ShardStore stays within 216 B:
  // get_100node holds about 29,400 stores (DESIGN.md §20.4).
  static_assert(sizeof(PageStore) == 3 * sizeof(void*));
  static_assert(sizeof(ShardStore) <= 216);
  constexpr uint64_t kPage = PageStore::kPageBytes;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    // Dirty the allocator, so a grow that skips its zero-fill reads the
    // bytes of a freed page.
    {
      PageStore dirty;
      dirty.Write(0, Buffer(2 * kPage + rng.NextBelow(kPage), 0xA5));
    }
    const uint64_t cap = kPage / 2 + rng.NextBelow(4 * kPage);
    PageStore store;
    Buffer ref;
    for (int step = 0; step < 250; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t op = rng.NextBelow(100);
      if (op < 20) {
        // Grow: small, to an exact page multiple, one byte past a page, a
        // multi-page jump, or to no more than the size (no change).
        const uint64_t kind = rng.NextBelow(5);
        const uint64_t next_page = (ref.size() / kPage + 1) * kPage;
        uint64_t size = ref.size() + 1 + rng.NextBelow(5000);
        if (kind == 1) {
          size = next_page;
        } else if (kind == 2) {
          size = next_page + 1;
        } else if (kind == 3) {
          size = ref.size() + kPage + rng.NextBelow(2 * kPage);
        } else if (kind == 4) {
          size = rng.NextBelow(ref.size() + 1);
        }
        if (size > cap) {
          continue;
        }
        const uint64_t old = store.size();
        store.Grow(size);
        if (size > ref.size()) {
          ref.resize(size, 0);
        }
        ASSERT_EQ(store.size(), ref.size()) << where;
        store.ForEachSpan(old, store.size() - old,
                          [&](ByteSpan span, uint64_t) {
                            ASSERT_TRUE(std::all_of(
                                span.begin(), span.end(),
                                [](uint8_t b) { return b == 0; }))
                                << where << ": grown bytes not zero";
                          });
      } else if (op < 45) {
        // Write, often straddling a boundary, sometimes past the end.
        const uint64_t len = 1 + rng.NextBelow(3 * 4096);
        const uint64_t addr =
            NearBoundary(rng, std::min(cap - len, ref.size() + len), len);
        const Buffer bytes = MakePatternBuffer(len, rng.NextU64());
        store.Write(addr, bytes);
        if (addr + len > ref.size()) {
          ref.resize(addr + len, 0);
        }
        std::copy(bytes.begin(), bytes.end(), ref.begin() + addr);
      } else if (op < 60) {
        // Append a range to a buffer that already holds bytes.
        const uint64_t len = rng.NextBelow(std::min<uint64_t>(ref.size(),
                                                              3 * 4096) + 1);
        const uint64_t addr = std::min(
            NearBoundary(rng, ref.size(), len), ref.size() - len);
        Buffer out(rng.NextBelow(9), 0x5A);
        Buffer want = out;
        want.insert(want.end(), ref.begin() + addr, ref.begin() + addr + len);
        store.AppendTo(addr, len, out);
        ASSERT_EQ(out, want) << where;
      } else if (op < 75) {
        // Bounded copy: the part past the end keeps the buffer's bytes.
        const uint64_t len = rng.NextBelow(3 * 4096);
        const uint64_t addr = NearBoundary(rng, ref.size() + 100, len);
        Buffer out(len, 0xC3);
        Buffer want = out;
        for (uint64_t i = 0; i < len && addr + i < ref.size(); ++i) {
          want[i] = ref[addr + i];
        }
        store.CopyOut(addr, out);
        ASSERT_EQ(out, want) << where;
      } else if (op < 95) {
        // A mutable visit XORs a pattern in; the spans tile the range.
        const uint64_t len = rng.NextBelow(std::min<uint64_t>(ref.size(),
                                                              2 * kPage) + 1);
        const uint64_t addr = std::min(
            NearBoundary(rng, ref.size(), len), ref.size() - len);
        const Buffer pattern = MakePatternBuffer(len, rng.NextU64());
        uint64_t next = 0;
        store.ForEachSpan(addr, len, [&](MutableByteSpan span, uint64_t at) {
          ASSERT_EQ(at, next) << where << ": spans out of order";
          ASSERT_FALSE(span.empty()) << where;
          ASSERT_EQ((addr + at) / kPage, (addr + at + span.size() - 1) / kPage)
              << where << ": span crosses a page";
          for (size_t i = 0; i < span.size(); ++i) {
            span[i] ^= pattern[at + i];
          }
          next = at + span.size();
        });
        ASSERT_EQ(next, len) << where << ": spans miss bytes";
        for (uint64_t i = 0; i < len; ++i) {
          ref[addr + i] ^= pattern[i];
        }
      } else {
        store.Zero();
        std::fill(ref.begin(), ref.end(), 0);
      }
      ASSERT_TRUE(MatchesFlat(store, ref, where)) << where << ": bytes differ";
    }
  }
}

TEST(MetaEntryTest, PendingWriteIsOutOfLineAndNeverCopied) {
  // Coordinator-only write state lives behind one pointer: the map node of
  // every mirror, parity copy and committed entry stays small.
  static_assert(sizeof(MetaEntry) <= 56);
  MetaEntry e;
  e.version = 3;
  EXPECT_EQ(e.pending, nullptr);
  EXPECT_EQ(e.acks_pending(), 0u);
  int released = 0;
  e.Pending().acks_pending = 0b10;
  e.Pending().waiters.push_back({0, [&released] { ++released; }});
  ASSERT_NE(e.pending, nullptr);
  EXPECT_EQ(e.acks_pending(), 0b10u);
  EXPECT_EQ(e.pending->waiters.size(), 1u);  // allocated once, then reused

  // Copies are metadata snapshots (recovery transfers): durable fields only.
  const MetaEntry copy = e;
  EXPECT_EQ(copy.version, 3u);
  EXPECT_EQ(copy.pending, nullptr);
  MetadataTable t;
  t.Insert("k", e);
  EXPECT_EQ(t.Find("k", 3)->pending, nullptr);
  MetadataTable snapshot;
  snapshot = t;
  EXPECT_EQ(snapshot.Find("k", 3)->pending, nullptr);

  // Moves keep the waiters.
  MetaEntry moved = std::move(e);
  ASSERT_NE(moved.pending, nullptr);
  moved.pending->waiters.front().fn();
  EXPECT_EQ(released, 1);
}

TEST(EarlyGcSetTest, ConsumesOnceAndEvictsOldestPastTheWindow) {
  EarlyGcSet set;
  set.Record("a", 1);
  EXPECT_TRUE(set.Contains("a", 1));
  EXPECT_FALSE(set.Contains("b", 1));
  EXPECT_FALSE(set.Contains("a", 2));
  EXPECT_TRUE(set.Consume("a", 1));
  EXPECT_FALSE(set.Consume("a", 1));
  EXPECT_EQ(set.size(), 0u);

  const Version window = EarlyGcSet::kWindow;
  for (Version v = 1; v <= window + 1; ++v) {
    set.Record("k", v);
  }
  EXPECT_EQ(set.size(), window);
  EXPECT_FALSE(set.Contains("k", 1));  // the oldest aged out
  EXPECT_TRUE(set.Contains("k", 2));
  EXPECT_TRUE(set.Consume("k", window + 1));
  EXPECT_EQ(set.size(), window - 1);
}

// The at-most-once table as first written: a hash map of claims plus a
// deque of their arrival order, trimmed to the window after each claim.
// The reference model the ring-buffered ClientOpWindow must match.
struct MapClientOps {
  struct IdHash {
    size_t operator()(const std::pair<net::NodeId, uint64_t>& id) const {
      return std::hash<uint64_t>()((uint64_t{id.first} << 48) ^ id.second);
    }
  };
  std::unordered_map<std::pair<net::NodeId, uint64_t>,
                     std::optional<WriteReply>, IdHash>
      ops;
  std::deque<std::pair<net::NodeId, uint64_t>> order;

  const std::optional<WriteReply>* Claim(net::NodeId client, uint64_t req_id) {
    const auto id = std::make_pair(client, req_id);
    if (auto it = ops.find(id); it != ops.end()) {
      return &it->second;
    }
    ops.emplace(id, std::nullopt);
    order.push_back(id);
    while (order.size() > ClientOpWindow::kWindow) {
      ops.erase(order.front());
      order.pop_front();
    }
    return nullptr;
  }
  void RecordReply(net::NodeId client, uint64_t req_id,
                   const WriteReply& reply) {
    if (auto it = ops.find({client, req_id}); it != ops.end()) {
      it->second = reply;
    }
  }
};

bool SameClaim(const std::optional<WriteReply>* a,
               const std::optional<WriteReply>* b) {
  if (a == nullptr || b == nullptr) {
    return a == b;
  }
  if (a->has_value() != b->has_value()) {
    return false;
  }
  return !a->has_value() ||
         ((*a)->status.code() == (*b)->status.code() &&
          (*a)->status.message() == (*b)->status.message() &&
          (*a)->version == (*b)->version);
}

TEST(ClientOpWindowTest, MatchesMapReferenceOnRandomSteps) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    ClientOpWindow window;
    MapClientOps ref;
    // Per client, the next fresh request id; duplicates reach back from it.
    std::vector<uint64_t> next_req(1 + rng.NextBelow(8), 1);
    for (int step = 0; step < 60000; ++step) {
      const auto client =
          static_cast<net::NodeId>(rng.NextBelow(next_req.size()));
      uint64_t req_id = next_req[client];
      const uint64_t op = rng.NextBelow(10);
      if (op < 5) {
        ++next_req[client];
      } else if (next_req[client] > 1) {
        // A retry of an earlier op: recent, or old enough to have aged out.
        const uint64_t back = rng.NextBernoulli(0.8)
                                  ? rng.NextBelow(64)
                                  : rng.NextBelow(3 * ClientOpWindow::kWindow);
        req_id = next_req[client] - 1 - std::min(back, next_req[client] - 2);
      }
      if (op < 8) {
        ASSERT_TRUE(SameClaim(window.Claim(client, req_id),
                              ref.Claim(client, req_id)))
            << "seed " << seed << " step " << step;
      } else {
        const WriteReply reply{
            rng.NextBernoulli(0.9) ? OkStatus() : UnavailableError("retry"),
            rng.NextBelow(100)};
        window.RecordReply(client, req_id, reply);
        ref.RecordReply(client, req_id, reply);
      }
      ASSERT_EQ(window.size(), ref.order.size());
    }
    EXPECT_EQ(window.size(), ClientOpWindow::kWindow) << "seed " << seed;
  }
}

TEST(ClientOpWindowTest, EvictsTheOldestAtTheWindowAndResendsReplies) {
  ClientOpWindow window;
  const auto kWindow = static_cast<uint64_t>(ClientOpWindow::kWindow);
  for (uint64_t id = 1; id <= kWindow; ++id) {
    ASSERT_EQ(window.Claim(7, id), nullptr);
  }
  EXPECT_EQ(window.size(), kWindow);
  // A duplicate of an executing op is ignored: no reply to resend yet.
  const std::optional<WriteReply>* first = window.Claim(7, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->has_value());
  EXPECT_NE(window.Claim(8, 1), first);  // another client's op 1 is new
  // That claim was the window's 8193rd: op 1 of client 7 aged out.
  EXPECT_EQ(window.size(), kWindow);
  // A duplicate of a replied op gets the recorded reply.
  window.RecordReply(7, 3, WriteReply{OkStatus(), 42});
  const std::optional<WriteReply>* third = window.Claim(7, 3);
  ASSERT_NE(third, nullptr);
  ASSERT_TRUE(third->has_value());
  EXPECT_EQ((*third)->version, 42u);
  // Op 1 re-executes, which evicts op 2 in turn; op 2's retry evicts op 3,
  // replied or not.
  EXPECT_EQ(window.Claim(7, 1), nullptr);
  EXPECT_EQ(window.Claim(7, 2), nullptr);
  EXPECT_EQ(window.Claim(7, 3), nullptr);
  EXPECT_NE(window.Claim(7, 5), nullptr);
  // A reply recorded for an op that aged out is dropped.
  window.RecordReply(7, 4, WriteReply{OkStatus(), 9});
  EXPECT_EQ(window.Claim(7, 4), nullptr);

  window.Clear();
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.Claim(7, 3), nullptr);
  EXPECT_EQ(window.size(), 1u);
}

// The replay fence as first written, one std::set node per held sequence:
// the reference model the run-length SeqWindow must match step for step.
struct SetSeqWindow {
  std::set<uint64_t> seen;
  uint64_t min_retained = 0;

  bool MarkOnce(uint64_t seq) {
    if (seq < min_retained || !seen.insert(seq).second) {
      return false;
    }
    while (seen.size() > SeqWindow::kWindow) {
      min_retained = *seen.begin() + 1;
      seen.erase(seen.begin());
    }
    return true;
  }
};

TEST(SeqWindowTest, MatchesSetReferenceOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    SeqWindow fast;
    SetSeqWindow ref;
    uint64_t next = 1;  // next fresh sequence a coordinator would issue
    for (int step = 0; step < 20000; ++step) {
      uint64_t seq = next;
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:  // in order
          seq = next++;
          break;
        case 2:  // gap: some sequences are lost (or still in flight)
          next += 1 + rng.NextBelow(8);
          seq = next++;
          break;
        case 3:  // duplicate or late arrival of a recent sequence
          seq = next - 1 - rng.NextBelow(std::min<uint64_t>(next - 1, 64));
          break;
        case 4:  // reordered ahead of its predecessors
          seq = next + rng.NextBelow(32);
          break;
        default:  // far behind: around and below the window's low edge
          seq = next > 6000 ? next - 3000 - rng.NextBelow(3000) : next;
          break;
      }
      ASSERT_EQ(fast.MarkOnce(seq), ref.MarkOnce(seq))
          << "seed " << seed << " step " << step << " seq " << seq;
      ASSERT_EQ(fast.min_retained(), ref.min_retained)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(fast.size(), ref.seen.size());
    }
    EXPECT_GT(fast.min_retained(), 0u) << "window never slid, seed " << seed;
  }
}

TEST(SeqWindowTest, InOrderStreamIsOneRun) {
  SeqWindow w;
  for (uint64_t seq = 1; seq <= 100000; ++seq) {
    ASSERT_TRUE(w.MarkOnce(seq));
  }
  EXPECT_EQ(w.runs(), 1u);
  EXPECT_EQ(w.size(), SeqWindow::kWindow);
  EXPECT_EQ(w.min_retained(), 100000 - SeqWindow::kWindow + 1);
  EXPECT_FALSE(w.MarkOnce(100000));  // held
  EXPECT_FALSE(w.MarkOnce(5));       // below the window
  EXPECT_TRUE(w.MarkOnce(100002));   // a gap opens a second run
  EXPECT_EQ(w.runs(), 2u);
  EXPECT_TRUE(w.MarkOnce(100001));  // and closing it merges them again
  EXPECT_EQ(w.runs(), 1u);
}

TEST(MemgestRegistryTest, CreateAndPlacement) {
  MemgestRegistry reg(3, 2);
  auto rep3 = reg.Create(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(rep3.ok());
  auto srs = reg.Create(MemgestDescriptor::ErasureCoded(2, 1));
  ASSERT_TRUE(srs.ok());
  EXPECT_EQ(reg.count(), 2u);
  EXPECT_EQ(reg.default_id(), *rep3);

  const MemgestInfo* info = reg.Get(*rep3);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->desc.backups(), 2u);
  const consensus::Placement placement{.s = 3, .d = 2};
  EXPECT_EQ(placement.BackupSlot(0, 0, false), 1u);
  EXPECT_EQ(placement.BackupSlot(0, 1, false), 2u);
  EXPECT_EQ(placement.BackupSlot(2, 0, false), 3u);
  EXPECT_EQ(placement.BackupSlot(2, 1, false), 4u);

  const MemgestInfo* ec = reg.Get(*srs);
  ASSERT_NE(ec, nullptr);
  ASSERT_NE(reg.CodeFor(*ec, 3), nullptr);
  EXPECT_EQ(reg.CodeFor(*ec, 3)->s(), 3u);
  EXPECT_EQ(ec->desc.backups(), 1u);
  EXPECT_EQ(placement.BackupSlot(0, 0, true), 3u);

  // Validation.
  EXPECT_FALSE(reg.Create(MemgestDescriptor::Replicated(6)).ok());   // > s+d
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(4, 1)).ok());  // k>s
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(3, 3)).ok());  // m>d
}

// ---------------------------------------------------------------------------
// End-to-end KVS behaviour

class RingKvsTest : public ::testing::Test {
 protected:
  RingOptions DefaultOptions() {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = 2;
    o.clients = 2;
    o.seed = 99;
    return o;
  }

  void SetUpCluster(RingOptions o) {
    cluster_ = std::make_unique<RingCluster>(o);
    rep1_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(1, "rep1"));
    rep3_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(3, "rep3"));
    srs21_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1, "srs21"));
    srs32_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
  }

  void SetUp() override { SetUpCluster(DefaultOptions()); }

  std::unique_ptr<RingCluster> cluster_;
  MemgestId rep1_ = 0;
  MemgestId rep3_ = 0;
  MemgestId srs21_ = 0;
  MemgestId srs32_ = 0;
};

TEST_F(RingKvsTest, PutGetRoundTripAllMemgests) {
  for (MemgestId g : {rep1_, rep3_, srs21_, srs32_}) {
    for (size_t size : {1u, 17u, 1024u, 5000u}) {
      const Key key = "k-" + std::to_string(g) + "-" + std::to_string(size);
      const Buffer value = MakePatternBuffer(size, g * 1000 + size);
      ASSERT_TRUE(cluster_->Put(key, value, g).ok()) << g << " " << size;
      auto got = cluster_->Get(key);
      ASSERT_TRUE(got.ok()) << g << " " << size;
      EXPECT_EQ(*got, value) << g << " " << size;
    }
  }
}

TEST_F(RingKvsTest, GetMissingKeyIsNotFound) {
  auto got = cluster_->Get("nope");
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, OverwriteReturnsLatest) {
  const Key key = "overwrite";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cluster_->Put(key, "value-" + std::to_string(i), rep3_).ok());
  }
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "value-4");
}

TEST_F(RingKvsTest, OverwriteAcrossMemgests) {
  // Paper §5.2: versions may live in different memgests; the highest wins.
  const Key key = "cross";
  ASSERT_TRUE(cluster_->Put(key, "in-rep3", rep3_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-srs32", srs32_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-rep1", rep1_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "in-rep1");
}

TEST_F(RingKvsTest, DeleteRemovesKey) {
  const Key key = "todelete";
  ASSERT_TRUE(cluster_->Put(key, "payload", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  auto got = cluster_->Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // Deleting a missing key reports NotFound.
  EXPECT_EQ(cluster_->Delete("never-existed").code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutAfterDeleteRevives) {
  const Key key = "lazarus";
  ASSERT_TRUE(cluster_->Put(key, "v1", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  ASSERT_TRUE(cluster_->Put(key, "v2", srs21_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v2");
}

TEST_F(RingKvsTest, MoveAcrossMemgestsPreservesValue) {
  const Buffer value = MakePatternBuffer(2048, 7);
  const Key key = "mover";
  ASSERT_TRUE(cluster_->Put(key, value, rep1_).ok());
  // rep1 -> srs32 -> rep3 -> srs21 -> rep1
  for (MemgestId dst : {srs32_, rep3_, srs21_, rep1_}) {
    ASSERT_TRUE(cluster_->Move(key, dst).ok()) << dst;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << dst;
    EXPECT_EQ(*got, value) << dst;
  }
}

TEST_F(RingKvsTest, MoveMissingKeyIsNotFound) {
  EXPECT_EQ(cluster_->Move("ghost", rep3_).code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutToUnknownMemgestRejected) {
  EXPECT_EQ(cluster_->Put("k", "v", 999).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, ConcurrentPutsSerializeByVersion) {
  // Two clients race puts on one key; a subsequent read must return the
  // version committed last (highest version; Fig. 5 semantics).
  const Key key = "race";
  int done = 0;
  cluster_->client(0).Put(key, std::make_shared<Buffer>(ToBuffer("from-0")),
                          srs32_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  cluster_->client(1).Put(key, std::make_shared<Buffer>(ToBuffer("from-1")),
                          rep1_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return done == 2; }));
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  // Both committed; the get sees whichever version is higher — determined
  // by coordinator arrival order, not by commit speed. The value must be
  // one of the two, and repeated gets agree (strong consistency).
  const std::string v1 = ToString(*got);
  EXPECT_TRUE(v1 == "from-0" || v1 == "from-1");
  auto again = cluster_->Get(key, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(*again), v1);
}

TEST_F(RingKvsTest, GetIssuedDuringSlowPutReturnsNewVersion) {
  // Fig. 5 client D: a get that observes an uncommitted higher version is
  // deferred and answers with that version once committed.
  const Key key = "deferred";
  ASSERT_TRUE(cluster_->Put(key, "old", rep1_).ok());
  bool put_done = false;
  bool get_done = false;
  Buffer got_value;
  // Slow put (4 KiB into SRS32: GF delta work + two parity round trips keep
  // the version uncommitted for ~10 us) with a get injected mid-window: the
  // write-ahead version exists but is not yet durable when the get is
  // processed, so the reply must be deferred to commit time (Fig. 5).
  const Buffer new_value = MakePatternBuffer(4096, 1234);
  cluster_->client(0).Put(key, std::make_shared<Buffer>(new_value), srs32_,
                          [&](Status s, Version) {
                            EXPECT_TRUE(s.ok());
                            put_done = true;
                          });
  cluster_->simulator().After(10 * sim::kMicrosecond, [&] {
    cluster_->client(1).Get(key, [&](GetResult r) {
      ASSERT_TRUE(r.status.ok());
      got_value = *r.data;
      get_done = true;
    });
  });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return put_done && get_done; }));
  EXPECT_EQ(got_value, new_value);
  const net::NodeId coord = KeyShard(key, 3);
  EXPECT_GT(cluster_->server(coord).counters().deferred_gets, 0u);
}

TEST_F(RingKvsTest, MoveRacingAPutKeepsThePut) {
  // A move reads the key's newest version, then copies it on the CPU. A put
  // that commits in between must not end up below the old bytes, re-written
  // by the move at a higher version. Move and put start in the same instant
  // from two clients, in both issue orders; whichever linearizes first, the
  // key must read the put's value.
  for (const size_t len : {size_t{8}, size_t{64}, size_t{1024}, size_t{4096}}) {
    for (const bool move_first : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << len << " B, " << (move_first ? "move" : "put")
                   << " issued first");
      SetUpCluster(DefaultOptions());
      const Key key = "k";
      ASSERT_TRUE(cluster_->Put(key, MakePatternBuffer(len, 1), rep3_).ok());
      const Buffer fresh = MakePatternBuffer(len, 2);
      int done = 0;
      const auto move = [&] {
        cluster_->client(1).Move(key, srs32_, [&](Status s, Version) {
          EXPECT_TRUE(s.ok()) << s;
          ++done;
        });
      };
      const auto put = [&] {
        cluster_->client(0).Put(key, std::make_shared<Buffer>(fresh), rep3_,
                                [&](Status s, Version) {
                                  EXPECT_TRUE(s.ok()) << s;
                                  ++done;
                                });
      };
      if (move_first) {
        move();
        put();
      } else {
        put();
        move();
      }
      ASSERT_TRUE(cluster_->RunUntilDone([&] { return done == 2; }));
      const auto got = cluster_->Get(key);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(*got == fresh) << "read the bytes the put replaced";
    }
  }
}

// The parity invariant of SRS memgest `g` (group 0): every parity node's
// buffer equals the encode of the data heaps through the address map. Roles
// are resolved through the current configuration, so a promoted spare is
// checked in its slot.
void ExpectParityMatchesData(RingCluster& cluster, MemgestId g) {
  RingRuntime& rt = cluster.runtime();
  const MemgestInfo* info = rt.registry().Get(g);
  ASSERT_NE(info, nullptr);
  const consensus::Placement placement =
      rt.membership().ConfigView(rt.leader_node()).Current();
  const uint32_t s = placement.s;
  const srs::SrsCode* code = rt.registry().CodeFor(*info, s);
  const srs::SrsAddressMap* map = rt.registry().MapFor(*info, s);
  ASSERT_NE(code, nullptr);
  ASSERT_NE(map, nullptr);
  std::vector<Buffer> heaps;
  uint64_t max_extent = 0;
  for (uint32_t shard = 0; shard < s; ++shard) {
    RingServer& data = cluster.server(placement.CoordinatorOfShard(shard));
    const uint64_t extent = data.HeapExtent(g, shard, s);
    max_extent = std::max(max_extent, extent);
    heaps.push_back(data.ReadRawForRecovery(
        g, shard, 0, static_cast<uint32_t>(extent), s));
  }
  const uint64_t pextent = map->ParityExtent(max_extent);
  for (uint32_t j = 0; j < info->desc.m; ++j) {
    Buffer expected(pextent, 0);
    for (uint32_t shard = 0; shard < s; ++shard) {
      for (const auto& seg :
           map->MapDataRange(shard, 0, heaps[shard].size())) {
        gf::MulAddRegion(
            code->rs().Coefficient(j, seg.rs_block),
            ByteSpan(heaps[shard].data() + seg.node_offset, seg.length),
            MutableByteSpan(expected.data() + seg.parity_offset, seg.length));
      }
    }
    RingServer& parity =
        cluster.server(placement.NodeOfSlot(placement.RedundantSlot(0, j)));
    EXPECT_EQ(parity.ReadRawParity(g, /*group=*/0, 0,
                                   static_cast<uint32_t>(pextent), s),
              expected)
        << "parity node " << j;
  }
}

TEST_F(RingKvsTest, ParityInvariantHoldsAfterChurn) {
  // White-box: after puts, overwrites, moves and deletes, every parity
  // node's buffer must equal the SRS-encoding of the data heaps.
  for (int i = 0; i < 40; ++i) {
    const Key key = "churn-" + std::to_string(i % 13);
    ASSERT_TRUE(cluster_
                    ->Put(key, MakePatternBuffer(64 + 97 * i % 3000, i),
                          srs32_)
                    .ok());
    if (i % 5 == 2) {
      ASSERT_TRUE(cluster_->Move(key, srs32_).ok()) << i;
    }
    if (i % 7 == 3) {
      ASSERT_TRUE(cluster_->Delete(key).ok()) << i;
    }
  }
  cluster_->RunFor(5 * sim::kMillisecond);  // drain async GC notices
  ExpectParityMatchesData(*cluster_, srs32_);
}

TEST_F(RingKvsTest, StorageOverheadMatchesSchemes) {
  // Fresh cluster per scheme keeps the accounting clean.
  for (auto [desc, factor] :
       std::vector<std::pair<MemgestDescriptor, double>>{
           {MemgestDescriptor::Replicated(1), 1.0},
           {MemgestDescriptor::Replicated(3), 3.0},
           {MemgestDescriptor::ErasureCoded(3, 2), 5.0 / 3.0},
       }) {
    RingCluster cluster(DefaultOptions());
    auto g = cluster.CreateMemgest(desc);
    ASSERT_TRUE(g.ok());
    const size_t object = 4096;
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      .Put("k" + std::to_string(i),
                           MakePatternBuffer(object, i), *g)
                      .ok());
    }
    cluster.RunFor(2 * sim::kMillisecond);
    uint64_t stored = 0;
    for (net::NodeId node = 0; node < 5; ++node) {
      stored += cluster.server(node).StoredBytes();
    }
    const double ratio =
        static_cast<double>(stored) / (static_cast<double>(object) * n);
    // Parity extents round up to whole rows, so allow ~25% slack.
    EXPECT_NEAR(ratio, factor, factor * 0.30) << desc.ToString();
  }
}

// ---------------------------------------------------------------------------
// Failures and recovery

TEST_F(RingKvsTest, CoordinatorFailureRecoversReplicatedData) {
  const uint32_t victim_shard = 1;  // node 1: coordinator, not the leader
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 10; ++i) {
    Key key = KeyInShard(victim_shard, 3, i);
    Buffer value = MakePatternBuffer(700 + i * 31, i);
    ASSERT_TRUE(cluster_->Put(key, value, rep3_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  // The spare (node 5) must now coordinate shard 1 and serve all keys,
  // recovering data from replicas on demand.
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  EXPECT_GT(cluster_->server(5).counters().blocks_recovered, 0u);
}

TEST_F(RingKvsTest, CoordinatorFailureRecoversErasureCodedData) {
  const uint32_t victim_shard = 2;
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 8; ++i) {
    Key key = KeyInShard(victim_shard, 3, 100 + i);
    Buffer value = MakePatternBuffer(900 + i * 57, 100 + i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(2, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;  // decoded via parity, byte-exact
  }
}

TEST_F(RingKvsTest, Srs32ParityAndDecodeAcrossHeapPages) {
  // 3000-B values do not divide a heap page, so regions straddle page
  // boundaries of the data heaps and, through the address map, of the
  // parity strips. Every data heap passes two pages.
  constexpr int kKeys = 2400;
  constexpr size_t kValueBytes = 3000;
  const auto value_of = [](int i, int round) {
    return MakePatternBuffer(kValueBytes, 7919 * i + round);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        cluster_->Put("page-" + std::to_string(i), value_of(i, 0), srs32_)
            .ok())
        << i;
  }
  // Each overwrite takes a region an earlier version freed, so its delta
  // XORs the old bytes, across a page boundary where the region straddles.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        cluster_->Put("page-" + std::to_string(i), value_of(i, 1), srs32_)
            .ok())
        << i;
  }
  cluster_->RunFor(5 * sim::kMillisecond);  // drain async GC notices
  for (uint32_t shard = 0; shard < 3; ++shard) {
    EXPECT_GT(cluster_->server(shard).HeapExtent(srs32_, shard, 3),
              2 * PageStore::kPageBytes)
        << "shard " << shard;
  }
  ExpectParityMatchesData(*cluster_, srs32_);
  for (int i = 0; i < kKeys; ++i) {
    const Key key = "page-" + std::to_string(i);
    ASSERT_TRUE(cluster_->Move(key, rep3_).ok()) << key;
    ASSERT_TRUE(cluster_->Move(key, srs32_).ok()) << key;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    ASSERT_EQ(*got, value_of(i, 1)) << key;
  }
  cluster_->RunFor(5 * sim::kMillisecond);
  ExpectParityMatchesData(*cluster_, srs32_);
  // Node 1 holds data shard 1; its spare decodes the shard's bytes from
  // the surviving heaps and the parity strips.
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  for (int i = 0; i < kKeys; ++i) {
    const Key key = "page-" + std::to_string(i);
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    ASSERT_EQ(*got, value_of(i, 1)) << key;
  }
  EXPECT_GT(cluster_->server(5).counters().blocks_recovered, 0u);
}

TEST_F(RingKvsTest, UnreliableMemgestLosesDataOnFailure) {
  const uint32_t victim_shard = 1;
  const Key key = KeyInShard(victim_shard, 3, 500);
  ASSERT_TRUE(cluster_->Put(key, "ephemeral", rep1_).ok());
  // A reliably stored key on the same shard survives.
  const Key safe = KeyInShard(victim_shard, 3, 501);
  ASSERT_TRUE(cluster_->Put(safe, "durable", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  auto lost = cluster_->Get(key);
  EXPECT_FALSE(lost.ok());
  auto kept = cluster_->Get(safe);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(ToString(*kept), "durable");
}

TEST_F(RingKvsTest, ParityNodeFailureRebuildsAndServes) {
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 6; ++i) {
    Key key = "pf-" + std::to_string(i);
    Buffer value = MakePatternBuffer(1200 + i * 13, i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  // Node 3 hosts parity 0 of srs32 (and srs21).
  cluster_->KillNode(3, /*force_detect=*/true);
  cluster_->RunFor(10 * sim::kMillisecond);  // promotion + parity rebuild
  // New puts to the EC memgest still commit (the promoted parity answers).
  ASSERT_TRUE(cluster_->Put("pf-new", MakePatternBuffer(800, 42), srs32_)
                  .ok());
  // Now kill a data node; decode must work off the REBUILT parity.
  const uint32_t victim_shard = 0;
  Key key0 = KeyInShard(victim_shard, 3, 900);
  Buffer value0 = MakePatternBuffer(2222, 900);
  ASSERT_TRUE(cluster_->Put(key0, value0, srs32_).ok());
  // Node 0 is also the membership leader: detection requires an election,
  // so give the cluster the full heartbeat/election window.
  cluster_->KillNode(0, /*force_detect=*/false);
  cluster_->RunFor(150 * sim::kMillisecond);
  auto got = cluster_->Get(key0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value0);
}

// A promoted parity spare queues the updates that reach it while it rebuilds
// its buffer from heap snapshots, then drains them: it applies an update only
// when its write sequence is above its shard's snapshot sequence, since the
// snapshot already holds the older ones. Applying all, or none, leaves the
// parity wrong.
TEST(ParityRebuildTest, QueuedUpdatesApplyOnlyAboveTheSnapshot) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.seed = 1;
  RingCluster cluster(o);
  const MemgestId g =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        cluster.Put("rb-" + std::to_string(i), MakePatternBuffer(4096, i), g)
            .ok());
  }
  // Node 3 holds parity 0; the spare takes its slot and rebuilds.
  cluster.KillNode(3, /*force_detect=*/true);
  int issued = 0;
  int acked = 0;
  for (sim::SimTime t = 0; t < 4 * sim::kMillisecond;
       t += 10 * sim::kMicrosecond) {
    cluster.client(0).Put(
        "rb-new-" + std::to_string(issued),
        std::make_shared<Buffer>(MakePatternBuffer(4096, 1000 + issued)), g,
        [&acked](Status s, Version) { acked += s.ok() ? 1 : 0; });
    ++issued;
    cluster.RunFor(10 * sim::kMicrosecond);
  }
  cluster.RunFor(20 * sim::kMillisecond);
  EXPECT_EQ(acked, issued);
  ExpectParityMatchesData(cluster, g);
}

TEST_F(RingKvsTest, FailureDetectedByHeartbeatsWithoutForce) {
  const Key key = KeyInShard(1, 3, 777);
  ASSERT_TRUE(cluster_->Put(key, "hb-survives", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/false);
  // Heartbeat timeout (35 ms) + recovery, then reads succeed again.
  cluster_->RunFor(80 * sim::kMillisecond);
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "hb-survives");
}

TEST_F(RingKvsTest, MetadataRecoveryLatencyIsMicroseconds) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_
                    ->Put(KeyInShard(1, 3, i), MakePatternBuffer(256, i),
                          rep3_)
                    .ok());
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(5 * sim::kMillisecond);
  auto& spare = cluster_->server(5);
  EXPECT_TRUE(spare.serving());
  EXPECT_GT(spare.last_recovery_ns(), 0u);
  EXPECT_LT(spare.last_recovery_ns(), 2 * sim::kMillisecond);
}

TEST_F(RingKvsTest, MemgestDeleteRemovesKeys) {
  auto temp = cluster_->CreateMemgest(MemgestDescriptor::Replicated(2, "t"));
  ASSERT_TRUE(temp.ok());
  ASSERT_TRUE(cluster_->Put("t-key", "gone-soon", *temp).ok());
  ASSERT_TRUE(cluster_->DeleteMemgest(*temp).ok());
  cluster_->RunFor(1 * sim::kMillisecond);
  auto got = cluster_->Get("t-key");
  EXPECT_FALSE(got.ok());
  // Further puts to it fail.
  EXPECT_EQ(cluster_->Put("x", "y", *temp).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, SetDefaultMemgestRoutesPlainPuts) {
  ASSERT_TRUE(cluster_->SetDefaultMemgest(srs21_).ok());
  ASSERT_TRUE(cluster_->Put("plain", "to-default").ok());
  auto got = cluster_->Get("plain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "to-default");
  // White-box: the entry landed in srs21's metadata on the coordinator.
  const uint32_t shard = KeyShard("plain", 3);
  auto& server = cluster_->server(shard);
  EXPECT_GT(server.counters().puts, 0u);
}

TEST_F(RingKvsTest, GetMemgestDescriptorRoundTrip) {
  auto desc = cluster_->GetMemgestDescriptor(srs32_);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->kind, SchemeKind::kErasureCoded);
  EXPECT_EQ(desc->k, 3u);
  EXPECT_EQ(desc->m, 2u);
  EXPECT_EQ(desc->name, "srs32");
  auto missing = cluster_->GetMemgestDescriptor(999);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, FullSyncReplicationCommitsAndReads) {
  auto fs = cluster_->CreateMemgest(MemgestDescriptor::FullSyncReplicated(3));
  ASSERT_TRUE(fs.ok());
  const Buffer value = MakePatternBuffer(900, 4);
  ASSERT_TRUE(cluster_->Put("fsync", value, *fs).ok());
  auto got = cluster_->Get("fsync");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  // Full-sync puts are slower than quorum (wait for all replicas), faster
  // than erasure coding.
  auto& client = cluster_->client(0);
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("fsync2", value, *fs).ok());
  const double full_sync_lat = client.latencies().values().back();
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("q", value, rep3_).ok());
  const double quorum_lat = client.latencies().values().back();
  EXPECT_GE(full_sync_lat, quorum_lat);
}

TEST_F(RingKvsTest, PromotedCoordinatorReleasesParkedGetAndMoveAtCommit) {
  RingOptions o = DefaultOptions();
  o.clients = 3;
  SetUpCluster(o);
  const Key key = KeyInShard(1, 3, 4242);
  ASSERT_TRUE(cluster_->Put(key, "before", srs32_).ok());
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  RingServer& promoted = cluster_->server(5);
  ASSERT_TRUE(promoted.serving());

  // A slow SRS(3,2) put on the promoted coordinator; a get and a move land
  // while its version is still in the quorum round. Both park on the
  // entry's in-flight state and must be released by the commit.
  const Buffer value = MakePatternBuffer(4096, 77);
  bool put_done = false;
  bool get_done = false;
  bool move_done = false;
  sim::SimTime put_at = 0;
  sim::SimTime move_at = 0;
  Buffer got;
  Status move_status;
  cluster_->client(0).Put(key, std::make_shared<Buffer>(value), srs32_,
                          [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            put_done = true;
                            put_at = cluster_->simulator().now();
                          });
  cluster_->simulator().After(10 * sim::kMicrosecond, [&] {
    cluster_->client(1).Get(key, [&](GetResult r) {
      ASSERT_TRUE(r.status.ok()) << r.status;
      got = *r.data;
      get_done = true;
    });
    cluster_->client(2).Move(key, rep3_, [&](Status s, Version) {
      move_status = s;
      move_done = true;
      move_at = cluster_->simulator().now();
    });
  });
  ASSERT_TRUE(cluster_->RunUntilDone(
      [&] { return put_done && get_done && move_done; }));
  EXPECT_EQ(got, value);
  EXPECT_TRUE(move_status.ok()) << move_status;
  EXPECT_GE(move_at, put_at);
  EXPECT_GT(promoted.counters().deferred_gets, 0u);
  EXPECT_EQ(promoted.PendingWrites(), 0u);
  auto after = cluster_->Get(key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, value);
}

TEST_F(RingKvsTest, GetOrMoveRacingADecodeAndAPutNeverAnswersNotFound) {
  // Bug 6. Without background recovery, a promoted SRS(3,2) coordinator
  // decodes a key's bytes through a parity node when a get or move first
  // needs them. A put of the key that commits during the decode collects
  // the version being decoded. The waiting get or move must then restart
  // against the newest version, as validate-and-retry does, instead of
  // answering not_found for a key that holds a committed version. Each op
  // races a put in both issue orders, the second op 0-10 us after the
  // first in 0.5 us steps.
  RingOptions o = DefaultOptions();
  o.background_data_recovery = false;
  for (const size_t len : {size_t{64}, size_t{4096}}) {
    for (const bool move : {false, true}) {
      for (const bool put_first : {true, false}) {
        for (int half_us = 0; half_us <= 20; ++half_us) {
          SCOPED_TRACE(::testing::Message()
                       << len << " B, " << (move ? "move" : "get") << ", "
                       << (put_first ? "put" : "the other op")
                       << " issued first, then " << half_us * 0.5 << " us");
          SetUpCluster(o);
          const Key key = KeyInShard(1, 3, 7);
          const Buffer before = MakePatternBuffer(len, 1);
          const Buffer after = MakePatternBuffer(len, 2);
          ASSERT_TRUE(cluster_->Put(key, before, srs32_).ok());
          cluster_->KillNode(1, /*force_detect=*/true);
          cluster_->RunFor(2 * sim::kMillisecond);
          int done = 0;
          const std::function<void()> put = [&] {
            cluster_->client(0).Put(key, std::make_shared<Buffer>(after),
                                    srs32_, [&](Status s, Version) {
                                      EXPECT_TRUE(s.ok()) << s;
                                      ++done;
                                    });
          };
          const std::function<void()> other = [&] {
            if (move) {
              cluster_->client(1).Move(key, rep3_, [&](Status s, Version) {
                EXPECT_TRUE(s.ok()) << s;
                ++done;
              });
              return;
            }
            cluster_->client(1).Get(key, [&](GetResult r) {
              EXPECT_TRUE(r.status.ok()) << r.status;
              if (r.status.ok()) {
                EXPECT_TRUE(*r.data == before || *r.data == after);
              }
              ++done;
            });
          };
          (put_first ? put : other)();
          cluster_->simulator().After(half_us * sim::kMicrosecond / 2,
                                      put_first ? other : put);
          ASSERT_TRUE(cluster_->RunUntilDone([&] { return done == 2; }));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Redundancy metadata: one live entry per version (§5.2)

// Metadata entries held on a node: its own shards, mirrors and parity
// copies.
uint64_t EntriesOn(RingCluster& cluster, net::NodeId node) {
  return cluster.server(node).TotalMetadataBytes() / kMetaEntryWireBytes;
}

// Overwrites `keys` keys of shard 0 `rounds` times each while `paused` sits
// in a gray pause. Redundancy writes to the paused node wait behind the
// pause; the GC notices chasing them are one-sided writes and land at once.
void OverwriteWhilePaused(const MemgestDescriptor& desc, net::NodeId paused,
                          uint32_t keys, uint32_t rounds,
                          std::vector<uint64_t>* entries_per_node) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.seed = 7;
  o.fault_plan =
      *fault::ParseFaultPlan("pause node=" + std::to_string(paused) +
                             " at=20ms resume=24ms");
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(desc);
  cluster.RunFor(20 * sim::kMillisecond - cluster.simulator().now());
  // Issued without waiting for commits: erasure-coded puts cannot commit
  // while a parity node is paused, so their versions pile up as under a
  // backlog.
  uint32_t done = 0;
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint32_t i = 0; i < keys; ++i) {
      cluster.client(0).Put(
          KeyInShard(0, 3, static_cast<int>(i)),
          std::make_shared<Buffer>(MakePatternBuffer(200, round * 100 + i)),
          g, [&done](Status s, Version) {
            EXPECT_TRUE(s.ok()) << s;
            ++done;
          });
      cluster.RunFor(20 * sim::kMicrosecond);
    }
  }
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done == keys * rounds; }));
  cluster.RunFor(10 * sim::kMillisecond);  // resume, drain, GC notices
  ASSERT_GT(cluster.simulator().now(), 24 * sim::kMillisecond);
  for (net::NodeId n = 0; n < 5; ++n) {
    entries_per_node->push_back(EntriesOn(cluster, n));
    EXPECT_EQ(cluster.server(n).EarlyGcRecords(), 0u) << "node " << n;
  }
}

TEST(RedundancyMetadataTest, BackedUpReplicaKeepsNoCollectedVersions) {
  // Rep(3) commits on one replica ack, so GC notices for versions the
  // paused replica has not appended yet overtake the appends.
  std::vector<uint64_t> entries;
  OverwriteWhilePaused(MemgestDescriptor::Replicated(3), /*paused=*/2,
                       /*keys=*/8, /*rounds=*/6, &entries);
  // Shard 0: coordinator node 0, replicas nodes 1 and 2 — one live version
  // of each key apiece, nothing anywhere else.
  EXPECT_EQ(entries, (std::vector<uint64_t>{8, 8, 8, 0, 0}));
}

TEST(RedundancyMetadataTest, BackedUpParityKeepsNoCollectedVersions) {
  std::vector<uint64_t> entries;
  OverwriteWhilePaused(MemgestDescriptor::ErasureCoded(3, 2), /*paused=*/3,
                       /*keys=*/8, /*rounds=*/6, &entries);
  // Shard 0's coordinator plus both parity nodes of its group.
  EXPECT_EQ(entries, (std::vector<uint64_t>{8, 0, 0, 8, 8}));
}

TEST(RedundancyMetadataTest, EarlyGcRecordOfADroppedAppendAgesOut) {
  // A replica append that is dropped never consumes the record its GC
  // notice leaves; the record must age out of the bounded window.
  const uint64_t window = EarlyGcSet::kWindow;
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.seed = 11;
  o.fault_plan = *fault::ParseFaultPlan(
      "drop src=0 dst=2 p=1 from=20ms until=20500us;"
      "pause node=2 at=22ms resume=30ms");
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = KeyInShard(0, 3, 9);
  auto run_until = [&cluster](sim::SimTime t) {
    ASSERT_LT(cluster.simulator().now(), t);
    cluster.RunFor(t - cluster.simulator().now());
  };
  run_until(20 * sim::kMillisecond);
  ASSERT_TRUE(cluster.Put(key, "v1", g).ok());  // its append to node 2 is lost
  run_until(20500 * sim::kMicrosecond);
  ASSERT_TRUE(cluster.Put(key, "v2", g).ok());  // GCs v1: a stale record
  cluster.RunFor(100 * sim::kMicrosecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), 1u);
  EXPECT_EQ(EntriesOn(cluster, 2), 1u);

  // While node 2 is paused, window + 1 overwrites: their GC notices record
  // v3 .. v(window + 2) and push the stale v1 record out.
  run_until(22 * sim::kMillisecond);
  for (uint64_t i = 0; i <= window; ++i) {
    ASSERT_TRUE(cluster.Put(key, "v" + std::to_string(i + 3), g).ok());
  }
  ASSERT_LT(cluster.simulator().now(), 30 * sim::kMillisecond);
  cluster.RunFor(20 * sim::kMicrosecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), window);

  // After the pause the queued appends consume their records; none is left.
  run_until(35 * sim::kMillisecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), 0u);
  for (net::NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(EntriesOn(cluster, n), 1u) << "node " << n;
  }
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v" + std::to_string(window + 3));
}

TEST_F(RingKvsTest, DeterministicAcrossRuns) {
  auto run = [&](uint64_t seed) -> uint64_t {
    RingOptions o = DefaultOptions();
    o.seed = seed;
    RingCluster cluster(o);
    auto g = cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(cluster
                      .Put("d" + std::to_string(i),
                           MakePatternBuffer(100 + i, i), *g)
                      .ok());
    }
    return cluster.simulator().now();
  };
  EXPECT_EQ(run(42), run(42));
}

// Resize precedence (§13): after a handoff the old owner can hold the same
// (key, version) twice — its moved-marker in the previous shape's store and,
// as a replica of the new owner's shard, a mirror of the install (which
// reuses the marker's version) in the current shape's store. Lookups must
// answer with the current-shape copy everywhere; a get that resolved the
// marker while routing saw the mirror would re-route forever.
TEST(ResizePrecedenceTest, GetPrefersTheCurrentShapeCopyOfAVersion) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.seed = 17;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  std::vector<Key> keys;
  for (int i = 0; i < 48; ++i) {
    keys.push_back("rp-" + std::to_string(i));
    ASSERT_TRUE(cluster.Put(keys.back(), "v-" + keys.back(), g).ok());
  }
  consensus::MembershipGroup& membership = cluster.runtime().membership();
  ASSERT_TRUE(membership.BeginAddServer(5));
  cluster.RunFor(2 * sim::kMillisecond);  // the new shape reaches every node
  const consensus::ClusterConfig& cfg =
      membership.ConfigView(cluster.runtime().leader_node());
  ASSERT_TRUE(cfg.rebalancing());
  const consensus::Placement prev = cfg.Previous();
  const consensus::Placement cur = cfg.Current();
  const MemgestInfo& info = *cluster.runtime().registry().Get(g);

  // A key whose old owner backs the new owner's shard as a replica.
  Key key;
  net::NodeId old_owner = 0;
  net::NodeId new_owner = 0;
  for (const Key& k : keys) {
    const uint32_t cur_shard = KeyShard(k, cur.num_shards());
    old_owner = prev.CoordinatorOfShard(KeyShard(k, prev.num_shards()));
    new_owner = cur.CoordinatorOfShard(cur_shard);
    bool backs = false;
    for (uint32_t ordinal = 0; ordinal < info.desc.backups(); ++ordinal) {
      backs = backs ||
              cur.NodeOfSlot(cur.BackupSlot(cur_shard, ordinal, false)) ==
                  old_owner;
    }
    if (old_owner != new_owner && backs) {
      key = k;
      break;
    }
  }
  ASSERT_FALSE(key.empty());

  // Hand the key over: marker at the old owner, install at the new one.
  bool migrated = false;
  Status status = InternalError("no reply");
  RingServer::MigrateKey msg;
  msg.key = key;
  msg.requester = cluster.runtime().leader_node();
  msg.reply = [&](Status s) {
    status = s;
    migrated = true;
  };
  cluster.server(old_owner).HandleMigrateKey(msg);
  ASSERT_TRUE(cluster.RunUntilDone([&] { return migrated; }));
  ASSERT_TRUE(status.ok()) << status;
  cluster.RunFor(1 * sim::kMillisecond);  // every replica applied the install
  // The install reused the marker's version: the put was v1, the marker v2.
  EXPECT_EQ(cluster.server(new_owner).RetainedCommittedVersions(key),
            std::vector<Version>{2});
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");

  // Client 0 still routes by the previous shape, so the get lands on the
  // old owner first. It must terminate and read the installed value.
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(ToString(*got), "v-" + key);
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");

  // Retiring the previous shape drops the marker and its ref.
  ASSERT_TRUE(membership.CompleteRebalance());
  cluster.RunFor(2 * sim::kMillisecond);
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");
}

}  // namespace
}  // namespace ring
