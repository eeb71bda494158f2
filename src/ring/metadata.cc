#include "src/ring/metadata.h"

#include <algorithm>

namespace ring {

std::string MemgestDescriptor::ToString() const {
  if (kind == SchemeKind::kReplicated) {
    return "Rep(" + std::to_string(r) + ")";
  }
  return "SRS(" + std::to_string(k) + "," + std::to_string(m) + ")";
}

MetaEntry* MetadataTable::Find(const Key& key, Version version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return nullptr;
  }
  auto vit = it->second.find(version);
  return vit == it->second.end() ? nullptr : &vit->second;
}

const MetaEntry* MetadataTable::Find(const Key& key, Version version) const {
  return const_cast<MetadataTable*>(this)->Find(key, version);
}

MetaEntry* MetadataTable::Highest(const Key& key) {
  auto it = table_.find(key);
  if (it == table_.end() || it->second.empty()) {
    return nullptr;
  }
  return &it->second.rbegin()->second;
}

MetaEntry& MetadataTable::Insert(const Key& key, MetaEntry entry) {
  auto& versions = table_[key];
  const uint64_t version = entry.version;
  auto [it, inserted] = versions.insert_or_assign(version, std::move(entry));
  if (inserted) {
    ++entry_count_;
  }
  return it->second;
}

bool MetadataTable::Erase(const Key& key, Version version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  const bool erased = it->second.erase(version) > 0;
  if (erased) {
    --entry_count_;
  }
  if (it->second.empty()) {
    table_.erase(it);
  }
  return erased;
}

void MetadataTable::ForEach(
    const std::function<void(const Key&, const MetaEntry&)>& fn) const {
  // Reviewed: visit order is a pure function of the deterministic
  // insert/erase sequence (std::hash is seed-free), so identical simulated
  // runs iterate identically.
  // ring-lint: ok(unordered-iter)
  for (const auto& [key, versions] : table_) {
    for (const auto& [version, entry] : versions) {
      fn(key, entry);
    }
  }
}

void MetadataTable::ForEachMutable(
    const std::function<void(const Key&, MetaEntry&)>& fn) {
  // ring-lint: ok(unordered-iter) same argument as ForEach above.
  for (auto& [key, versions] : table_) {
    for (auto& [version, entry] : versions) {
      fn(key, entry);
    }
  }
}

std::vector<Version> MetadataTable::VersionsOf(const Key& key) const {
  std::vector<Version> out;
  auto it = table_.find(key);
  if (it != table_.end()) {
    for (const auto& [version, entry] : it->second) {
      out.push_back(version);
    }
  }
  return out;
}

void MetadataTable::Clear() {
  table_.clear();
  entry_count_ = 0;
}

void EarlyGcSet::Record(uint32_t shard, const Key& key, Version version) {
  records_.push_back(Entry{shard, version, key});
  if (records_.size() > kWindow) {
    records_.erase(records_.begin());
  }
}

std::vector<EarlyGcSet::Entry>::const_iterator EarlyGcSet::FindRecord(
    uint32_t shard, const Key& key, Version version) const {
  return std::find_if(records_.begin(), records_.end(), [&](const Entry& e) {
    return e.version == version && e.shard == shard && e.key == key;
  });
}

bool EarlyGcSet::Consume(uint32_t shard, const Key& key, Version version) {
  const auto it = FindRecord(shard, key, version);
  if (it == records_.end()) {
    return false;
  }
  records_.erase(it);
  return true;
}

bool EarlyGcSet::Contains(uint32_t shard, const Key& key,
                          Version version) const {
  return FindRecord(shard, key, version) != records_.end();
}

std::optional<VolatileIndex::Ref> VolatileIndex::Highest(
    const Key& key) const {
  auto it = index_.find(key);
  if (it == index_.end() || it->second.empty()) {
    return std::nullopt;
  }
  return it->second.front();
}

Version VolatileIndex::NextVersion(const Key& key) const {
  auto ref = Highest(key);
  return ref ? ref->version + 1 : 1;
}

void VolatileIndex::Add(const Key& key, Version version, MemgestId memgest) {
  auto& refs = index_[key];
  const Ref ref{version, memgest};
  // Insert keeping descending order by version.
  auto pos = std::lower_bound(
      refs.begin(), refs.end(), version,
      [](const Ref& a, Version v) { return a.version > v; });
  if (pos != refs.end() && pos->version == version) {
    *pos = ref;  // idempotent re-add (e.g. during recovery)
    return;
  }
  refs.insert(pos, ref);
}

void VolatileIndex::Remove(const Key& key, Version version) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  auto& refs = it->second;
  refs.erase(std::remove_if(refs.begin(), refs.end(),
                            [version](const Ref& r) {
                              return r.version == version;
                            }),
             refs.end());
  if (refs.empty()) {
    index_.erase(it);
  }
}

std::vector<VolatileIndex::Ref> VolatileIndex::Refs(const Key& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? std::vector<Ref>{} : it->second;
}

}  // namespace ring
