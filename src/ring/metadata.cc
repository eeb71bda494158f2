#include "src/ring/metadata.h"

#include <algorithm>
#include <bit>
#include <new>
#include <utility>

#include "src/sim/task.h"

namespace ring {

std::string MemgestDescriptor::ToString() const {
  if (kind == SchemeKind::kReplicated) {
    return "Rep(" + std::to_string(r) + ")";
  }
  return "SRS(" + std::to_string(k) + "," + std::to_string(m) + ")";
}

MetadataTable::Node* MetadataTable::NewNode(MetaEntry entry) {
  static_assert(sizeof(Node) <= 64, "a list node left the 64-byte class");
  return ::new (sim::TaskPool::Allocate(sizeof(Node)))
      Node{std::move(entry), nullptr};
}

void MetadataTable::FreeNode(Node* node) {
  node->~Node();
  sim::TaskPool::Deallocate(node, sizeof(Node));
}

MetadataTable& MetadataTable::operator=(const MetadataTable& other) {
  if (this == &other) {
    return *this;
  }
  Clear();
  // The copied key map keeps the source's node order; each key then gets
  // its own copy of the source's list.
  table_ = other.table_;
  // ring-lint: ok(unordered-iter) copies each list; order reaches nothing.
  for (auto& [key, head] : table_) {
    Node** link = &head;
    for (const Node* src = head; src != nullptr; src = src->next) {
      *link = NewNode(src->entry);  // a copy carries no in-flight write state
      link = &(*link)->next;
    }
  }
  entry_count_ = other.entry_count_;
  without_bytes_ = other.without_bytes_;
  return *this;
}

MetaEntry* MetadataTable::Find(const Key& key, Version version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return nullptr;
  }
  for (Node* n = it->second; n != nullptr && n->entry.version <= version;
       n = n->next) {
    if (n->entry.version == version) {
      return &n->entry;
    }
  }
  return nullptr;
}

const MetaEntry* MetadataTable::Find(const Key& key, Version version) const {
  return const_cast<MetadataTable*>(this)->Find(key, version);
}

MetaEntry& MetadataTable::Insert(const Key& key, MetaEntry entry) {
  Node** link = &table_[key];
  while (*link != nullptr && (*link)->entry.version < entry.version) {
    link = &(*link)->next;
  }
  without_bytes_ += entry.data_present ? 0 : 1;
  if (*link != nullptr && (*link)->entry.version == entry.version) {
    MetaEntry& slot = (*link)->entry;
    without_bytes_ -= slot.data_present ? 0 : 1;
    slot = std::move(entry);
    return slot;
  }
  Node* node = NewNode(std::move(entry));
  node->next = *link;
  *link = node;
  ++entry_count_;
  return node->entry;
}

void MetadataTable::MarkBytesPresent(MetaEntry& entry) {
  if (!entry.data_present) {
    entry.data_present = true;
    --without_bytes_;
  }
}

bool MetadataTable::Erase(const Key& key, Version version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  Node** link = &it->second;
  while (*link != nullptr && (*link)->entry.version < version) {
    link = &(*link)->next;
  }
  Node* node = *link;
  if (node == nullptr || node->entry.version != version) {
    return false;
  }
  *link = node->next;
  --entry_count_;
  without_bytes_ -= node->entry.data_present ? 0 : 1;
  FreeNode(node);
  if (it->second == nullptr) {
    table_.erase(it);
  }
  return true;
}

void MetadataTable::ForEach(
    const std::function<void(const Key&, const MetaEntry&)>& fn) const {
  // Reviewed: visit order is a pure function of the deterministic
  // insert/erase sequence (std::hash is seed-free), so identical simulated
  // runs iterate identically.
  // ring-lint: ok(unordered-iter)
  for (const auto& [key, head] : table_) {
    for (const Node* n = head; n != nullptr; n = n->next) {
      fn(key, n->entry);
    }
  }
}

void MetadataTable::ForEachMutable(
    const std::function<void(const Key&, MetaEntry&)>& fn) {
  // ring-lint: ok(unordered-iter) same argument as ForEach above.
  for (auto& [key, head] : table_) {
    for (Node* n = head; n != nullptr; n = n->next) {
      fn(key, n->entry);
    }
  }
}

void MetadataTable::Clear() {
  // ring-lint: ok(unordered-iter) frees every node; order reaches nothing.
  for (auto& [key, head] : table_) {
    while (head != nullptr) {
      Node* next = head->next;
      FreeNode(head);
      head = next;
    }
  }
  table_.clear();
  entry_count_ = 0;
  without_bytes_ = 0;
}

void EarlyGcSet::Record(const Key& key, Version version) {
  records_.push_back(Entry{version, key});
  if (records_.size() > kWindow) {
    records_.erase(records_.begin());
  }
}

std::vector<EarlyGcSet::Entry>::const_iterator EarlyGcSet::FindRecord(
    const Key& key, Version version) const {
  return std::find_if(records_.begin(), records_.end(), [&](const Entry& e) {
    return e.version == version && e.key == key;
  });
}

bool EarlyGcSet::Consume(const Key& key, Version version) {
  const auto it = FindRecord(key, version);
  if (it == records_.end()) {
    return false;
  }
  records_.erase(it);
  return true;
}

bool EarlyGcSet::Contains(const Key& key, Version version) const {
  return FindRecord(key, version) != records_.end();
}

namespace {
// 2^64 / golden ratio: multiplicative hashing spreads every input bit into
// the product's high bits, which pick the home slot.
constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;
constexpr size_t kMinSlots = 16;
}  // namespace

size_t VolatileIndex::Home(uint64_t hash) const {
  return static_cast<size_t>((hash * kFibonacci) >> shift_);
}

size_t VolatileIndex::SlotOf(const HashedKey& key) const {
  if (records_.empty()) {
    return kNotFound;
  }
  const size_t mask = slots_.size() - 1;
  const auto tag = static_cast<uint32_t>(key.hash() >> 32);
  for (size_t i = Home(key.hash());; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.index == 0) {
      return kNotFound;
    }
    if (slot.tag == tag) {
      const Record& r = records_[slot.index - 1];
      if (r.hash == key.hash() && r.key == key.str()) {
        return i;
      }
    }
  }
}

const VolatileIndex::Ref* VolatileIndex::Highest(const HashedKey& key) const {
  const size_t slot = SlotOf(key);
  return slot == kNotFound ? nullptr : &records_[slots_[slot].index - 1].newest;
}

const VolatileIndex::Ref* VolatileIndex::Find(const HashedKey& key,
                                              Version version) const {
  const size_t slot = SlotOf(key);
  if (slot == kNotFound) {
    return nullptr;
  }
  const Record& r = records_[slots_[slot].index - 1];
  if (r.newest.version == version) {
    return &r.newest;
  }
  if (r.older != nullptr) {
    for (const Ref& ref : *r.older) {
      if (ref.version == version) {
        return &ref;
      }
    }
  }
  return nullptr;
}

VolatileIndex::Ref* VolatileIndex::Find(const HashedKey& key,
                                        Version version) {
  return const_cast<Ref*>(std::as_const(*this).Find(key, version));
}

Version VolatileIndex::NextVersion(const HashedKey& key) const {
  const Ref* ref = Highest(key);
  return ref != nullptr ? ref->version + 1 : 1;
}

void VolatileIndex::Add(const HashedKey& key, const Ref& ref) {
  const size_t slot = SlotOf(key);
  if (slot == kNotFound) {
    if ((records_.size() + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    // Grow the records by a quarter, not the vector's default doubling:
    // the slack is paid per key on every coordinator.
    if (records_.size() == records_.capacity()) {
      records_.reserve(records_.size() + records_.size() / 4 + 4);
    }
    records_.push_back(Record{key.str(), key.hash(), ref, nullptr});
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key.hash());
    while (slots_[i].index != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = Slot{static_cast<uint32_t>(key.hash() >> 32),
                     static_cast<uint32_t>(records_.size())};
    ++ref_count_;
    return;
  }
  Record* r = &records_[slots_[slot].index - 1];
  if (ref.version == r->newest.version) {
    r->newest = ref;
    return;
  }
  if (r->older == nullptr) {
    r->older = std::make_unique<std::vector<Ref>>();
  }
  std::vector<Ref>& older = *r->older;
  if (ref.version > r->newest.version) {
    older.insert(older.begin(), r->newest);
    r->newest = ref;
    ++ref_count_;
    return;
  }
  // Insert keeping descending order by version.
  auto pos = std::lower_bound(
      older.begin(), older.end(), ref.version,
      [](const Ref& a, Version v) { return a.version > v; });
  if (pos != older.end() && pos->version == ref.version) {
    *pos = ref;
    return;
  }
  older.insert(pos, ref);
  ++ref_count_;
}

bool VolatileIndex::Remove(const HashedKey& key, Version version) {
  const size_t slot = SlotOf(key);
  if (slot == kNotFound) {
    return false;
  }
  Record& r = records_[slots_[slot].index - 1];
  if (r.newest.version == version) {
    if (r.older == nullptr) {
      EraseRecord(slot);  // invalidates `r`
      --ref_count_;
      return true;
    }
    r.newest = r.older->front();
    r.older->erase(r.older->begin());
  } else {
    if (r.older == nullptr) {
      return false;
    }
    auto it = std::find_if(r.older->begin(), r.older->end(),
                           [version](const Ref& x) {
                             return x.version == version;
                           });
    if (it == r.older->end()) {
      return false;
    }
    r.older->erase(it);
  }
  if (r.older != nullptr && r.older->empty()) {
    r.older.reset();
  }
  --ref_count_;
  return true;
}

std::vector<VolatileIndex::Ref> VolatileIndex::Refs(
    const HashedKey& key) const {
  const size_t slot = SlotOf(key);
  if (slot == kNotFound) {
    return {};
  }
  const Record& r = records_[slots_[slot].index - 1];
  std::vector<Ref> out;
  out.reserve(1 + (r.older != nullptr ? r.older->size() : 0));
  out.push_back(r.newest);
  if (r.older != nullptr) {
    out.insert(out.end(), r.older->begin(), r.older->end());
  }
  return out;
}

void VolatileIndex::Grow() {
  const size_t size = slots_.empty() ? kMinSlots : 2 * slots_.size();
  std::vector<Slot>(size).swap(slots_);
  shift_ = static_cast<uint32_t>(64 - std::countr_zero(size));
  const size_t mask = size - 1;
  for (size_t index = 0; index < records_.size(); ++index) {
    const uint64_t hash = records_[index].hash;
    size_t i = Home(hash);
    while (slots_[i].index != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = Slot{static_cast<uint32_t>(hash >> 32),
                     static_cast<uint32_t>(index + 1)};
  }
}

void VolatileIndex::EraseRecord(size_t slot) {
  const uint32_t index = slots_[slot].index;
  const size_t mask = slots_.size() - 1;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home slot does not lie between the hole and them,
  // so a probe never stops at a gap short of its key.
  size_t hole = slot;
  for (size_t i = (hole + 1) & mask; slots_[i].index != 0; i = (i + 1) & mask) {
    const size_t home = Home(records_[slots_[i].index - 1].hash);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  // The last record fills the erased one's place; re-point its slot.
  const auto last = static_cast<uint32_t>(records_.size());
  if (index != last) {
    size_t i = Home(records_[last - 1].hash);
    while (slots_[i].index != last) {
      i = (i + 1) & mask;
    }
    slots_[i].index = index;
    records_[index - 1] = std::move(records_[last - 1]);
  }
  records_.pop_back();
}

size_t VolatileIndex::ApproxBytes() const {
  size_t bytes =
      slots_.capacity() * sizeof(Slot) + records_.capacity() * sizeof(Record);
  for (const Record& r : records_) {
    if (r.key.capacity() > Key().capacity()) {
      bytes += r.key.capacity() + 1;
    }
    if (r.older != nullptr) {
      bytes += sizeof(std::vector<Ref>) + r.older->capacity() * sizeof(Ref);
    }
  }
  return bytes;
}

void VolatileIndex::Clear() {
  std::vector<Slot>().swap(slots_);
  std::vector<Record>().swap(records_);
  shift_ = 64;
  ref_count_ = 0;
}

}  // namespace ring
