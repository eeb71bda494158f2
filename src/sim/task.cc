#include "src/sim/task.h"

#include <memory>
#include <vector>

namespace ring::sim {

namespace {

constexpr size_t kSlabBytes = 64 * 1024;

// Slab ownership: blocks on the free lists point into these; freed at
// thread exit, so ASan/LSan see no leaks.
std::vector<std::unique_ptr<unsigned char[]>>& slabs() {
  thread_local std::vector<std::unique_ptr<unsigned char[]>> s;
  return s;
}

}  // namespace

void* TaskPool::AllocateSlow(size_t bytes) {
  Core& c = core();
  if (bytes > kMaxPooled) {
    ++c.stats.pool_misses;
    return ::operator new(bytes);
  }
  // Carve a fresh slab into this class's chunks. The triggering allocation
  // counts as the miss; the rest land on the free list.
  const size_t cls = ClassOf(bytes);
  const size_t chunk = (cls + 1) * kClassGranularity;
  auto slab = std::make_unique<unsigned char[]>(kSlabBytes);
  unsigned char* base = slab.get();
  slabs().push_back(std::move(slab));
  c.stats.bytes_reserved += kSlabBytes;
  const size_t count = kSlabBytes / chunk;
  for (size_t i = 1; i < count; ++i) {
    auto* node = reinterpret_cast<FreeNode*>(base + i * chunk);
    node->next = c.free_lists[cls];
    c.free_lists[cls] = node;
  }
  ++c.stats.pool_misses;
  return base;
}

}  // namespace ring::sim
