// PageStore: the byte address space behind a shard store's heap and a
// parity node's strip (paper §4-§5: one address space per shard, with the
// SRS parity strip laid over those addresses).
//
// The bytes [0, size()) read zero until written. The first kPageBytes of
// them sit in one allocation that grows geometrically, as a doubling vector
// would, so the many small stores of a large cluster stay small. Every
// later byte lives in a fixed kPageBytes page of its own. Growth therefore
// copies at most the first page and zero-fills only the newly exposed
// range: a growth that copied all bytes held so far would keep both copies
// resident at once, on heaps of tens of MiB (DESIGN.md §20).
//
// A range may straddle pages, so every access visits it one page span at
// a time: ForEachSpan, or the Write/AppendTo/CopyOut copies built on it.
#ifndef RING_SRC_RING_PAGE_STORE_H_
#define RING_SRC_RING_PAGE_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"

namespace ring {

class PageStore {
 public:
  // The size of every page after the first, and the first page's largest
  // capacity. DESIGN.md §20.3 has the measurements behind 1 MiB: with
  // 64 KiB pages, the pages a restart frees stayed resident and raised
  // crash_recover's peak RSS.
  static constexpr uint64_t kPageBytes = uint64_t{1} << 20;

  uint64_t size() const { return size_; }
  // Extends the space to `size` bytes; the new bytes read zero. Nothing
  // happens when the space is already that large.
  void Grow(uint64_t size);
  // Sets every byte of the space to zero.
  void Zero();
  // Copies `bytes` to [addr, addr + bytes.size()), growing the space to
  // cover the range.
  void Write(uint64_t addr, ByteSpan bytes);
  // Appends the bytes [addr, addr + len), which lie inside the space, to
  // `out`.
  void AppendTo(uint64_t addr, uint64_t len, Buffer& out) const;
  // Copies the part of [addr, addr + out.size()) that lies inside the
  // space to the front of `out`; the rest of `out` keeps its bytes.
  void CopyOut(uint64_t addr, MutableByteSpan out) const;

  // Calls fn(span, at) for each page span of [addr, addr + len), which lies
  // inside the space, in address order: `span` covers the bytes from
  // addr + at on, all within one page.
  template <typename Fn>
  void ForEachSpan(uint64_t addr, uint64_t len, Fn&& fn) {
    Visit<MutableByteSpan>(addr, len, fn);
  }
  template <typename Fn>
  void ForEachSpan(uint64_t addr, uint64_t len, Fn&& fn) const {
    Visit<ByteSpan>(addr, len, fn);
  }

 private:
  using Page = std::unique_ptr<uint8_t[]>;

  // Start of page `index`; pages past the first come from `later_`.
  uint8_t* PageAt(uint64_t index) const {
    return index == 0 ? first_.get() : (*later_)[index - 1].get();
  }
  template <typename Span, typename Fn>
  void Visit(uint64_t addr, uint64_t len, Fn& fn) const {
    assert(addr + len <= size_);
    for (uint64_t at = 0; at < len;) {
      const uint64_t offset = (addr + at) % kPageBytes;
      const uint64_t n = std::min(len - at, kPageBytes - offset);
      fn(Span(PageAt((addr + at) / kPageBytes) + offset, n), at);
      at += n;
    }
  }

  // Three words, as a vector's: a get_100node server holds about 300
  // stores. The first page's capacity follows from size_ (FirstCapacity in
  // page_store.cc), and later_ stays null until the space passes one page.
  Page first_;
  uint64_t size_ = 0;
  std::unique_ptr<std::vector<Page>> later_;
};

}  // namespace ring

#endif  // RING_SRC_RING_PAGE_STORE_H_
