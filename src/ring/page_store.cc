#include "src/ring/page_store.h"

#include <algorithm>
#include <bit>

namespace ring {
namespace {

// The first page's capacity while the space holds `size` bytes: the power
// of two a doubling vector reaches, capped at one page.
uint64_t FirstCapacity(uint64_t size) {
  return size == 0 ? 0 : std::min(PageStore::kPageBytes, std::bit_ceil(size));
}

}  // namespace

void PageStore::Grow(uint64_t size) {
  if (size <= size_) {
    return;
  }
  const uint64_t old = size_;
  const uint64_t capacity = FirstCapacity(size);
  if (capacity > FirstCapacity(old)) {
    Page first = std::make_unique_for_overwrite<uint8_t[]>(capacity);
    if (old > 0) {
      std::copy_n(first_.get(), old, first.get());
    }
    first_ = std::move(first);
  }
  const uint64_t pages = (size + kPageBytes - 1) / kPageBytes;
  if (pages > 1 && later_ == nullptr) {
    later_ = std::make_unique<std::vector<Page>>();
  }
  while (pages > 1 && later_->size() < pages - 1) {
    later_->push_back(std::make_unique_for_overwrite<uint8_t[]>(kPageBytes));
  }
  size_ = size;
  ForEachSpan(old, size - old, [](MutableByteSpan span, uint64_t) {
    std::fill(span.begin(), span.end(), 0);
  });
}

void PageStore::Zero() {
  ForEachSpan(0, size_, [](MutableByteSpan span, uint64_t) {
    std::fill(span.begin(), span.end(), 0);
  });
}

void PageStore::Write(uint64_t addr, ByteSpan bytes) {
  Grow(addr + bytes.size());
  ForEachSpan(addr, bytes.size(), [bytes](MutableByteSpan span, uint64_t at) {
    std::copy_n(bytes.data() + at, span.size(), span.data());
  });
}

void PageStore::AppendTo(uint64_t addr, uint64_t len, Buffer& out) const {
  out.reserve(out.size() + len);
  ForEachSpan(addr, len, [&out](ByteSpan span, uint64_t) {
    out.insert(out.end(), span.begin(), span.end());
  });
}

void PageStore::CopyOut(uint64_t addr, MutableByteSpan out) const {
  if (addr >= size_) {
    return;
  }
  const uint64_t len = std::min<uint64_t>(out.size(), size_ - addr);
  ForEachSpan(addr, len, [out](ByteSpan span, uint64_t at) {
    std::copy(span.begin(), span.end(), out.begin() + at);
  });
}

}  // namespace ring
