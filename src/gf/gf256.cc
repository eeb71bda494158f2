#include "src/gf/gf256.h"

#include <cassert>
#include <cstring>

#include "src/gf/gf256_internal.h"

namespace ring::gf {

namespace internal {

Tables::Tables() {
  // Build exp/log from the generator alpha = 2.
  uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[i] = static_cast<uint8_t>(x);
    log[x] = static_cast<uint8_t>(i);
    x <<= 1;
    if (x & 0x100) {
      x ^= kPrimitivePoly;
    }
  }
  for (int i = 255; i < 512; ++i) {
    exp[i] = exp[i - 255];
  }
  log[0] = 0;  // undefined; never read on valid paths

  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        mul[a][b] = 0;
      } else {
        mul[a][b] = exp[log[a] + log[b]];
      }
    }
  }
  inv[0] = 0;  // undefined
  for (int a = 1; a < 256; ++a) {
    inv[a] = exp[255 - log[a]];
  }
  for (int c = 0; c < 256; ++c) {
    for (int n = 0; n < 16; ++n) {
      nib_lo[c][n] = mul[c][n];
      nib_hi[c][n] = mul[c][n << 4];
    }
  }
}

const Tables& T() {
  static const Tables tables;
  return tables;
}

namespace {

// --- Portable scalar kernels ------------------------------------------------

void ScalarAdd(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  // Word-at-a-time XOR; memcpy-based to stay strict-aliasing clean.
  for (; i + 8 <= n; i += 8) {
    uint64_t a;
    uint64_t b;
    __builtin_memcpy(&a, src + i, 8);
    __builtin_memcpy(&b, dst + i, 8);
    b ^= a;
    __builtin_memcpy(dst + i, &b, 8);
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void ScalarMulAdd(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  const auto& row = T().mul[c];
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= row[src[i]];
  }
}

// Cache-blocked multi-source accumulate: the dst block stays L1-resident
// while every source streams through it once.
constexpr size_t kScalarFuseBlock = 4096;

void ScalarMulAddMulti(const uint8_t* coeffs, const uint8_t* const* srcs,
                       size_t nsrc, uint8_t* dst, size_t n) {
  for (size_t off = 0; off < n; off += kScalarFuseBlock) {
    const size_t len = n - off < kScalarFuseBlock ? n - off : kScalarFuseBlock;
    for (size_t s = 0; s < nsrc; ++s) {
      if (coeffs[s] == 1) {
        ScalarAdd(srcs[s] + off, dst + off, len);
      } else {
        ScalarMulAdd(coeffs[s], srcs[s] + off, dst + off, len);
      }
    }
  }
}

constexpr RegionKernels kScalar{ScalarAdd, ScalarMulAdd, ScalarMulAddMulti};

// --- Dispatch ---------------------------------------------------------------

struct Dispatch {
  const RegionKernels* kernels;
  RegionImpl impl;
};

Dispatch Select() {
  if (const RegionKernels* k = Avx2Kernels()) {
    return {k, RegionImpl::kAvx2};
  }
  if (const RegionKernels* k = NeonKernels()) {
    return {k, RegionImpl::kNeon};
  }
  if (const RegionKernels* k = Ssse3Kernels()) {
    return {k, RegionImpl::kSsse3};
  }
  return {&kScalar, RegionImpl::kScalar};
}

Dispatch& Active() {
  static Dispatch dispatch = Select();
  return dispatch;
}

}  // namespace

const RegionKernels& ScalarKernels() { return kScalar; }

}  // namespace internal

uint8_t Mul(uint8_t a, uint8_t b) { return internal::T().mul[a][b]; }

uint8_t Inv(uint8_t a) {
  assert(a != 0 && "inverse of zero in GF(2^8)");
  return internal::T().inv[a];
}

RegionImpl ActiveRegionImpl() { return internal::Active().impl; }

const char* RegionImplName(RegionImpl impl) {
  switch (impl) {
    case RegionImpl::kScalar:
      return "scalar";
    case RegionImpl::kSsse3:
      return "ssse3";
    case RegionImpl::kAvx2:
      return "avx2";
    case RegionImpl::kNeon:
      return "neon";
  }
  return "unknown";
}

RegionImpl SetRegionImpl(RegionImpl impl) {
  const internal::RegionKernels* k = nullptr;
  switch (impl) {
    case RegionImpl::kScalar:
      k = &internal::ScalarKernels();
      break;
    case RegionImpl::kSsse3:
      k = internal::Ssse3Kernels();
      break;
    case RegionImpl::kAvx2:
      k = internal::Avx2Kernels();
      break;
    case RegionImpl::kNeon:
      k = internal::NeonKernels();
      break;
  }
  if (k != nullptr) {
    internal::Active() = {k, impl};
  }
  return internal::Active().impl;
}

void AddRegion(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  assert(src.size() == dst.size());
  internal::Active().kernels->add(src.data(), dst.data(), dst.size());
}

void MulAddRegion(uint8_t c, std::span<const uint8_t> src,
                  std::span<uint8_t> dst) {
  assert(src.size() == dst.size());
  if (c == 0) {
    return;
  }
  const internal::RegionKernels* k = internal::Active().kernels;
  if (c == 1) {
    k->add(src.data(), dst.data(), dst.size());
    return;
  }
  k->mul_add(c, src.data(), dst.data(), dst.size());
}

void MulAddRegionMulti(std::span<const uint8_t> coeffs,
                       std::span<const uint8_t* const> srcs,
                       std::span<uint8_t> dst) {
  assert(coeffs.size() == srcs.size());
  if (dst.empty()) {
    return;
  }
  // Drop zero coefficients up front so the kernels never pay for them.
  // Batched to the kernels' fuse width (any realistic stripe fits one
  // batch); each extra batch costs one more read-modify-write pass of dst.
  constexpr size_t kBatch = internal::kMaxFusedSources;
  uint8_t live_c[kBatch];
  const uint8_t* live_s[kBatch];
  size_t i = 0;
  while (i < coeffs.size()) {
    size_t live = 0;
    for (; i < coeffs.size() && live < kBatch; ++i) {
      if (coeffs[i] != 0) {
        live_c[live] = coeffs[i];
        live_s[live] = srcs[i];
        ++live;
      }
    }
    if (live == 1) {
      MulAddRegion(live_c[0], {live_s[0], dst.size()}, dst);
    } else if (live > 1) {
      internal::Active().kernels->mul_add_multi(live_c, live_s, live,
                                                dst.data(), dst.size());
    }
  }
}

void EncodeRegion(std::span<const uint8_t> coeffs,
                  std::span<const uint8_t* const> srcs,
                  std::span<uint8_t> dst) {
  if (dst.empty()) {
    return;
  }
  std::memset(dst.data(), 0, dst.size());
  MulAddRegionMulti(coeffs, srcs, dst);
}

}  // namespace ring::gf
