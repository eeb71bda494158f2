// Internal plumbing shared between the portable GF(2^8) code (gf256.cc) and
// the vectorized backends (gf256_simd.cc). Not part of the public API.
//
// Two table families feed the region kernels:
//   - mul[a][b]: the full 64 KiB product table. The scalar kernels walk one
//     256-byte row per coefficient.
//   - nib_lo/nib_hi: split-nibble tables, 16 bytes per coefficient half.
//     nib_lo[c][x] = c*x and nib_hi[c][x] = c*(x<<4), so
//     c*b == nib_lo[c][b & 0xF] ^ nib_hi[c][b >> 4]. Sixteen-entry tables fit
//     a single PSHUFB/TBL register — the GF-Complete "SPLIT w8" technique the
//     paper's implementation relies on.
#ifndef RING_SRC_GF_GF256_INTERNAL_H_
#define RING_SRC_GF_GF256_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ring::gf::internal {

struct Tables {
  // mul[a][b] = a*b. Row-major so the scalar kernels walk a single row.
  std::array<std::array<uint8_t, 256>, 256> mul;
  std::array<uint8_t, 256> log;  // log[a] for a != 0, base = generator 2
  std::array<uint8_t, 512> exp;  // exp[i] = 2^i, doubled to skip mod 255
  std::array<uint8_t, 256> inv;  // inv[a] for a != 0
  // Split-nibble product tables (16-byte aligned for vector loads).
  alignas(16) uint8_t nib_lo[256][16];
  alignas(16) uint8_t nib_hi[256][16];

  Tables();
};

const Tables& T();

// One set of region kernels. All pointers are non-null; sizes may be zero.
// src and dst must not partially overlap (identical or disjoint only).
// Coefficient fast paths (c == 0 / c == 1) are handled by the public
// wrappers in gf256.cc before the kernel is reached, but every kernel must
// still be correct for all coefficients (mul_add_multi sees c == 1 rows).
// Upper bound on sources per fused kernel call; the dispatcher splits larger
// sets. Bounds the kernels' stack-resident per-source table arrays.
inline constexpr size_t kMaxFusedSources = 32;

struct RegionKernels {
  void (*add)(const uint8_t* src, uint8_t* dst, size_t n);
  void (*mul_add)(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
  // Fused multi-source accumulate: dst ^= sum_i coeffs[i] * srcs[i], reading
  // and writing each dst cache line once regardless of the source count.
  // Precondition: 0 < nsrc <= kMaxFusedSources.
  void (*mul_add_multi)(const uint8_t* coeffs, const uint8_t* const* srcs,
                        size_t nsrc, uint8_t* dst, size_t n);
};

const RegionKernels& ScalarKernels();
// Return nullptr when the backend is not compiled in or the CPU lacks the
// feature (checked at runtime via cpuid on x86).
const RegionKernels* Ssse3Kernels();
const RegionKernels* Avx2Kernels();
const RegionKernels* NeonKernels();

}  // namespace ring::gf::internal

#endif  // RING_SRC_GF_GF256_INTERNAL_H_
