// Vectorized GF(2^8) region kernels: split-nibble table multiply
// (PSHUFB / TBL) for SSSE3, AVX2 and NEON.
//
// Each coefficient c owns two 16-entry tables (gf256_internal.h):
//   c*b == nib_lo[c][b & 0xF] ^ nib_hi[c][b >> 4]
// so a 16/32-byte multiply is two byte shuffles and an XOR — the scheme
// GF-Complete's SPLIT w8 region ops (and ISA-L's gf_vect_mul) use, which is
// what the paper's testbed ran. The x86 kernels are compiled with per-
// function target attributes so the rest of the tree keeps its portable
// flags; selection happens once at runtime via cpuid (see gf256.cc).
//
// The *_multi kernels fuse stripe encode: for each register-resident block
// of dst they stream all sources, so dst traffic is paid once instead of
// once per source.
#include "src/gf/gf256_internal.h"

#if defined(RING_GF_FORCE_SCALAR)

namespace ring::gf::internal {
const RegionKernels* Ssse3Kernels() { return nullptr; }
const RegionKernels* Avx2Kernels() { return nullptr; }
const RegionKernels* NeonKernels() { return nullptr; }
}  // namespace ring::gf::internal

#elif defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ring::gf::internal {
namespace {

// Scalar tail for the last n % 16 bytes of every kernel.
inline void TailMulAdd(uint8_t c, const uint8_t* src, uint8_t* dst,
                       size_t n) {
  const auto& row = T().mul[c];
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= row[src[i]];
  }
}

// --- SSSE3 ------------------------------------------------------------------

__attribute__((target("ssse3"))) inline __m128i Mul16(__m128i s, __m128i lo,
                                                      __m128i hi,
                                                      __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void Ssse3Add(const uint8_t* src,
                                               uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(a, b));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

__attribute__((target("ssse3"))) void Ssse3MulAdd(uint8_t c,
                                                  const uint8_t* src,
                                                  uint8_t* dst, size_t n) {
  const __m128i lo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(T().nib_lo[c]));
  const __m128i hi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(T().nib_hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, Mul16(s, lo, hi, mask)));
  }
  TailMulAdd(c, src + i, dst + i, n - i);
}

__attribute__((target("ssse3"))) void Ssse3MulAddMulti(
    const uint8_t* coeffs, const uint8_t* const* srcs, size_t nsrc,
    uint8_t* dst, size_t n) {
  // Per-source tables staged once into stack registers; inside the strip
  // loop they are L1-resident reloads, not table-walk calls.
  __m128i lo[kMaxFusedSources];
  __m128i hi[kMaxFusedSources];
  const Tables& t = T();
  for (size_t s = 0; s < nsrc; ++s) {
    lo[s] = _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[coeffs[s]]));
    hi[s] = _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[coeffs[s]]));
  }
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m128i acc0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    __m128i acc1 = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i + 16));
    for (size_t s = 0; s < nsrc; ++s) {
      const __m128i s0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[s] + i));
      const __m128i s1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[s] + i + 16));
      acc0 = _mm_xor_si128(acc0, Mul16(s0, lo[s], hi[s], mask));
      acc1 = _mm_xor_si128(acc1, Mul16(s1, lo[s], hi[s], mask));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), acc1);
  }
  for (size_t s = 0; s < nsrc; ++s) {
    Ssse3MulAdd(coeffs[s], srcs[s] + i, dst + i, n - i);
  }
}

// --- AVX2 -------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Mul32(__m256i s, __m256i lo,
                                                     __m256i hi,
                                                     __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) inline __m256i Broadcast16(
    const uint8_t* table) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(table)));
}

__attribute__((target("avx2"))) void Avx2Add(const uint8_t* src, uint8_t* dst,
                                             size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

__attribute__((target("avx2"))) void Avx2MulAdd(uint8_t c, const uint8_t* src,
                                                uint8_t* dst, size_t n) {
  const __m256i lo = Broadcast16(T().nib_lo[c]);
  const __m256i hi = Broadcast16(T().nib_hi[c]);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, Mul32(s, lo, hi, mask)));
  }
  TailMulAdd(c, src + i, dst + i, n - i);
}

// Fixed-width variant for the common small k: with N a compile-time
// constant the source loop unrolls and the 2*N nibble tables stay pinned in
// ymm registers across the whole strip loop.
template <size_t N>
__attribute__((target("avx2"))) void Avx2MulAddMultiN(
    const uint8_t* coeffs, const uint8_t* const* srcs, uint8_t* dst,
    size_t n) {
  __m256i lo[N];
  __m256i hi[N];
  const Tables& t = T();
  for (size_t s = 0; s < N; ++s) {
    lo[s] = Broadcast16(t.nib_lo[coeffs[s]]);
    hi[s] = Broadcast16(t.nib_hi[coeffs[s]]);
  }
  const __m256i mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    __m256i acc1 =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i + 32));
    for (size_t s = 0; s < N; ++s) {
      const __m256i s0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[s] + i));
      const __m256i s1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(srcs[s] + i + 32));
      acc0 = _mm256_xor_si256(acc0, Mul32(s0, lo[s], hi[s], mask));
      acc1 = _mm256_xor_si256(acc1, Mul32(s1, lo[s], hi[s], mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
  }
  for (size_t s = 0; s < N; ++s) {
    Avx2MulAdd(coeffs[s], srcs[s] + i, dst + i, n - i);
  }
}

__attribute__((target("avx2"))) void Avx2MulAddMulti(const uint8_t* coeffs,
                                                     const uint8_t* const* srcs,
                                                     size_t nsrc, uint8_t* dst,
                                                     size_t n) {
  switch (nsrc) {
    case 2:
      return Avx2MulAddMultiN<2>(coeffs, srcs, dst, n);
    case 3:
      return Avx2MulAddMultiN<3>(coeffs, srcs, dst, n);
    case 4:
      return Avx2MulAddMultiN<4>(coeffs, srcs, dst, n);
    case 5:
      return Avx2MulAddMultiN<5>(coeffs, srcs, dst, n);
    case 6:
      return Avx2MulAddMultiN<6>(coeffs, srcs, dst, n);
    default:
      break;
  }
  __m256i lo[kMaxFusedSources];
  __m256i hi[kMaxFusedSources];
  const Tables& t = T();
  for (size_t s = 0; s < nsrc; ++s) {
    lo[s] = Broadcast16(t.nib_lo[coeffs[s]]);
    hi[s] = Broadcast16(t.nib_hi[coeffs[s]]);
  }
  const __m256i mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    __m256i acc1 =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i + 32));
    for (size_t s = 0; s < nsrc; ++s) {
      const __m256i s0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[s] + i));
      const __m256i s1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(srcs[s] + i + 32));
      acc0 = _mm256_xor_si256(acc0, Mul32(s0, lo[s], hi[s], mask));
      acc1 = _mm256_xor_si256(acc1, Mul32(s1, lo[s], hi[s], mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
  }
  for (size_t s = 0; s < nsrc; ++s) {
    Avx2MulAdd(coeffs[s], srcs[s] + i, dst + i, n - i);
  }
}

constexpr RegionKernels kSsse3{Ssse3Add, Ssse3MulAdd, Ssse3MulAddMulti};
constexpr RegionKernels kAvx2{Avx2Add, Avx2MulAdd, Avx2MulAddMulti};

}  // namespace

const RegionKernels* Ssse3Kernels() {
  return __builtin_cpu_supports("ssse3") ? &kSsse3 : nullptr;
}

const RegionKernels* Avx2Kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

const RegionKernels* NeonKernels() { return nullptr; }

}  // namespace ring::gf::internal

#elif defined(__aarch64__)

#include <arm_neon.h>

namespace ring::gf::internal {
namespace {

// NEON is baseline on AArch64; no runtime feature check needed.

inline void TailMulAdd(uint8_t c, const uint8_t* src, uint8_t* dst,
                       size_t n) {
  const auto& row = T().mul[c];
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= row[src[i]];
  }
}

inline uint8x16_t Mul16(uint8x16_t s, uint8x16_t lo, uint8x16_t hi,
                        uint8x16_t mask) {
  const uint8x16_t l = vqtbl1q_u8(lo, vandq_u8(s, mask));
  const uint8x16_t h = vqtbl1q_u8(hi, vshrq_n_u8(s, 4));
  return veorq_u8(l, h);
}

void NeonAdd(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(src + i), vld1q_u8(dst + i)));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void NeonMulAdd(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  const uint8x16_t lo = vld1q_u8(T().nib_lo[c]);
  const uint8x16_t hi = vld1q_u8(T().nib_hi[c]);
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               Mul16(vld1q_u8(src + i), lo, hi, mask)));
  }
  TailMulAdd(c, src + i, dst + i, n - i);
}

void NeonMulAddMulti(const uint8_t* coeffs, const uint8_t* const* srcs,
                     size_t nsrc, uint8_t* dst, size_t n) {
  uint8x16_t lo[kMaxFusedSources];
  uint8x16_t hi[kMaxFusedSources];
  const Tables& t = T();
  for (size_t s = 0; s < nsrc; ++s) {
    lo[s] = vld1q_u8(t.nib_lo[coeffs[s]]);
    hi[s] = vld1q_u8(t.nib_hi[coeffs[s]]);
  }
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint8x16_t acc0 = vld1q_u8(dst + i);
    uint8x16_t acc1 = vld1q_u8(dst + i + 16);
    for (size_t s = 0; s < nsrc; ++s) {
      acc0 = veorq_u8(acc0, Mul16(vld1q_u8(srcs[s] + i), lo[s], hi[s], mask));
      acc1 = veorq_u8(acc1,
                      Mul16(vld1q_u8(srcs[s] + i + 16), lo[s], hi[s], mask));
    }
    vst1q_u8(dst + i, acc0);
    vst1q_u8(dst + i + 16, acc1);
  }
  for (size_t s = 0; s < nsrc; ++s) {
    NeonMulAdd(coeffs[s], srcs[s] + i, dst + i, n - i);
  }
}

constexpr RegionKernels kNeon{NeonAdd, NeonMulAdd, NeonMulAddMulti};

}  // namespace

const RegionKernels* Ssse3Kernels() { return nullptr; }
const RegionKernels* Avx2Kernels() { return nullptr; }
const RegionKernels* NeonKernels() { return &kNeon; }

}  // namespace ring::gf::internal

#else  // unknown architecture: scalar only

namespace ring::gf::internal {
const RegionKernels* Ssse3Kernels() { return nullptr; }
const RegionKernels* Avx2Kernels() { return nullptr; }
const RegionKernels* NeonKernels() { return nullptr; }
}  // namespace ring::gf::internal

#endif
