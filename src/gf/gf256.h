// GF(2^8) arithmetic for Reed-Solomon coding.
//
// This module plays the role GF-Complete plays in the paper's implementation:
// field arithmetic (primitive polynomial x^8+x^4+x^3+x^2+1, 0x11D) plus the
// region operations erasure coding spends its cycles in (XOR and
// multiply-accumulate over whole buffers).
//
// Ring's coding path needs only two region operations: XOR (a put ships
// old XOR new as a delta) and multiply-accumulate (each parity node adds
// coefficient x delta). They dispatch once at startup to the widest kernel
// the CPU supports — split-nibble PSHUFB/TBL multiply for SSSE3, AVX2 and
// NEON — with the portable scalar table-lookup code as the fallback. The
// RING_FORCE_SCALAR CMake option compiles the SIMD kernels out; tests and
// calibration switch tiers with SetRegionImpl.
#ifndef RING_SRC_GF_GF256_H_
#define RING_SRC_GF_GF256_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace ring::gf {

inline constexpr uint16_t kPrimitivePoly = 0x11D;

// Scalar operations ---------------------------------------------------------

// Addition (and subtraction) in GF(2^8) is XOR.
inline uint8_t Add(uint8_t a, uint8_t b) { return a ^ b; }

// Product of a and b in the field.
uint8_t Mul(uint8_t a, uint8_t b);

// Multiplicative inverse. Precondition: a != 0.
uint8_t Inv(uint8_t a);

// Kernel dispatch -----------------------------------------------------------

enum class RegionImpl : uint8_t { kScalar = 0, kSsse3, kAvx2, kNeon };

// The implementation the region operations currently run on. Selected once
// on first use: the widest tier compiled in and supported by the CPU.
RegionImpl ActiveRegionImpl();
const char* RegionImplName(RegionImpl impl);

// Force a specific implementation (differential tests, calibration). If the
// requested tier is unavailable on this CPU/build the active implementation
// is left unchanged. Returns the implementation now in effect. Not
// thread-safe with concurrent region calls.
RegionImpl SetRegionImpl(RegionImpl impl);

// Region operations ---------------------------------------------------------
// All spans must have equal sizes; src and dst may not alias partially (they
// may be identical or disjoint).

// dst ^= src
void AddRegion(std::span<const uint8_t> src, std::span<uint8_t> dst);

// dst ^= c * src   (the inner loop of RS encode/decode/delta-update)
void MulAddRegion(uint8_t c, std::span<const uint8_t> src,
                  std::span<uint8_t> dst);

// Fused multi-source accumulate: dst ^= sum_i coeffs[i] * srcs[i], where
// every srcs[i] points at a region of dst.size() bytes. Zero coefficients
// are skipped. Unlike a loop of MulAddRegion calls (which sweeps dst once
// per source), the fused kernel streams all sources per cache-resident dst
// block, touching each dst byte once — the shape of RS stripe encode.
// No srcs[i] may partially overlap dst.
void MulAddRegionMulti(std::span<const uint8_t> coeffs,
                       std::span<const uint8_t* const> srcs,
                       std::span<uint8_t> dst);

// Fused encode: dst = sum_i coeffs[i] * srcs[i] (dst is zero-filled first).
void EncodeRegion(std::span<const uint8_t> coeffs,
                  std::span<const uint8_t* const> srcs,
                  std::span<uint8_t> dst);

}  // namespace ring::gf

#endif  // RING_SRC_GF_GF256_H_
