#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/gf/gf256.h"

namespace ring::gf {
namespace {

TEST(Gf256Test, AdditionIsXor) {
  EXPECT_EQ(Add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(Add(0xFF, 0xFF), 0);
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(Mul(1, static_cast<uint8_t>(a)), a);
    EXPECT_EQ(Mul(static_cast<uint8_t>(a), 0), 0);
    EXPECT_EQ(Mul(0, static_cast<uint8_t>(a)), 0);
  }
}

TEST(Gf256Test, KnownProducts) {
  // Spot values for the 0x11D polynomial (AES uses 0x11B; these differ).
  EXPECT_EQ(Mul(2, 128), 29);   // x * x^7 = x^8 = 0x11D - 0x100
  EXPECT_EQ(Mul(4, 128), 58);
  EXPECT_EQ(Mul(3, 3), 5);      // (x+1)^2 = x^2+1
}

TEST(Gf256Test, MulCommutative) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 5) {
      EXPECT_EQ(Mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                Mul(static_cast<uint8_t>(b), static_cast<uint8_t>(a)));
    }
  }
}

TEST(Gf256Test, MulAssociativeSampled) {
  ring::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU64());
    const uint8_t b = static_cast<uint8_t>(rng.NextU64());
    const uint8_t c = static_cast<uint8_t>(rng.NextU64());
    EXPECT_EQ(Mul(Mul(a, b), c), Mul(a, Mul(b, c)));
  }
}

TEST(Gf256Test, DistributiveSampled) {
  ring::Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU64());
    const uint8_t b = static_cast<uint8_t>(rng.NextU64());
    const uint8_t c = static_cast<uint8_t>(rng.NextU64());
    EXPECT_EQ(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t inv = Inv(static_cast<uint8_t>(a));
    EXPECT_EQ(Mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256Test, MultiplicativeOrderDivides255) {
  // The multiplicative group has order 255; a^255 == 1 for all a != 0.
  for (int a = 1; a < 256; ++a) {
    uint8_t acc = 1;
    for (int e = 0; e < 255; ++e) {
      acc = Mul(acc, static_cast<uint8_t>(a));
    }
    EXPECT_EQ(acc, 1) << "a=" << a;
  }
}

class RegionOpTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RegionOpTest, AddRegionMatchesScalar) {
  const size_t n = GetParam();
  Buffer src = MakePatternBuffer(n, 1);
  Buffer dst = MakePatternBuffer(n, 2);
  Buffer expected = dst;
  for (size_t i = 0; i < n; ++i) {
    expected[i] = Add(expected[i], src[i]);
  }
  AddRegion(src, dst);
  EXPECT_EQ(dst, expected);
}

TEST_P(RegionOpTest, MulAddRegionMatchesScalar) {
  const size_t n = GetParam();
  Buffer src = MakePatternBuffer(n, 4);
  for (uint8_t c : {0, 1, 2, 91, 255}) {
    Buffer dst = MakePatternBuffer(n, 5);
    Buffer expected = dst;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = Add(expected[i], Mul(c, src[i]));
    }
    MulAddRegion(c, src, dst);
    ASSERT_EQ(dst, expected) << "c=" << int(c);
  }
}

TEST_P(RegionOpTest, AddRegionSelfIsZero) {
  const size_t n = GetParam();
  Buffer a = MakePatternBuffer(n, 6);
  Buffer dst = a;
  AddRegion(a, dst);
  EXPECT_EQ(dst, Buffer(n, 0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RegionOpTest,
                         ::testing::Values(0, 1, 7, 8, 9, 63, 64, 65, 1024,
                                           4096));

// Dispatch differential tests ------------------------------------------------
// Every compiled-in kernel tier must produce byte-identical output to the
// scalar reference over randomized lengths (sub-vector tails), unaligned
// offsets, coefficients (including the 0/1 fast paths), and aliasing.

std::vector<RegionImpl> AvailableImpls() {
  const RegionImpl prev = ActiveRegionImpl();
  std::vector<RegionImpl> out;
  for (RegionImpl impl : {RegionImpl::kScalar, RegionImpl::kSsse3,
                          RegionImpl::kAvx2, RegionImpl::kNeon}) {
    if (SetRegionImpl(impl) == impl) {
      out.push_back(impl);
    }
  }
  SetRegionImpl(prev);
  return out;
}

// Restores the auto-selected implementation when a test exits.
class ScopedRegionImpl {
 public:
  explicit ScopedRegionImpl(RegionImpl impl) : prev_(ActiveRegionImpl()) {
    SetRegionImpl(impl);
  }
  ~ScopedRegionImpl() { SetRegionImpl(prev_); }

 private:
  RegionImpl prev_;
};

TEST(GfDispatchTest, ReportsActiveImpl) {
  const RegionImpl impl = ActiveRegionImpl();
  EXPECT_STRNE(RegionImplName(impl), "unknown");
  // Forcing the active impl is a no-op that reports itself.
  EXPECT_EQ(SetRegionImpl(impl), impl);
}

TEST(GfDispatchTest, RegionOpsMatchScalarOverRandomizedInputs) {
  ring::Rng rng(1234);
  for (RegionImpl impl : AvailableImpls()) {
    ScopedRegionImpl scoped(impl);
    for (int iter = 0; iter < 400; ++iter) {
      // Lengths cross the 16/32/64-byte vector strips; offsets make both
      // spans unaligned relative to the allocation.
      const size_t len = static_cast<size_t>(rng.NextU64() % 300);
      const size_t src_off = static_cast<size_t>(rng.NextU64() % 16);
      const size_t dst_off = static_cast<size_t>(rng.NextU64() % 16);
      const uint8_t c = static_cast<uint8_t>(rng.NextU64());
      Buffer src_buf = MakePatternBuffer(src_off + len, iter);
      Buffer dst_buf = MakePatternBuffer(dst_off + len, iter + 1000);
      ByteSpan src(src_buf.data() + src_off, len);

      Buffer mad_expected(len);
      Buffer add_expected(len);
      for (size_t i = 0; i < len; ++i) {
        const uint8_t d = dst_buf[dst_off + i];
        mad_expected[i] = Add(d, Mul(c, src[i]));
        add_expected[i] = Add(d, src[i]);
      }

      Buffer work = dst_buf;
      AddRegion(src, MutableByteSpan(work.data() + dst_off, len));
      ASSERT_EQ(Buffer(work.begin() + dst_off, work.end()), add_expected)
          << RegionImplName(impl) << " AddRegion len=" << len;


      work = dst_buf;
      MulAddRegion(c, src, MutableByteSpan(work.data() + dst_off, len));
      ASSERT_EQ(Buffer(work.begin() + dst_off, work.end()), mad_expected)
          << RegionImplName(impl) << " MulAddRegion c=" << int(c)
          << " len=" << len;
    }
  }
}

TEST(GfDispatchTest, LargeRegionsMatchScalar) {
  // One multi-KiB case per impl so the vector main loop (not just tails)
  // is exercised against the scalar reference.
  const size_t n = 65536 + 13;
  Buffer src = MakePatternBuffer(n, 21);
  Buffer dst = MakePatternBuffer(n, 22);
  Buffer expected(n);
  const uint8_t c = 0xB7;
  for (size_t i = 0; i < n; ++i) {
    expected[i] = Add(dst[i], Mul(c, src[i]));
  }
  for (RegionImpl impl : AvailableImpls()) {
    ScopedRegionImpl scoped(impl);
    Buffer work = dst;
    MulAddRegion(c, src, work);
    ASSERT_EQ(work, expected) << RegionImplName(impl);
  }
}

TEST(GfDispatchTest, AliasedSrcDstMatchesScalar) {
  for (RegionImpl impl : AvailableImpls()) {
    ScopedRegionImpl scoped(impl);
    for (uint8_t c : {0, 1, 2, 91, 255}) {
      Buffer buf = MakePatternBuffer(777, 31);
      Buffer mad_expected(buf.size());
      for (size_t i = 0; i < buf.size(); ++i) {
        mad_expected[i] = Add(buf[i], Mul(c, buf[i]));
      }
      Buffer work = buf;
      MulAddRegion(c, work, work);
      ASSERT_EQ(work, mad_expected)
          << RegionImplName(impl) << " c=" << int(c);
    }
  }
}

TEST(GfDispatchTest, FusedMultiMatchesSequentialMulAdd) {
  ring::Rng rng(777);
  for (RegionImpl impl : AvailableImpls()) {
    ScopedRegionImpl scoped(impl);
    for (int iter = 0; iter < 60; ++iter) {
      const size_t len = static_cast<size_t>(rng.NextU64() % 500);
      const size_t nsrc = static_cast<size_t>(rng.NextU64() % 8);
      std::vector<Buffer> sources;
      std::vector<const uint8_t*> srcs;
      std::vector<uint8_t> coeffs;
      for (size_t s = 0; s < nsrc; ++s) {
        sources.push_back(MakePatternBuffer(len, iter * 100 + s));
        // Bias toward the special coefficients 0 and 1.
        const uint64_t r = rng.NextU64();
        coeffs.push_back(r % 4 == 0 ? static_cast<uint8_t>(r % 2)
                                    : static_cast<uint8_t>(r));
      }
      for (const auto& b : sources) {
        srcs.push_back(b.data());
      }
      Buffer dst = MakePatternBuffer(len, iter + 5000);
      Buffer expected = dst;
      for (size_t s = 0; s < nsrc; ++s) {
        for (size_t i = 0; i < len; ++i) {
          expected[i] = Add(expected[i], Mul(coeffs[s], sources[s][i]));
        }
      }
      MulAddRegionMulti(coeffs, std::span<const uint8_t* const>(srcs), dst);
      ASSERT_EQ(dst, expected)
          << RegionImplName(impl) << " nsrc=" << nsrc << " len=" << len;

      Buffer enc(len, 0xEE);
      if (!sources.empty()) {
        gf::EncodeRegion(coeffs, std::span<const uint8_t* const>(srcs), enc);
        Buffer enc_expected(len, 0);
        for (size_t s = 0; s < nsrc; ++s) {
          for (size_t i = 0; i < len; ++i) {
            enc_expected[i] =
                Add(enc_expected[i], Mul(coeffs[s], sources[s][i]));
          }
        }
        ASSERT_EQ(enc, enc_expected) << RegionImplName(impl);
      }
    }
  }
}

}  // namespace
}  // namespace ring::gf
