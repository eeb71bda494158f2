#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/gf/gf256.h"
#include "src/rs/rs_code.h"

namespace ring::rs {
namespace {

std::vector<Buffer> RandomBlocks(uint32_t k, size_t size, uint64_t seed) {
  std::vector<Buffer> blocks;
  for (uint32_t i = 0; i < k; ++i) {
    blocks.push_back(MakePatternBuffer(size, seed * 100 + i));
  }
  return blocks;
}

std::vector<ByteSpan> Spans(const std::vector<Buffer>& blocks) {
  return std::vector<ByteSpan>(blocks.begin(), blocks.end());
}

TEST(RsCodeTest, CreateRejectsBadParams) {
  EXPECT_FALSE(RsCode::Create(0, 1).ok());
  EXPECT_FALSE(RsCode::Create(200, 60).ok());
  EXPECT_TRUE(RsCode::Create(1, 0).ok());
  EXPECT_TRUE(RsCode::Create(3, 2).ok());
}

TEST(RsCodeTest, FirstParityRowIsXor) {
  // The normalized Cauchy construction makes parity 0 the XOR of the data
  // blocks — matching the paper's RS(2,1) example (Eqn. 4).
  for (auto [k, m] : std::vector<std::pair<uint32_t, uint32_t>>{
           {2, 1}, {3, 2}, {5, 4}}) {
    auto code = RsCode::Create(k, m);
    ASSERT_TRUE(code.ok());
    for (uint32_t j = 0; j < k; ++j) {
      EXPECT_EQ(code->Coefficient(0, j), 1);
    }
  }
}

TEST(RsCodeTest, GeneratorSubmatricesNonsingular) {
  auto code = RsCode::Create(4, 3);
  ASSERT_TRUE(code.ok());
  const auto& g = code->generator();
  // All 1x1.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NE(g.At(i, j), 0);
    }
  }
  // All 2x2 minors.
  for (size_t i1 = 0; i1 < 3; ++i1) {
    for (size_t i2 = i1 + 1; i2 < 3; ++i2) {
      for (size_t j1 = 0; j1 < 4; ++j1) {
        for (size_t j2 = j1 + 1; j2 < 4; ++j2) {
          const uint8_t det = gf::Add(gf::Mul(g.At(i1, j1), g.At(i2, j2)),
                                      gf::Mul(g.At(i1, j2), g.At(i2, j1)));
          EXPECT_NE(det, 0) << i1 << i2 << j1 << j2;
        }
      }
    }
  }
}

struct RsParams {
  uint32_t k;
  uint32_t m;
};

class RsRecoveryTest : public ::testing::TestWithParam<RsParams> {};

// Exhaustively verify recovery from every erasure pattern of size <= m.
TEST_P(RsRecoveryTest, AllErasurePatternsRecoverable) {
  const auto [k, m] = GetParam();
  auto code = RsCode::Create(k, m);
  ASSERT_TRUE(code.ok());
  const size_t block_size = 64;
  std::vector<Buffer> data = RandomBlocks(k, block_size, k * 10 + m);
  std::vector<Buffer> parity = code->Encode(Spans(data));
  ASSERT_EQ(parity.size(), m);

  const uint32_t n = k + m;
  // Iterate over all subsets of lost blocks with |subset| <= m.
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int lost = __builtin_popcount(mask);
    if (lost == 0 || static_cast<uint32_t>(lost) > m) {
      continue;
    }
    std::vector<std::pair<uint32_t, ByteSpan>> available;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        continue;
      }
      available.emplace_back(
          i, i < k ? ByteSpan(data[i]) : ByteSpan(parity[i - k]));
    }
    auto recovered = code->RecoverData(available);
    ASSERT_TRUE(recovered.ok()) << "mask=" << mask;
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ((*recovered)[i], data[i]) << "mask=" << mask << " block=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, RsRecoveryTest,
    ::testing::Values(RsParams{2, 1}, RsParams{3, 1}, RsParams{3, 2},
                      RsParams{4, 2}, RsParams{4, 3}, RsParams{5, 2},
                      RsParams{6, 3}, RsParams{1, 1}, RsParams{1, 3}),
    [](const ::testing::TestParamInfo<RsParams>& info) {
      return "k" + std::to_string(info.param.k) + "m" +
             std::to_string(info.param.m);
    });

TEST(RsCodeTest, TooFewBlocksFails) {
  auto code = RsCode::Create(3, 2);
  ASSERT_TRUE(code.ok());
  std::vector<Buffer> data = RandomBlocks(3, 16, 1);
  std::vector<std::pair<uint32_t, ByteSpan>> available = {
      {0, ByteSpan(data[0])}, {1, ByteSpan(data[1])}};
  auto r = code->RecoverData(available);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(RsCodeTest, MismatchedBlockSizesRejected) {
  auto code = RsCode::Create(2, 1);
  ASSERT_TRUE(code.ok());
  Buffer a(16, 1);
  Buffer b(8, 2);
  Buffer p(16, 3);
  std::vector<std::pair<uint32_t, ByteSpan>> available = {
      {0, ByteSpan(a)}, {1, ByteSpan(b)}, {2, ByteSpan(p)}};
  EXPECT_FALSE(code->RecoverData(available).ok());
}

// Delta update equivalence (paper §3.2 "Update"): updating one data block and
// applying parity deltas must equal re-encoding from scratch.
TEST(RsCodeTest, ParityDeltaUpdateMatchesReencode) {
  auto code = RsCode::Create(3, 2);
  ASSERT_TRUE(code.ok());
  const size_t block_size = 96;
  std::vector<Buffer> data = RandomBlocks(3, block_size, 21);
  std::vector<Buffer> parity = code->Encode(Spans(data));

  // Overwrite data block 1.
  Buffer updated = MakePatternBuffer(block_size, 999);
  Buffer delta(block_size);
  for (size_t i = 0; i < block_size; ++i) {
    delta[i] = data[1][i] ^ updated[i];
  }
  for (uint32_t j = 0; j < 2; ++j) {
    code->ApplyParityDelta(j, 1, delta, parity[j]);
  }
  data[1] = updated;
  std::vector<Buffer> expected = code->Encode(Spans(data));
  EXPECT_EQ(parity, expected);
}

TEST(RsCodeTest, CanRecoverRule) {
  auto code = RsCode::Create(3, 2);
  ASSERT_TRUE(code.ok());
  EXPECT_TRUE(code->CanRecover({}));
  EXPECT_TRUE(code->CanRecover({0}));
  EXPECT_TRUE(code->CanRecover({0, 4}));
  EXPECT_FALSE(code->CanRecover({0, 1, 2}));
}

TEST(RsCodeTest, EncodeEmptyBlocks) {
  auto code = RsCode::Create(2, 1);
  ASSERT_TRUE(code.ok());
  std::vector<Buffer> data(2);
  auto parity = code->Encode(Spans(data));
  ASSERT_EQ(parity.size(), 1u);
  EXPECT_TRUE(parity[0].empty());
}

// Fused encode property: EncodeInto (one pass over all k sources per parity
// block) must equal the naive per-coefficient definition
// parity[j][i] = sum_b g[j][b] * data[b][i], under every kernel tier.
TEST(RsCodeTest, FusedEncodeMatchesNaiveDefinition) {
  const gf::RegionImpl prev = gf::ActiveRegionImpl();
  for (auto [k, m] : {std::pair<uint32_t, uint32_t>{2, 1},
                      std::pair<uint32_t, uint32_t>{3, 2},
                      std::pair<uint32_t, uint32_t>{6, 3}}) {
    auto code = RsCode::Create(k, m);
    ASSERT_TRUE(code.ok());
    const size_t block = 1021;  // odd size: vector strips + scalar tail
    const auto data = RandomBlocks(k, block, k * 10 + m);
    std::vector<Buffer> naive(m, Buffer(block, 0));
    for (uint32_t j = 0; j < m; ++j) {
      for (uint32_t b = 0; b < k; ++b) {
        const uint8_t c = code->Coefficient(j, b);
        for (size_t i = 0; i < block; ++i) {
          naive[j][i] = gf::Add(naive[j][i], gf::Mul(c, data[b][i]));
        }
      }
    }
    for (gf::RegionImpl impl :
         {gf::RegionImpl::kScalar, gf::RegionImpl::kSsse3,
          gf::RegionImpl::kAvx2, gf::RegionImpl::kNeon}) {
      if (gf::SetRegionImpl(impl) != impl) {
        continue;
      }
      std::vector<Buffer> fused(m, Buffer(block, 0xCD));
      std::vector<MutableByteSpan> spans(fused.begin(), fused.end());
      code->EncodeInto(Spans(data), spans);
      for (uint32_t j = 0; j < m; ++j) {
        ASSERT_EQ(fused[j], naive[j])
            << "impl=" << gf::RegionImplName(impl) << " k=" << k
            << " m=" << m << " parity=" << j;
      }
      // Encode() must route through the same fused path.
      EXPECT_EQ(code->Encode(Spans(data)), naive);
    }
  }
  gf::SetRegionImpl(prev);
}

TEST(RsCodeTest, RecoveryIdenticalAcrossKernelTiers) {
  const gf::RegionImpl prev = gf::ActiveRegionImpl();
  auto code = RsCode::Create(4, 2);
  ASSERT_TRUE(code.ok());
  const auto data = RandomBlocks(4, 2048 + 7, 55);
  const auto parity = code->Encode(Spans(data));
  std::vector<std::pair<uint32_t, ByteSpan>> available;
  available.emplace_back(1, ByteSpan(data[1]));
  available.emplace_back(3, ByteSpan(data[3]));
  available.emplace_back(4, ByteSpan(parity[0]));
  available.emplace_back(5, ByteSpan(parity[1]));
  ASSERT_EQ(gf::SetRegionImpl(gf::RegionImpl::kScalar),
            gf::RegionImpl::kScalar);
  auto scalar = code->RecoverData(available);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ((*scalar)[0], data[0]);
  EXPECT_EQ((*scalar)[2], data[2]);
  for (gf::RegionImpl impl : {gf::RegionImpl::kSsse3, gf::RegionImpl::kAvx2,
                              gf::RegionImpl::kNeon}) {
    if (gf::SetRegionImpl(impl) != impl) {
      continue;
    }
    auto vec = code->RecoverData(available);
    ASSERT_TRUE(vec.ok());
    EXPECT_EQ(*vec, *scalar) << gf::RegionImplName(impl);
  }
  gf::SetRegionImpl(prev);
}

}  // namespace
}  // namespace ring::rs
