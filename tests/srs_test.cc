#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/gf/gf256.h"
#include "src/srs/address_map.h"
#include "src/srs/srs_code.h"

namespace ring::srs {
namespace {

TEST(SrsCodeTest, CreateValidation) {
  EXPECT_FALSE(SrsCode::Create(3, 1, 2).ok());  // s < k
  EXPECT_FALSE(SrsCode::Create(0, 1, 3).ok());
  EXPECT_TRUE(SrsCode::Create(2, 1, 3).ok());
  EXPECT_TRUE(SrsCode::Create(3, 0, 3).ok());  // no parity (unreliable EC)
}

TEST(SrsCodeTest, GeometryOfPaperExample) {
  // SRS(2,1,3) from paper §3.3: l = lcm(2,3) = 6, 2 chunks per data node,
  // 3 chunks per parity node, 3 mini-stripes.
  auto code = SrsCode::Create(2, 1, 3);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code->l(), 6u);
  EXPECT_EQ(code->chunks_per_data_node(), 2u);
  EXPECT_EQ(code->chunks_per_parity_node(), 3u);
  EXPECT_EQ(code->chunks_per_parity_node(), 3u);
  // Node assignment D1..D6 -> nodes {0,0,1,1,2,2} (figure 1b).
  EXPECT_EQ(code->DataNodeOfChunk(0), 0u);
  EXPECT_EQ(code->DataNodeOfChunk(1), 0u);
  EXPECT_EQ(code->DataNodeOfChunk(2), 1u);
  EXPECT_EQ(code->DataNodeOfChunk(3), 1u);
  EXPECT_EQ(code->DataNodeOfChunk(4), 2u);
  EXPECT_EQ(code->DataNodeOfChunk(5), 2u);
}

TEST(SrsCodeTest, PaperEquation4ParityStructure) {
  // Eqn. 4: P1 = D1 + D4, P2 = D2 + D5, P3 = D3 + D6 (1-indexed).
  auto code = SrsCode::Create(2, 1, 3);
  ASSERT_TRUE(code.ok());
  const Buffer obj = MakePatternBuffer(6 * 8, 42);  // 6 chunks of 8 bytes
  auto enc = code->EncodeObject(obj);
  ASSERT_EQ(enc.chunk_size, 8u);
  ASSERT_EQ(enc.parity_nodes.size(), 1u);
  ASSERT_EQ(enc.parity_nodes[0].size(), 3 * 8u);
  for (uint32_t t = 0; t < 3; ++t) {
    for (size_t b = 0; b < 8; ++b) {
      const uint8_t expected = obj[t * 8 + b] ^ obj[(3 + t) * 8 + b];
      EXPECT_EQ(enc.parity_nodes[0][t * 8 + b], expected) << t << " " << b;
    }
  }
}

TEST(SrsCodeTest, ExpandedMatrixMatchesEquation5Shape) {
  auto code = SrsCode::Create(2, 1, 3);
  ASSERT_TRUE(code.ok());
  gf::Matrix h = code->ExpandedMatrix();
  ASSERT_EQ(h.rows(), 9u);  // l + l*m/k = 6 + 3
  ASSERT_EQ(h.cols(), 6u);
  // Top: identity.
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 6; ++j) {
      EXPECT_EQ(h.At(i, j), i == j ? 1 : 0);
    }
  }
  // Parity rows: [1 0 0 1 0 0], [0 1 0 0 1 0], [0 0 1 0 0 1] (Eqn. 5 with
  // XOR parity).
  for (uint32_t t = 0; t < 3; ++t) {
    for (uint32_t j = 0; j < 6; ++j) {
      EXPECT_EQ(h.At(6 + t, j), (j == t || j == t + 3) ? 1 : 0);
    }
  }
}

TEST(SrsCodeTest, SrsKmkDegeneratesToRs) {
  // SRS(k,m,k) == RS(k,m) (paper §3.3).
  auto code = SrsCode::Create(3, 2, 3);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code->l(), 3u);
  EXPECT_EQ(code->chunks_per_data_node(), 1u);
  EXPECT_EQ(code->chunks_per_parity_node(), 1u);
  const Buffer obj = MakePatternBuffer(3 * 16, 7);
  auto enc = code->EncodeObject(obj);
  // Compare against plain RS over the three 16-byte blocks.
  std::vector<ByteSpan> blocks = {
      ByteSpan(obj.data(), 16), ByteSpan(obj.data() + 16, 16),
      ByteSpan(obj.data() + 32, 16)};
  auto parity = code->rs().Encode(blocks);
  ASSERT_EQ(enc.parity_nodes.size(), 2u);
  EXPECT_EQ(enc.parity_nodes[0], parity[0]);
  EXPECT_EQ(enc.parity_nodes[1], parity[1]);
}

struct SrsParams {
  uint32_t k;
  uint32_t m;
  uint32_t s;
};

class SrsRoundTripTest : public ::testing::TestWithParam<SrsParams> {};

TEST_P(SrsRoundTripTest, EncodeDecodeNoFailures) {
  const auto [k, m, s] = GetParam();
  auto code = SrsCode::Create(k, m, s);
  ASSERT_TRUE(code.ok());
  const Buffer obj = MakePatternBuffer(1000, k * 100 + m * 10 + s);
  auto enc = code->EncodeObject(obj);
  auto dec = code->DecodeObject(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, obj);
}

TEST_P(SrsRoundTripTest, EveryRecoverablePatternDecodes) {
  const auto [k, m, s] = GetParam();
  auto code = SrsCode::Create(k, m, s);
  ASSERT_TRUE(code.ok());
  const Buffer obj = MakePatternBuffer(333, 99);
  const auto clean = code->EncodeObject(obj);

  const uint32_t n = s + m;
  ASSERT_LE(n, 12u);
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<uint32_t> fd;
    std::vector<uint32_t> fp;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        (i < s ? fd : fp).push_back(i < s ? i : i - s);
      }
    }
    auto enc = clean;
    for (uint32_t i : fd) {
      enc.data_nodes[i].clear();
    }
    for (uint32_t j : fp) {
      enc.parity_nodes[j].clear();
    }
    auto dec = code->DecodeObject(enc);
    if (code->CanRecover(fd, fp)) {
      ASSERT_TRUE(dec.ok()) << "mask=" << mask;
      ASSERT_EQ(*dec, obj) << "mask=" << mask;
    } else {
      EXPECT_FALSE(dec.ok()) << "mask=" << mask;
    }
  }
}

// The cheap combinatorial recoverability rule must agree with the exact
// rank-based check for every failure pattern.
TEST_P(SrsRoundTripTest, CanRecoverAgreesWithRankCheck) {
  const auto [k, m, s] = GetParam();
  auto code = SrsCode::Create(k, m, s);
  ASSERT_TRUE(code.ok());
  const uint32_t n = s + m;
  ASSERT_LE(n, 12u);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<uint32_t> fd;
    std::vector<uint32_t> fp;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        (i < s ? fd : fp).push_back(i < s ? i : i - s);
      }
    }
    EXPECT_EQ(code->CanRecover(fd, fp), code->CanRecoverByRank(fd, fp))
        << "k=" << k << " m=" << m << " s=" << s << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, SrsRoundTripTest,
    ::testing::Values(SrsParams{2, 1, 3}, SrsParams{2, 1, 4},
                      SrsParams{3, 1, 3}, SrsParams{3, 2, 3},
                      SrsParams{3, 2, 6}, SrsParams{3, 1, 5},
                      SrsParams{4, 2, 6}, SrsParams{2, 2, 5},
                      SrsParams{4, 3, 4}, SrsParams{5, 2, 7}),
    [](const ::testing::TestParamInfo<SrsParams>& info) {
      return "k" + std::to_string(info.param.k) + "m" +
             std::to_string(info.param.m) + "s" + std::to_string(info.param.s);
    });

TEST(SrsCodeTest, ToleranceVectorBasics) {
  // SRS(2,1,4) (paper §3.3): always tolerates 1 failure; tolerates a second
  // failure when the two failed nodes hold independent data.
  auto code = SrsCode::Create(2, 1, 4);
  ASSERT_TRUE(code.ok());
  auto f = code->ToleranceVector();
  ASSERT_EQ(f.size(), 6u);  // i = 0..5 (s+m = 5)
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);          // m = 1 always tolerated
  EXPECT_GT(f[2], 0.0);                 // sometimes 2 failures survive
  EXPECT_LT(f[2], 1.0);
  // Paper's appendix example: survives the 2nd failure with probability 2/5.
  EXPECT_NEAR(f[2] * 10.0, 4.0, 1e-9);  // 4 of C(5,2)=10 pairs survive
}

TEST(SrsCodeTest, ToleranceMonotoneNonIncreasing) {
  for (auto [k, m, s] : std::vector<SrsParams>{{2, 1, 3}, {3, 2, 6},
                                               {3, 1, 4}, {4, 2, 5}}) {
    auto code = SrsCode::Create(k, m, s);
    ASSERT_TRUE(code.ok());
    auto f = code->ToleranceVector();
    for (size_t i = 1; i < f.size(); ++i) {
      EXPECT_LE(f[i], f[i - 1] + 1e-12) << "i=" << i;
    }
    // Always tolerates m failures.
    for (uint32_t i = 0; i <= m; ++i) {
      EXPECT_DOUBLE_EQ(f[i], 1.0);
    }
    // Never tolerates more than m parity-node... more than m+? : losing more
    // than m+ (s-k) nodes is always fatal; in particular all-node loss is.
    EXPECT_DOUBLE_EQ(f[s + m], 0.0);
  }
}

TEST(SrsCodeTest, StorageOverhead) {
  auto a = SrsCode::Create(3, 2, 6);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->StorageOverhead(), 1.0 + 2.0 / 3.0, 1e-12);
  auto b = SrsCode::Create(4, 1, 4);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->StorageOverhead(), 1.25, 1e-12);
}

TEST(SrsCodeTest, SmallObjectsPadAndRoundTrip) {
  auto code = SrsCode::Create(3, 2, 4);
  ASSERT_TRUE(code.ok());
  for (size_t size : {0u, 1u, 5u, 11u, 12u, 13u, 100u}) {
    const Buffer obj = MakePatternBuffer(size, size + 1);
    auto enc = code->EncodeObject(obj);
    auto dec = code->DecodeObject(enc);
    ASSERT_TRUE(dec.ok()) << size;
    EXPECT_EQ(*dec, obj) << size;
  }
}

// ---------------------------------------------------------------------------
// SrsAddressMap

TEST(SrsAddressMapTest, SegmentsCoverRangeContiguously) {
  auto code = SrsCode::Create(3, 2, 4);  // l = 12, l/s = 3, l/k = 4
  ASSERT_TRUE(code.ok());
  SrsAddressMap map(&*code, 64);
  const uint64_t offset = 100;
  const uint64_t length = 1000;
  auto segs = map.MapDataRange(1, offset, length);
  uint64_t expect = offset;
  uint64_t total = 0;
  for (const auto& seg : segs) {
    EXPECT_EQ(seg.node_offset, expect);
    EXPECT_LE(seg.length, 64u);
    EXPECT_LT(seg.rs_block, 3u);
    EXPECT_LT(seg.ministripe, 4u);
    expect += seg.length;
    total += seg.length;
  }
  EXPECT_EQ(total, length);
}

TEST(SrsAddressMapTest, DistinctMinistripesWithinRow) {
  // A data node's row has l/s chunks, all in distinct mini-stripes.
  auto code = SrsCode::Create(2, 1, 3);  // l=6, l/s=2, l/k=3
  ASSERT_TRUE(code.ok());
  SrsAddressMap map(&*code, 16);
  for (uint32_t node = 0; node < 3; ++node) {
    auto segs = map.MapDataRange(node, 0, map.data_row_bytes());
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_NE(segs[0].ministripe, segs[1].ministripe);
  }
}

TEST(SrsAddressMapTest, ParityExtentScalesBySOverK) {
  auto code = SrsCode::Create(2, 1, 4);  // data row = U*1? l=4, l/s=1, l/k=2
  ASSERT_TRUE(code.ok());
  SrsAddressMap map(&*code, 32);
  EXPECT_EQ(map.data_row_bytes(), 32u);
  EXPECT_EQ(map.parity_row_bytes(), 64u);
  // Parity extent is s/k = 2x the data extent (memory imbalance, §5.4).
  EXPECT_EQ(map.ParityExtent(320), 640u);
  EXPECT_EQ(map.ParityExtent(1), 64u);  // rounds up to a whole row
}

TEST(SrsAddressMapTest, DecodeSourcesIdentifyPeers) {
  auto code = SrsCode::Create(2, 1, 3);
  ASSERT_TRUE(code.ok());
  SrsAddressMap map(&*code, 16);
  auto segs = map.MapDataRange(1, 0, 16);  // chunk 2 -> rs block 0? c=2: b=0,t=2
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].rs_block, 0u);
  EXPECT_EQ(segs[0].ministripe, 2u);
  auto sources = map.DecodeSources(segs[0]);
  ASSERT_EQ(sources.size(), 3u);  // k + m
  // Data sources: chunks {2, 5} -> nodes 1 and 2.
  EXPECT_FALSE(sources[0].is_parity);
  EXPECT_EQ(sources[0].node, 1u);
  EXPECT_EQ(sources[0].h_row, 0u);
  EXPECT_FALSE(sources[1].is_parity);
  EXPECT_EQ(sources[1].node, 2u);
  EXPECT_EQ(sources[1].h_row, 1u);
  EXPECT_TRUE(sources[2].is_parity);
  EXPECT_EQ(sources[2].h_row, 2u);
}

// Byte-level end-to-end check: write a pattern across the virtual address
// space of all data nodes, maintain parity via the map, then reconstruct one
// node's bytes from peers + parity using RsCode.
TEST(SrsAddressMapTest, ParityMaintainedViaMapSupportsDecode) {
  auto code = SrsCode::Create(3, 2, 4);
  ASSERT_TRUE(code.ok());
  const uint64_t unit = 32;
  SrsAddressMap map(&*code, unit);
  const uint64_t extent = map.data_row_bytes() * 5;  // 5 rows
  std::vector<Buffer> node_mem(4);
  for (int i = 0; i < 4; ++i) {
    node_mem[i] = MakePatternBuffer(extent, 1000 + i);
  }
  const uint64_t pextent = map.ParityExtent(extent);
  std::vector<Buffer> parity_mem(2, Buffer(pextent, 0));
  // Build parity with MulAddRegion per segment.
  for (uint32_t node = 0; node < 4; ++node) {
    for (const auto& seg : map.MapDataRange(node, 0, extent)) {
      for (uint32_t j = 0; j < 2; ++j) {
        gf::MulAddRegion(
            code->rs().Coefficient(j, seg.rs_block),
            ByteSpan(node_mem[node].data() + seg.node_offset, seg.length),
            MutableByteSpan(parity_mem[j].data() + seg.parity_offset,
                            seg.length));
      }
    }
  }
  // Reconstruct node 2 entirely from the other data nodes + parity 0.
  Buffer rebuilt(extent, 0);
  for (const auto& seg : map.MapDataRange(2, 0, extent)) {
    std::vector<std::pair<uint32_t, ByteSpan>> avail;
    for (const auto& src : map.DecodeSources(seg)) {
      if (!src.is_parity && src.node == 2) {
        continue;  // the failed node
      }
      const Buffer& mem = src.is_parity ? parity_mem[src.node]
                                        : node_mem[src.node];
      avail.emplace_back(src.h_row,
                         ByteSpan(mem.data() + src.offset, seg.length));
    }
    auto data = code->rs().RecoverData(avail);
    ASSERT_TRUE(data.ok());
    std::copy((*data)[seg.rs_block].begin(), (*data)[seg.rs_block].end(),
              rebuilt.begin() + seg.node_offset);
  }
  EXPECT_EQ(rebuilt, node_mem[2]);
}

// Fused stripe encode property: EncodeObject's per-mini-stripe fused parity
// must equal the naive chunk-wise definition (Eqn. 2), under every kernel
// tier the build/CPU offers.
TEST(SrsCodeTest, FusedEncodeObjectMatchesNaiveDefinition) {
  const gf::RegionImpl prev = gf::ActiveRegionImpl();
  auto code = SrsCode::Create(3, 2, 6);
  ASSERT_TRUE(code.ok());
  const Buffer object = MakePatternBuffer(6 * 1000 + 17, 77);
  // Naive reference: split into l padded chunks, then
  // parity[j] chunk t = sum_b g[j][b] * chunk[b*(l/k)+t], scalar field ops.
  const uint32_t l = code->l();
  const size_t cs = (object.size() + l - 1) / l;
  std::vector<Buffer> chunks(l, Buffer(cs, 0));
  for (uint32_t c = 0; c < l; ++c) {
    const size_t begin = static_cast<size_t>(c) * cs;
    for (size_t i = 0; begin + i < object.size() && i < cs; ++i) {
      chunks[c][i] = object[begin + i];
    }
  }
  const uint32_t lk = code->chunks_per_parity_node();
  std::vector<Buffer> naive(code->m(), Buffer(lk * cs, 0));
  for (uint32_t j = 0; j < code->m(); ++j) {
    for (uint32_t t = 0; t < lk; ++t) {
      for (uint32_t b = 0; b < code->k(); ++b) {
        const uint8_t coeff = code->rs().Coefficient(j, b);
        const Buffer& ch = chunks[code->DataChunk(b, t)];
        for (size_t i = 0; i < cs; ++i) {
          naive[j][t * cs + i] =
              gf::Add(naive[j][t * cs + i], gf::Mul(coeff, ch[i]));
        }
      }
    }
  }
  for (gf::RegionImpl impl : {gf::RegionImpl::kScalar, gf::RegionImpl::kSsse3,
                              gf::RegionImpl::kAvx2, gf::RegionImpl::kNeon}) {
    if (gf::SetRegionImpl(impl) != impl) {
      continue;
    }
    const auto enc = code->EncodeObject(object);
    ASSERT_EQ(enc.chunk_size, cs);
    for (uint32_t j = 0; j < code->m(); ++j) {
      ASSERT_EQ(enc.parity_nodes[j], naive[j])
          << "impl=" << gf::RegionImplName(impl) << " parity=" << j;
    }
    // And the full round trip still holds on this tier.
    auto decoded = code->DecodeObject(enc);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, object) << gf::RegionImplName(impl);
  }
  gf::SetRegionImpl(prev);
}

}  // namespace
}  // namespace ring::srs
