#include "src/rs/rs_code.h"

#include <algorithm>
#include <cassert>

#include "src/gf/gf256.h"

namespace ring::rs {

Result<RsCode> RsCode::Create(uint32_t k, uint32_t m) {
  if (k < 1 || k + m > 255) {
    return InvalidArgumentError("RS(k,m) requires 1 <= k and k+m <= 255");
  }
  // Normalized Cauchy generator: g[i][j] = 1 / (x_i XOR y_j) with
  // x_i = i (parities) and y_j = m + j (data) — disjoint point sets, so all
  // denominators are nonzero. Every square submatrix of a Cauchy matrix is
  // nonsingular; row/column scaling (which preserves that property) makes
  // row 0 and column 0 all ones, so parity 0 is the XOR of the data blocks.
  gf::Matrix g(m, k);
  if (m == 0) {
    gf::Matrix h0 = gf::Matrix::Identity(k);
    return RsCode(k, m, std::move(h0), std::move(g));
  }
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      g.Set(i, j, gf::Inv(static_cast<uint8_t>(i ^ (m + j))));
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    const uint8_t r = gf::Inv(g.At(i, 0));  // make column 0 all ones
    for (uint32_t j = 0; j < k; ++j) {
      g.Set(i, j, gf::Mul(r, g.At(i, j)));
    }
  }
  for (uint32_t j = 0; j < k; ++j) {
    const uint8_t c = gf::Inv(g.At(0, j));  // make row 0 all ones
    for (uint32_t i = 0; i < m; ++i) {
      g.Set(i, j, gf::Mul(c, g.At(i, j)));
    }
  }
  gf::Matrix h = gf::Matrix::Identity(k).VStack(g);
  return RsCode(k, m, std::move(h), std::move(g));
}

std::vector<Buffer> RsCode::Encode(const std::vector<ByteSpan>& data) const {
  const size_t block_size = data.empty() ? 0 : data[0].size();
  std::vector<Buffer> parity(m_, Buffer(block_size, 0));
  std::vector<MutableByteSpan> spans(parity.begin(), parity.end());
  EncodeInto(data, spans);
  return parity;
}

void RsCode::EncodeInto(const std::vector<ByteSpan>& data,
                        std::span<MutableByteSpan> parity) const {
  assert(data.size() == k_);
  assert(parity.size() == m_);
  std::vector<const uint8_t*> srcs(k_);
  for (uint32_t i = 0; i < k_; ++i) {
    assert(data[i].size() == (data.empty() ? 0 : data[0].size()));
    srcs[i] = data[i].data();
  }
  for (uint32_t j = 0; j < m_; ++j) {
    assert(parity[j].size() == (data.empty() ? 0 : data[0].size()));
    gf::EncodeRegion(std::span<const uint8_t>(g_.Row(j), k_),
                     std::span<const uint8_t* const>(srcs), parity[j]);
  }
}

void RsCode::ApplyParityDelta(uint32_t parity_index, uint32_t data_index,
                              ByteSpan delta, MutableByteSpan parity) const {
  assert(parity_index < m_ && data_index < k_);
  assert(delta.size() == parity.size());
  gf::MulAddRegion(g_.At(parity_index, data_index), delta, parity);
}

Result<std::vector<Buffer>> RsCode::RecoverData(
    const std::vector<std::pair<uint32_t, ByteSpan>>& available) const {
  if (available.size() < k_) {
    return DataLossError("fewer than k blocks available");
  }
  const size_t block_size = available[0].second.size();
  for (const auto& [idx, bytes] : available) {
    if (idx >= k_ + m_) {
      return InvalidArgumentError("block index out of range");
    }
    if (bytes.size() != block_size) {
      return InvalidArgumentError("block sizes disagree");
    }
  }
  // Prefer surviving data blocks (identity rows make the decode matrix
  // sparser), then parity blocks, taking k in total.
  std::vector<std::pair<uint32_t, ByteSpan>> chosen(available.begin(),
                                                    available.end());
  std::sort(chosen.begin(), chosen.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  chosen.resize(k_);

  std::vector<size_t> rows(k_);
  for (uint32_t i = 0; i < k_; ++i) {
    rows[i] = chosen[i].first;
  }
  auto decode = h_.SelectRows(rows).Inverse();
  if (!decode.ok()) {
    return InternalError("decode matrix singular (violates MDS property)");
  }
  std::vector<const uint8_t*> srcs(k_);
  for (uint32_t i = 0; i < k_; ++i) {
    srcs[i] = chosen[i].second.data();
  }
  // Fused decode: one pass over the k sources per output block. Decode rows
  // for surviving data blocks are unit vectors, so the zero-coefficient skip
  // reduces those outputs to a single memcpy-equivalent accumulate.
  std::vector<Buffer> out(k_, Buffer(block_size, 0));
  for (uint32_t d = 0; d < k_; ++d) {
    gf::MulAddRegionMulti(std::span<const uint8_t>(decode.value().Row(d), k_),
                          std::span<const uint8_t* const>(srcs), out[d]);
  }
  return out;
}

bool RsCode::CanRecover(const std::vector<uint32_t>& lost) const {
  return lost.size() <= m_;
}

}  // namespace ring::rs
