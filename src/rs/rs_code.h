// Systematic Reed-Solomon RS(k,m) over GF(2^8).
//
// Implements the coding operations of paper §3.2:
//  - encode: m parity blocks from k data blocks via H = [I; G] (Eqn. 1),
//  - recover: any k of the k+m blocks reconstruct everything,
//  - delta update: parity_j ^= g[j][i] * (old_i XOR new_i).
//
// The generator G is a normalized Cauchy matrix: every square submatrix of a
// Cauchy matrix is nonsingular, which makes [I; G] MDS (any k of the k+m
// rows are linearly independent — a mixed selection of identity and parity
// rows reduces to a Cauchy minor). Row/column scaling normalizes the first
// parity row and first column to all ones, so parity block 0 is the plain
// XOR of the data blocks (as in the paper's Eqn. 4 example).
#ifndef RING_SRC_RS_RS_CODE_H_
#define RING_SRC_RS_RS_CODE_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/matrix/matrix.h"

namespace ring::rs {

class RsCode {
 public:
  // Valid parameters: 1 <= k, 0 <= m, k + m <= 255.
  static Result<RsCode> Create(uint32_t k, uint32_t m);

  uint32_t k() const { return k_; }
  uint32_t m() const { return m_; }

  // The m x k generator (parity) part G.
  const gf::Matrix& generator() const { return g_; }
  // Coefficient g[parity][data] applied to data block `data` when computing
  // parity block `parity`.
  uint8_t Coefficient(uint32_t parity, uint32_t data) const {
    return g_.At(parity, data);
  }

  // Computes the m parity blocks for k equally-sized data blocks.
  // `data.size() == k`; all blocks share one size. Returns m blocks.
  std::vector<Buffer> Encode(const std::vector<ByteSpan>& data) const;

  // Fused, allocation-free encode into caller-owned parity buffers
  // (`parity.size() == m`, each block data[0].size() bytes). Each parity
  // block is produced in one pass over all k sources per cache-resident
  // output region (gf::EncodeRegion) instead of k full-buffer sweeps; zero
  // generator coefficients are skipped. Parity buffers may hold garbage on
  // entry; they are overwritten.
  void EncodeInto(const std::vector<ByteSpan>& data,
                  std::span<MutableByteSpan> parity) const;

  // In-place delta update of one parity block: parity ^= g[parity_idx][data_idx] * delta.
  void ApplyParityDelta(uint32_t parity_index, uint32_t data_index,
                        ByteSpan delta, MutableByteSpan parity) const;

  // Reconstructs the full set of k data blocks from any k available blocks.
  // `available` holds (block_index, bytes) pairs where block indices are in
  // [0, k+m): 0..k-1 are data blocks, k..k+m-1 parity blocks. Fails when
  // fewer than k blocks are supplied or sizes disagree.
  Result<std::vector<Buffer>> RecoverData(
      const std::vector<std::pair<uint32_t, ByteSpan>>& available) const;

  // True when the erasure pattern (set of lost block indices) is decodable,
  // i.e. at least k blocks survive. For MDS codes that is the exact rule.
  bool CanRecover(const std::vector<uint32_t>& lost) const;

 private:
  RsCode(uint32_t k, uint32_t m, gf::Matrix h, gf::Matrix g)
      : k_(k), m_(m), h_(std::move(h)), g_(std::move(g)) {}

  uint32_t k_;
  uint32_t m_;
  gf::Matrix h_;  // (k+m) x k
  gf::Matrix g_;  // m x k
};

}  // namespace ring::rs

#endif  // RING_SRC_RS_RS_CODE_H_
