// Stretched Reed-Solomon SRS(k,m,s) codes — the paper's core coding
// contribution (§3.3).
//
// SRS(k,m,s) applies RS(k,m) coding but spreads the data over s >= k data
// nodes so that every scheme in a memgest group shares the single
// key-to-node mapping `h(key) mod s`. With l = lcm(k,s) chunks:
//   - data chunk c lives on data node c / (l/s),
//   - chunk c belongs to RS block b = c / (l/k) and "mini-stripe"
//     t = c mod (l/k); each mini-stripe is an independent RS(k,m) stripe of
//     the k chunks {b*(l/k)+t : b} plus one chunk per parity node,
//   - parity node j stores parity chunks {j*(l/k)+t : t} (Eqn. 2).
// SRS(k,m,k) degenerates to RS(k,m).
#ifndef RING_SRC_SRS_SRS_CODE_H_
#define RING_SRC_SRS_SRS_CODE_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/matrix/matrix.h"
#include "src/rs/rs_code.h"

namespace ring::srs {

class SrsCode {
 public:
  // Valid parameters: 1 <= k <= s, 0 <= m, k + m <= 255.
  static Result<SrsCode> Create(uint32_t k, uint32_t m, uint32_t s);

  uint32_t k() const { return k_; }
  uint32_t m() const { return m_; }
  uint32_t s() const { return s_; }
  // Total chunks per stripe: l = lcm(k, s).
  uint32_t l() const { return l_; }
  uint32_t chunks_per_data_node() const { return l_ / s_; }
  // Also the number of independent RS(k,m) mini-stripes per stripe.
  uint32_t chunks_per_parity_node() const { return l_ / k_; }

  const rs::RsCode& rs() const { return rs_; }

  // Chunk geometry --------------------------------------------------------
  uint32_t DataNodeOfChunk(uint32_t c) const { return c / (l_ / s_); }
  uint32_t RsBlockOfChunk(uint32_t c) const { return c / (l_ / k_); }
  uint32_t MinistripeOfChunk(uint32_t c) const { return c % (l_ / k_); }
  // Inverse: the data chunk of RS block b within mini-stripe t.
  uint32_t DataChunk(uint32_t rs_block, uint32_t ministripe) const {
    return rs_block * (l_ / k_) + ministripe;
  }

  // The expanded coding matrix Hexp = H o E of size (l + l*m/k) x l
  // (paper Eqn. 2/3). Used for verification and rank-based recoverability.
  gf::Matrix ExpandedMatrix() const;

  // Whole-object coding ----------------------------------------------------
  struct Encoded {
    std::vector<Buffer> data_nodes;    // s payloads, l/s chunks each
    std::vector<Buffer> parity_nodes;  // m payloads, l/k chunks each
    size_t chunk_size = 0;
    size_t object_size = 0;
  };

  // Splits the object into l chunks (zero-padded to a multiple of l bytes)
  // and produces per-node payloads.
  Encoded EncodeObject(ByteSpan object) const;

  // Reconstructs the object from per-node payloads (lost nodes empty); fails
  // when the loss pattern is unrecoverable.
  // ring-lint: ok(test-only-api) EncodeObject's chunk layout
  Result<Buffer> DecodeObject(const Encoded& enc) const;

  // Failure analysis -------------------------------------------------------
  // Exact recoverability of a failed-node set: every mini-stripe is RS(k,m),
  // so the pattern is recoverable iff each mini-stripe loses at most m of
  // its k+m chunks.
  bool CanRecover(const std::vector<uint32_t>& failed_data_nodes,
                  const std::vector<uint32_t>& failed_parity_nodes) const;

  // Same question answered by rank(Hexp surviving rows) == l; O(l^3).
  // ring-lint: ok(test-only-api) an independent oracle for CanRecover
  bool CanRecoverByRank(const std::vector<uint32_t>& failed_data_nodes,
                        const std::vector<uint32_t>& failed_parity_nodes) const;

  // f[i] = fraction of i-node failure subsets (out of the s+m nodes) the
  // code tolerates, for i = 0..s+m (f[0] = 1). Exact enumeration; feeds the
  // Markov reliability model of Appendix A.2.
  std::vector<double> ToleranceVector() const;

  // Storage overhead factor (stored bytes / object bytes) = 1 + m/k.
  double StorageOverhead() const {
    return 1.0 + static_cast<double>(m_) / static_cast<double>(k_);
  }

 private:
  SrsCode(uint32_t k, uint32_t m, uint32_t s, uint32_t l, rs::RsCode rs_code)
      : k_(k), m_(m), s_(s), l_(l), rs_(std::move(rs_code)) {}

  uint32_t k_;
  uint32_t m_;
  uint32_t s_;
  uint32_t l_;
  rs::RsCode rs_;
};

}  // namespace ring::srs

#endif  // RING_SRC_SRS_SRS_CODE_H_
