// Byte-level mapping between a data node's virtual address space and SRS
// stripe coordinates.
//
// An SRS(k,m,s) memgest stores each object wholly on its coordinator node
// (key shard), inside that node's virtual address space. The address space of
// every data node is striped into rows of l/s chunks of `stripe_unit` bytes;
// parity nodes mirror the same rows with l/k chunks each (one per
// mini-stripe). A write of [offset, offset+len) on data node n therefore
// touches a sequence of (mini-stripe, RS-block) segments; each segment has a
// single parity location (identical offset on every parity node) and a single
// coding coefficient column (its RS block).
//
// Coordinates:
//   row r     = node_addr / (U * l/s)
//   slot q    = (node_addr / U) % (l/s)
//   intra u   = node_addr % U
//   chunk c   = n * l/s + q,  rs block b = c / (l/k),  mini-stripe t = c % (l/k)
//   parity_addr = r * U * (l/k) + t * U + u        (same on every parity node)
#ifndef RING_SRC_SRS_ADDRESS_MAP_H_
#define RING_SRC_SRS_ADDRESS_MAP_H_

#include <cstdint>
#include <vector>

#include "src/srs/srs_code.h"

namespace ring::srs {

class SrsAddressMap {
 public:
  // stripe_unit: bytes per chunk cell (U). Must be > 0.
  SrsAddressMap(const SrsCode* code, uint64_t stripe_unit)
      : code_(code), unit_(stripe_unit) {}

  uint64_t stripe_unit() const { return unit_; }
  // Bytes per row on a data node / parity node.
  uint64_t data_row_bytes() const {
    return unit_ * code_->chunks_per_data_node();
  }
  uint64_t parity_row_bytes() const {
    return unit_ * code_->chunks_per_parity_node();
  }

  // One chunk-contiguous piece of a data-node byte range.
  struct Segment {
    uint64_t node_offset;    // where it lives on the data node
    uint64_t parity_offset;  // where its parity lives on every parity node
    uint32_t rs_block;       // coefficient column g[j][rs_block]
    uint32_t ministripe;
    uint64_t row;
    uint64_t length;
  };

  // Splits [offset, offset+length) of data node `node` into segments.
  std::vector<Segment> MapDataRange(uint32_t node, uint64_t offset,
                                    uint64_t length) const;

  // The parity extent covering a data extent (whole rows): parity nodes are
  // s/k times larger per row, the memory imbalance of paper §5.4.
  // ring-lint: ok(test-only-api) the parity heaps RingServer grows
  uint64_t ParityExtent(uint64_t data_extent) const;

  // A block source for decoding one segment: either a surviving data chunk
  // (h_row in [0,k)) or a parity chunk (h_row in [k,k+m)).
  struct SourceLoc {
    bool is_parity;
    uint32_t node;     // data node id or parity node id
    uint64_t offset;   // byte offset in that node's (data|parity) space
    uint32_t h_row;    // row index for rs::RsCode::RecoverData
  };

  // All k+m potential sources for the mini-stripe covering `seg` (the failed
  // segment itself appears among them); callers filter out dead nodes and
  // feed >= k of these to RsCode::RecoverData.
  std::vector<SourceLoc> DecodeSources(const Segment& seg) const;

 private:
  const SrsCode* code_;
  uint64_t unit_;
};

}  // namespace ring::srs

#endif  // RING_SRC_SRS_ADDRESS_MAP_H_
