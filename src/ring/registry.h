// Memgest registry: the cluster-wide catalogue of storage schemes and their
// placement (paper §5.1).
//
// The leader decides placement at createMemgest time and replicates the
// decision; in the simulation the catalogue object is shared by all nodes
// (it models the replicated, eventually-identical state machine content)
// while creation/deletion still flow through leader messages for timing.
// Which slots hold each shard's replicas or parity is consensus::Placement's
// (src/consensus/config.h).
#ifndef RING_SRC_RING_REGISTRY_H_
#define RING_SRC_RING_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/ring/types.h"
#include "src/srs/address_map.h"
#include "src/srs/srs_code.h"

namespace ring {

// One erasure-coding geometry: the code and stripe address map for a
// specific group size s. Elastic resizes (§13) change s, so a memgest can
// have several geometries alive at once while a rebalance drains.
struct MemgestGeometry {
  std::unique_ptr<srs::SrsCode> code;
  std::unique_ptr<srs::SrsAddressMap> map;
};

struct MemgestInfo {
  MemgestId id = 0;
  MemgestDescriptor desc;
  bool deleted = false;
  // Erasure-coded memgests only: one geometry per shape, keyed by its s —
  // the current shape's and every earlier one's (one entry on a cluster that
  // never resized; empty for replicated memgests).
  std::map<uint32_t, MemgestGeometry> geoms;

  bool erasure_coded() const { return desc.kind == SchemeKind::kErasureCoded; }
};

class MemgestRegistry {
 public:
  MemgestRegistry(uint32_t s, uint32_t d, uint64_t stripe_unit = 4096,
                  uint32_t groups = 1);

  uint32_t s() const { return s_; }
  uint32_t d() const { return d_; }
  uint32_t groups() const { return groups_; }

  // Validates the descriptor against the cluster shape (r <= s+d, m <= d,
  // k <= s) and installs the memgest. Called on the leader.
  Result<MemgestId> Create(const MemgestDescriptor& desc);
  Status Delete(MemgestId id);

  const MemgestInfo* Get(MemgestId id) const;

  MemgestId default_id() const { return default_id_; }
  Status SetDefault(MemgestId id);

  // --- Elastic membership (§13) --------------------------------------------
  // Re-target the catalogue at a new group size: every erasure-coded memgest
  // gets a geometry for new_s (code + address map) unless it has one, and
  // keeps its earlier ones for the rebalance to read. Fails when an existing
  // memgest cannot exist at the new shape (k > new_s or r > new_s + d).
  Status Resize(uint32_t new_s);
  // The code/map for the shape with group size `geom_s`. Returns nullptr
  // for replicated memgests and for shapes never built — callers treat that
  // as a fenced (stale-geometry) operation.
  const srs::SrsCode* CodeFor(const MemgestInfo& info, uint32_t geom_s) const;
  const srs::SrsAddressMap* MapFor(const MemgestInfo& info,
                                   uint32_t geom_s) const;

  size_t count() const;
  void ForEach(const std::function<void(const MemgestInfo&)>& fn) const;

 private:
  // Builds `info`'s geometry for group size `s` unless it has one.
  Status AddGeometry(MemgestInfo& info, uint32_t s) const;

  uint32_t s_;
  uint32_t d_;
  uint32_t groups_;
  uint64_t stripe_unit_;
  MemgestId default_id_ = kDefaultMemgest;
  std::vector<std::unique_ptr<MemgestInfo>> memgests_;
};

}  // namespace ring

#endif  // RING_SRC_RING_REGISTRY_H_
