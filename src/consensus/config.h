// Cluster configuration: the replicated "who does what" record (paper §5.5).
//
// A Ring deployment has s coordinator slots (one per key shard), d redundant
// slots (replica / parity homes), and n spare nodes. The configuration maps
// logical slots to physical nodes; failures are handled by the leader
// re-pointing a slot at a spare and replicating the new epoch.
//
// Elastic membership (§13): the group can grow or shrink online. A resize is
// a two-phase epoch-bumped transition: BeginAddServer/BeginRemoveServer
// switches the cluster to the new shape while retaining the previous shape
// in prev_s/prev_node_of_slot so unmigrated keys keep being served at their
// old placement, and CompleteRebalance clears the previous shape once the
// background rebalance has drained. While rebalancing() both placements are
// live; a static cluster pays exactly one prev_s != 0 branch.
#ifndef RING_SRC_CONSENSUS_CONFIG_H_
#define RING_SRC_CONSENSUS_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/fabric.h"

namespace ring::consensus {

inline constexpr int32_t kSpareSlot = -1;

// One concrete cluster shape: everything key placement depends on, and the
// only code that knows the paper's §5.4 rotation. Borrowed view into a
// ClusterConfig (does not own node_of_slot) — resolve and use it within one
// event; never capture it in a closure that outlives the config.
//
// Placement rules. Shard ids are 0 .. groups*s - 1; shard g*s + sigma is the
// sigma-th coordinator of memgest group g. Group g's layout is the base
// layout rotated by g over the s+d slots, which spreads coordinator, replica
// and parity roles evenly (§5.4). All slots are mod s+d:
//  - the coordinator of shard g*s + sigma sits on slot sigma + g;
//  - Rep(r): replica ordinal t sits t+1 slots after its shard's coordinator,
//    so replicas may land on other coordinator slots, as in Fig. 3;
//  - SRS(k,m): parity index j of group g sits on redundant slot s + j + g.
// Slot arithmetic reads only s, d and groups; only NodeOfSlot and what
// resolves through it read `nodes`.
struct Placement {
  uint32_t s = 0;
  uint32_t d = 0;
  uint32_t groups = 1;
  const std::vector<net::NodeId>* nodes = nullptr;

  uint32_t num_slots() const { return s + d; }
  uint32_t num_shards() const { return groups * s; }
  uint32_t GroupOfShard(uint32_t shard) const { return shard / s; }
  uint32_t SlotOfShard(uint32_t shard) const {
    return (shard % s + shard / s) % num_slots();
  }
  // The j-th redundant slot of group g (parity homes).
  uint32_t RedundantSlot(uint32_t group, uint32_t j) const {
    return (s + j + group) % num_slots();
  }
  // The slot of backup `ordinal` of `shard`: replica ordinal t of a
  // replicated memgest, or parity index j of an erasure-coded one
  // (`parity`). A shard's backups sit on consecutive slots; ordinals number
  // a write's ack bits and order recovery's candidates.
  uint32_t BackupSlot(uint32_t shard, uint32_t ordinal, bool parity) const {
    return parity ? RedundantSlot(GroupOfShard(shard), ordinal)
                  : (SlotOfShard(shard) + 1 + ordinal) % num_slots();
  }
  // BackupSlot's inverse over a scheme's `count` backups (r-1 replicas or m
  // parity nodes): the ordinal with which `slot` backs `shard`, or -1 when
  // it backs none (kSpareSlot included).
  int32_t BackupOrdinal(uint32_t shard, int32_t slot, bool parity,
                        uint32_t count) const {
    if (slot < 0 || static_cast<uint32_t>(slot) >= num_slots()) {
      return -1;
    }
    const uint32_t first = BackupSlot(shard, 0, parity);
    const uint32_t ordinal =
        (static_cast<uint32_t>(slot) + num_slots() - first) % num_slots();
    return ordinal < count ? static_cast<int32_t>(ordinal) : -1;
  }
  // Shards a slot coordinates (one per group whose rotation lands on it),
  // ascending.
  std::vector<uint32_t> ShardsOfSlot(uint32_t slot) const;
  net::NodeId NodeOfSlot(uint32_t slot) const { return (*nodes)[slot]; }
  net::NodeId CoordinatorOfShard(uint32_t shard) const {
    return NodeOfSlot(SlotOfShard(shard));
  }
  // Slot the node occupies under this shape, or kSpareSlot.
  int32_t SlotOfNode(net::NodeId node) const {
    for (uint32_t slot = 0; slot < nodes->size(); ++slot) {
      if ((*nodes)[slot] == node) {
        return static_cast<int32_t>(slot);
      }
    }
    return kSpareSlot;
  }
};

struct ClusterConfig {
  uint64_t epoch = 0;
  uint32_t s = 0;       // coordinator slots per memgest group
  uint32_t d = 0;       // redundant slots
  uint32_t groups = 1;  // rotated memgest groups (paper §5.4 balancing)
  net::NodeId leader = 0;
  // slot -> physical node, size s + d.
  std::vector<net::NodeId> node_of_slot;
  // physical node -> slot or kSpareSlot; dead nodes keep their last slot
  // until reassigned.
  std::vector<int32_t> slot_of_node;
  // physical nodes known to have failed (never reused).
  std::vector<bool> failed;
  // Live spare free-list, ascending node id; maintained by every mutator so
  // FindSpare is O(1) instead of a scan over all nodes.
  std::vector<net::NodeId> spares;
  // Rebalance transition: the shape before the in-flight resize. prev_s == 0
  // means no resize is in flight (the static-cluster fast path).
  uint32_t prev_s = 0;
  std::vector<net::NodeId> prev_node_of_slot;

  static ClusterConfig Initial(uint32_t s, uint32_t d, uint32_t num_nodes,
                               uint32_t groups = 1);

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(slot_of_node.size());
  }

  // True when the node's slot coordinates a shard (some rotation lands on it).
  // ring-lint: ok(test-only-api) CoordinatorOfShard's rotation
  bool IsCoordinator(net::NodeId node) const {
    const int32_t slot = slot_of_node[node];
    return slot >= 0 && !failed[node] &&
           !Current().ShardsOfSlot(static_cast<uint32_t>(slot)).empty();
  }
  // True when `node` currently coordinates `shard`.
  bool CoordinatesShard(net::NodeId node, uint32_t shard) const {
    const int32_t slot = slot_of_node[node];
    return slot >= 0 && !failed[node] &&
           static_cast<uint32_t>(slot) == Current().SlotOfShard(shard);
  }

  // First live spare, or -1 when the pool is exhausted. O(1) off the
  // maintained free-list.
  int32_t FindSpare() const {
    return spares.empty() ? -1 : static_cast<int32_t>(spares.front());
  }

  // Re-point victim's slot to `spare` and bump the epoch. During a rebalance
  // the victim is also replaced wherever it appears in the previous shape,
  // so old-placement routing follows the promotion.
  void Promote(net::NodeId victim, net::NodeId spare);

  // Mark a node failed (keeps its slot assignment; promotion re-homes it)
  // and bump the epoch.
  void MarkFailed(net::NodeId node);
  // Re-admit a crashed-and-recovered node into the cluster (it rejoins as a
  // spare unless it still holds its slot) and bump the epoch.
  void Readmit(net::NodeId node);

  // --- Elastic membership ---------------------------------------------------
  // True while a resize transition is in flight (both shapes live).
  bool rebalancing() const { return prev_s != 0; }
  // Current / previous shapes as placement views. Previous() is only
  // meaningful while rebalancing().
  Placement Current() const { return {s, d, groups, &node_of_slot}; }
  Placement Previous() const { return {prev_s, d, groups, &prev_node_of_slot}; }

  // Grow s -> s+1: `node` (a live spare) becomes the new coordinator slot s
  // (inserted before the redundant slots, so redundant slots keep their
  // nodes). Records the old shape and bumps the epoch. Returns false if a
  // resize is already in flight or the node is not a live spare.
  bool BeginAddServer(net::NodeId node);
  // Shrink s -> s-1: coordinator slot `slot` leaves the shape. The leaving
  // node keeps serving the old placement during the transition and returns
  // to the spare pool at CompleteRebalance. Returns false if a resize is in
  // flight, the slot is not a coordinator slot, or s == 1.
  bool BeginRemoveServer(uint32_t slot);
  // End the transition: forget the previous shape, return any node that left
  // the shape to the spare pool, bump the epoch.
  void CompleteRebalance();

  // Structural invariants (slot maps mutually inverse, spare list = live
  // unslotted nodes, shapes sized to s/d); `why` gets the first violation.
  // ring-lint: ok(test-only-api) every config transition above
  bool CheckInvariants(std::string* why = nullptr) const;

 private:
  void AddSpare(net::NodeId node);
  void RemoveSpare(net::NodeId node);
};

}  // namespace ring::consensus

#endif  // RING_SRC_CONSENSUS_CONFIG_H_
