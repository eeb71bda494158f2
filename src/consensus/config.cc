#include "src/consensus/config.h"

#include <algorithm>
#include <cassert>

namespace ring::consensus {

ClusterConfig ClusterConfig::Initial(uint32_t s, uint32_t d,
                                     uint32_t num_nodes, uint32_t groups) {
  assert(num_nodes >= s + d);
  assert(groups >= 1);
  ClusterConfig c;
  c.epoch = 1;
  c.s = s;
  c.d = d;
  c.groups = groups;
  c.leader = 0;
  c.node_of_slot.resize(s + d);
  c.slot_of_node.assign(num_nodes, kSpareSlot);
  c.failed.assign(num_nodes, false);
  for (uint32_t slot = 0; slot < s + d; ++slot) {
    c.node_of_slot[slot] = slot;
    c.slot_of_node[slot] = static_cast<int32_t>(slot);
  }
  for (uint32_t n = s + d; n < num_nodes; ++n) {
    c.spares.push_back(n);
  }
  return c;
}

std::vector<uint32_t> Placement::ShardsOfSlot(uint32_t slot) const {
  std::vector<uint32_t> out;
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    if (SlotOfShard(shard) == slot) {
      out.push_back(shard);
    }
  }
  return out;
}

void ClusterConfig::AddSpare(net::NodeId node) {
  const auto it = std::lower_bound(spares.begin(), spares.end(), node);
  if (it == spares.end() || *it != node) {
    spares.insert(it, node);
  }
}

void ClusterConfig::RemoveSpare(net::NodeId node) {
  const auto it = std::lower_bound(spares.begin(), spares.end(), node);
  if (it != spares.end() && *it == node) {
    spares.erase(it);
  }
}

void ClusterConfig::Promote(net::NodeId victim, net::NodeId spare) {
  assert(slot_of_node[spare] == kSpareSlot && !failed[spare]);
  const int32_t slot = slot_of_node[victim];
  failed[victim] = true;
  RemoveSpare(victim);
  RemoveSpare(spare);
  if (slot != kSpareSlot) {
    slot_of_node[victim] = kSpareSlot;
    slot_of_node[spare] = slot;
    node_of_slot[static_cast<uint32_t>(slot)] = spare;
  }
  // Old-placement routing follows the promotion: unmigrated keys served at
  // the previous shape must find the replacement node, and the replacement
  // recovers the victim's previous-shape data too.
  if (rebalancing()) {
    for (net::NodeId& n : prev_node_of_slot) {
      if (n == victim) {
        n = spare;
      }
    }
  }
  ++epoch;
}

void ClusterConfig::MarkFailed(net::NodeId node) {
  if (failed[node]) {
    return;
  }
  failed[node] = true;
  RemoveSpare(node);
  ++epoch;
}

void ClusterConfig::Readmit(net::NodeId node) {
  failed[node] = false;
  if (slot_of_node[node] == kSpareSlot) {
    // Not in the current shape; it may still back the previous shape of an
    // in-flight resize (a shrink's leaving node that crashed and rejoined
    // memory-less keeps its old-placement duties but is not a usable spare).
    bool in_prev = false;
    if (rebalancing()) {
      for (const net::NodeId n : prev_node_of_slot) {
        in_prev |= n == node;
      }
    }
    if (!in_prev) {
      AddSpare(node);
    }
  }
  ++epoch;
}

bool ClusterConfig::BeginAddServer(net::NodeId node) {
  if (rebalancing() || node >= num_nodes() || failed[node] ||
      slot_of_node[node] != kSpareSlot) {
    return false;
  }
  prev_s = s;
  prev_node_of_slot = node_of_slot;
  // Insert the new coordinator slot at index s: coordinator slots 0..s-1
  // keep their nodes and the redundant slots shift to s+1..s+d without
  // changing theirs.
  node_of_slot.insert(node_of_slot.begin() + s, node);
  s += 1;
  for (uint32_t slot = 0; slot < node_of_slot.size(); ++slot) {
    slot_of_node[node_of_slot[slot]] = static_cast<int32_t>(slot);
  }
  RemoveSpare(node);
  ++epoch;
  return true;
}

bool ClusterConfig::BeginRemoveServer(uint32_t slot) {
  if (rebalancing() || s <= 1 || slot >= s) {
    return false;
  }
  prev_s = s;
  prev_node_of_slot = node_of_slot;
  const net::NodeId leaving = node_of_slot[slot];
  node_of_slot.erase(node_of_slot.begin() + slot);
  s -= 1;
  // The leaving node serves the previous shape until the rebalance drains;
  // it joins the spare pool in CompleteRebalance, not here.
  slot_of_node[leaving] = kSpareSlot;
  for (uint32_t sl = 0; sl < node_of_slot.size(); ++sl) {
    slot_of_node[node_of_slot[sl]] = static_cast<int32_t>(sl);
  }
  ++epoch;
  return true;
}

void ClusterConfig::CompleteRebalance() {
  if (!rebalancing()) {
    return;
  }
  prev_s = 0;
  prev_node_of_slot.clear();
  // Anyone live without a slot is a spare again (a shrink's leaving node).
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (slot_of_node[n] == kSpareSlot && !failed[n]) {
      AddSpare(n);
    }
  }
  ++epoch;
}

bool ClusterConfig::CheckInvariants(std::string* why) const {
  auto fail = [why](const std::string& message) {
    if (why != nullptr) {
      *why = message;
    }
    return false;
  };
  if (node_of_slot.size() != s + d) {
    return fail("node_of_slot size != s + d");
  }
  if (slot_of_node.size() != failed.size()) {
    return fail("slot_of_node size != failed size");
  }
  for (uint32_t slot = 0; slot < node_of_slot.size(); ++slot) {
    const net::NodeId node = node_of_slot[slot];
    if (node >= num_nodes()) {
      return fail("node_of_slot[" + std::to_string(slot) + "] out of range");
    }
    if (slot_of_node[node] != static_cast<int32_t>(slot)) {
      return fail("slot " + std::to_string(slot) + " -> node " +
                  std::to_string(node) + " not mirrored in slot_of_node");
    }
  }
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    const int32_t slot = slot_of_node[n];
    if (slot == kSpareSlot) {
      continue;
    }
    if (slot < 0 || static_cast<uint32_t>(slot) >= node_of_slot.size() ||
        node_of_slot[static_cast<uint32_t>(slot)] != n) {
      return fail("slot_of_node[" + std::to_string(n) +
                  "] not mirrored in node_of_slot");
    }
  }
  // The spare free-list holds exactly the live unslotted nodes that are not
  // backing the previous shape of an in-flight resize.
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    bool in_prev = false;
    if (rebalancing()) {
      for (const net::NodeId p : prev_node_of_slot) {
        in_prev |= p == n;
      }
    }
    const bool should_be_spare =
        slot_of_node[n] == kSpareSlot && !failed[n] && !in_prev;
    const bool listed =
        std::binary_search(spares.begin(), spares.end(), n);
    if (should_be_spare != listed) {
      return fail("spare free-list " +
                  std::string(listed ? "lists" : "misses") + " node " +
                  std::to_string(n));
    }
  }
  if (!std::is_sorted(spares.begin(), spares.end())) {
    return fail("spare free-list not sorted");
  }
  if (rebalancing() && prev_node_of_slot.size() != prev_s + d) {
    return fail("prev_node_of_slot size != prev_s + d");
  }
  return true;
}

}  // namespace ring::consensus
