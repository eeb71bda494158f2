#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "src/consensus/config.h"
#include "src/consensus/membership.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"

namespace ring::consensus {
namespace {

// Reference model for Placement's backup slots: the per-scheme slot lists
// and the linear-search inverse that the closed forms replaced
// (MemgestRegistry::ReplicaSlotsFor and ParitySlotsFor as they were
// written, and RingServer::BackupOrdinal's search, run for every slot at
// once).
std::vector<uint32_t> RefReplicaSlots(uint32_t r, uint32_t shard, uint32_t s,
                                      uint32_t d) {
  std::vector<uint32_t> slots;
  const uint32_t sigma = shard % s;  // in-group coordinator index
  const uint32_t group = shard / s;  // rotation offset (§5.4)
  for (uint32_t t = 0; t + 1 < r; ++t) {
    slots.push_back((sigma + 1 + t + group) % (s + d));
  }
  return slots;
}

std::vector<uint32_t> RefParitySlots(uint32_t m, uint32_t group, uint32_t s,
                                     uint32_t d) {
  std::vector<uint32_t> slots;
  for (uint32_t j = 0; j < m; ++j) {
    slots.push_back((s + j + group) % (s + d));
  }
  return slots;
}

// For each of the `n` slots, the index of its first occurrence in `slots`
// (what std::find over the list returned), or -1.
std::vector<int32_t> RefBackupOrdinals(const std::vector<uint32_t>& slots,
                                       uint32_t n) {
  std::vector<int32_t> ordinal(n, -1);
  for (size_t i = slots.size(); i-- > 0;) {
    ordinal[slots[i]] = static_cast<int32_t>(i);
  }
  return ordinal;
}

// Differential check of BackupSlot and BackupOrdinal against the reference
// over s in 1..8 and 98, d in 1..3, groups in 1..5 and 100: every Rep(r)
// with r <= s+d and SRS with m <= d, every shard, ordinal and slot,
// kSpareSlot included.
TEST(PlacementTest, BackupSlotsMatchTheReferenceLists) {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first;
  for (const uint32_t s : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 98u}) {
    for (uint32_t d = 1; d <= 3; ++d) {
      for (const uint32_t groups : {1u, 2u, 3u, 4u, 5u, 100u}) {
        const Placement p{.s = s, .d = d, .groups = groups};
        const int32_t n = static_cast<int32_t>(p.num_slots());
        // Rep(r) has r-1 backups, SRS m of them.
        for (const bool parity : {false, true}) {
          const uint32_t max_count = parity ? d : s + d - 1;
          for (uint32_t count = parity ? 1 : 0; count <= max_count; ++count) {
            for (uint32_t shard = 0; shard < p.num_shards(); ++shard) {
              const std::vector<uint32_t> ref =
                  parity ? RefParitySlots(count, shard / s, s, d)
                         : RefReplicaSlots(count + 1, shard, s, d);
              const auto mismatch = [&](const char* what, int64_t at,
                                        int64_t got, int64_t want) {
                if (mismatches++ == 0) {
                  std::ostringstream os;
                  os << what << "(s=" << s << " d=" << d
                     << " groups=" << groups << " parity=" << parity
                     << " count=" << count << " shard=" << shard << ", "
                     << at << ") = " << got << ", reference " << want;
                  first = os.str();
                }
              };
              for (uint32_t ordinal = 0; ordinal < count; ++ordinal) {
                ++checked;
                const uint32_t got = p.BackupSlot(shard, ordinal, parity);
                if (got != ref[ordinal]) {
                  mismatch("BackupSlot", ordinal, got, ref[ordinal]);
                }
              }
              const std::vector<int32_t> ordinals =
                  RefBackupOrdinals(ref, p.num_slots());
              for (int32_t slot = kSpareSlot; slot < n; ++slot) {
                ++checked;
                const int32_t got =
                    p.BackupOrdinal(shard, slot, parity, count);
                const int32_t want =
                    slot < 0 ? -1 : ordinals[static_cast<uint32_t>(slot)];
                if (got != want) {
                  mismatch("BackupOrdinal", slot, got, want);
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  EXPECT_GT(checked, 0u);
}

TEST(ClusterConfigTest, InitialLayout) {
  ClusterConfig c = ClusterConfig::Initial(3, 2, 8);
  EXPECT_EQ(c.epoch, 1u);
  EXPECT_EQ(c.Current().num_slots(), 5u);
  for (uint32_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(c.Current().NodeOfSlot(slot), slot);
  }
  EXPECT_TRUE(c.IsCoordinator(0));
  EXPECT_TRUE(c.IsCoordinator(2));
  EXPECT_FALSE(c.IsCoordinator(3));  // redundant slot
  EXPECT_FALSE(c.IsCoordinator(6));  // spare
  EXPECT_TRUE(c.CoordinatesShard(1, 1));
  EXPECT_EQ(c.FindSpare(), 5);
}

TEST(ClusterConfigTest, PromoteMovesSlotToSpare) {
  ClusterConfig c = ClusterConfig::Initial(3, 2, 8);
  c.Promote(1, 5);
  EXPECT_EQ(c.epoch, 2u);
  EXPECT_TRUE(c.failed[1]);
  EXPECT_FALSE(c.IsCoordinator(1));
  EXPECT_TRUE(c.IsCoordinator(5));
  EXPECT_TRUE(c.CoordinatesShard(5, 1));
  EXPECT_EQ(c.Current().CoordinatorOfShard(1), 5u);
  EXPECT_EQ(c.FindSpare(), 6);
}

TEST(ClusterConfigTest, SparePoolExhaustion) {
  ClusterConfig c = ClusterConfig::Initial(2, 1, 4);
  c.Promote(0, 3);
  EXPECT_EQ(c.FindSpare(), -1);
}

class MembershipTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 8;
  MembershipTest()
      : simulator_(7), fabric_(&simulator_, kNodes),
        group_(&fabric_, 3, 2) {
    group_.SetOnConfig([this](net::NodeId node, const ClusterConfig& config) {
      last_config_[node] = config;
    });
  }

  sim::Simulator simulator_;
  net::Fabric fabric_;
  MembershipGroup group_;
  std::map<net::NodeId, ClusterConfig> last_config_;
};

TEST_F(MembershipTest, SteadyStateKeepsEpoch) {
  group_.Start();
  simulator_.RunUntil(500 * sim::kMillisecond);
  EXPECT_EQ(group_.CurrentLeader(), 0u);
  for (uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(group_.ConfigView(n).epoch, 1u);
  }
}

TEST_F(MembershipTest, CoordinatorFailurePromotesSpare) {
  group_.Start();
  simulator_.RunUntil(100 * sim::kMillisecond);
  group_.InjectFailure(2);  // coordinator of shard 2
  simulator_.RunUntil(300 * sim::kMillisecond);
  // All live nodes converge on a config where node 5 (first spare) holds
  // shard 2.
  for (uint32_t n = 0; n < kNodes; ++n) {
    if (n == 2) {
      continue;
    }
    const ClusterConfig& c = group_.ConfigView(n);
    EXPECT_GE(c.epoch, 2u) << "node " << n;
    EXPECT_EQ(c.Current().CoordinatorOfShard(2), 5u) << "node " << n;
    EXPECT_TRUE(c.failed[2]);
  }
  // Callbacks fired on live nodes.
  EXPECT_GE(last_config_.size(), kNodes - 1);
}

TEST_F(MembershipTest, SpareFailureOnlyBumpsEpoch) {
  group_.Start();
  simulator_.RunUntil(100 * sim::kMillisecond);
  group_.InjectFailure(7);  // a spare
  simulator_.RunUntil(300 * sim::kMillisecond);
  const ClusterConfig& c = group_.ConfigView(0);
  EXPECT_TRUE(c.failed[7]);
  // Slots unchanged.
  for (uint32_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(c.Current().NodeOfSlot(slot), slot);
  }
}

TEST_F(MembershipTest, LeaderFailureElectsLowestSurvivor) {
  group_.Start();
  simulator_.RunUntil(100 * sim::kMillisecond);
  group_.InjectFailure(0);  // the leader (and coordinator of shard 0)
  simulator_.RunUntil(500 * sim::kMillisecond);
  const net::NodeId leader = group_.CurrentLeader();
  EXPECT_EQ(leader, 1u);
  // The dead leader's shard was re-homed to a spare.
  const ClusterConfig& c = group_.ConfigView(1);
  EXPECT_TRUE(c.failed[0]);
  EXPECT_EQ(c.Current().CoordinatorOfShard(0), 5u);
  // Followers learned about the new leader.
  for (uint32_t n = 1; n < kNodes; ++n) {
    EXPECT_EQ(group_.ConfigView(n).leader, 1u) << "node " << n;
  }
}

TEST_F(MembershipTest, ForceDetectSkipsTimeout) {
  group_.Start();
  simulator_.RunUntil(20 * sim::kMillisecond);
  const sim::SimTime before = simulator_.now();
  group_.ForceDetect(3);
  simulator_.RunUntil(before + 5 * sim::kMillisecond);
  // Config change propagated within a heartbeat-free window (no 35 ms
  // timeout involved).
  EXPECT_GE(group_.ConfigView(0).epoch, 2u);
  EXPECT_TRUE(group_.ConfigView(0).failed[3]);
}

// ---- §16 fast failover: revoke-then-promote ----

class FastMembershipTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 8;
  FastMembershipTest()
      : simulator_(7), fabric_(&simulator_, kNodes), group_(&fabric_, 3, 2) {}

  sim::Simulator simulator_;
  net::Fabric fabric_;
  MembershipGroup group_;
};

TEST_F(FastMembershipTest, ReportSuspectRevokesThenPromotesInMicroseconds) {
  group_.Start();
  simulator_.RunUntil(20 * sim::kMillisecond);
  const sim::SimTime t0 = simulator_.now();
  group_.ReportSuspect(2);  // coordinator of shard 2
  // The whole round — d one-sided revocations at the witnesses, epoch bump,
  // spare promotion — completes in microseconds, not heartbeat periods.
  simulator_.RunUntil(t0 + 200 * sim::kMicrosecond);
  const ClusterConfig& c = group_.ConfigView(group_.CurrentLeader());
  EXPECT_GE(c.epoch, 2u);
  EXPECT_TRUE(c.failed[2]);
  EXPECT_EQ(c.Current().CoordinatorOfShard(2), 5u);
  EXPECT_EQ(group_.fast_failovers(), 1u);
  EXPECT_GE(group_.revocations_issued(), 2u);  // one per witness, d = 2
}

TEST_F(FastMembershipTest, FalseSuspicionFencesThenReadmitsLiveNode) {
  group_.Start();
  simulator_.RunUntil(20 * sim::kMillisecond);
  const sim::SimTime t0 = simulator_.now();
  group_.ReportSuspect(2);  // node 2 is alive: a false suspicion
  // Right after the revoke round (before node 2's next tick can petition)
  // the live node is fenced out like a dead one.
  simulator_.RunUntil(t0 + 100 * sim::kMicrosecond);
  EXPECT_TRUE(group_.ConfigView(group_.CurrentLeader()).failed[2]);
  // The fenced node hears the epoch bump, steps down, and petitions for
  // readmission; within a few heartbeat periods it is a live spare again.
  simulator_.RunUntil(300 * sim::kMillisecond);
  const ClusterConfig& c = group_.ConfigView(group_.CurrentLeader());
  EXPECT_FALSE(c.failed[2]);
  EXPECT_FALSE(c.IsCoordinator(2));  // its old slot stays with the spare
  EXPECT_EQ(c.Current().CoordinatorOfShard(2), 5u);
}

TEST_F(FastMembershipTest, DeadLeaderNacksTriggerRevokeTakeOver) {
  group_.Start();
  simulator_.RunUntil(20 * sim::kMillisecond);
  group_.InjectFailure(0);  // the leader; no ForceDetect — NACKs report it
  // The next heartbeat bounces off the dead fabric node; the NACK routes
  // suspicion to the takeover candidate without waiting out the ranked
  // election timeout.
  simulator_.RunUntil(60 * sim::kMillisecond);
  EXPECT_EQ(group_.CurrentLeader(), 1u);
  const ClusterConfig& c = group_.ConfigView(1);
  EXPECT_TRUE(c.failed[0]);
  EXPECT_EQ(c.Current().CoordinatorOfShard(0), 5u);
  EXPECT_GE(group_.fast_failovers(), 1u);
}

TEST_F(FastMembershipTest, ForceDetectRoutesThroughRevokeThenPromote) {
  group_.Start();
  simulator_.RunUntil(20 * sim::kMillisecond);
  group_.ForceDetect(3);
  simulator_.RunUntil(25 * sim::kMillisecond);
  EXPECT_TRUE(group_.ConfigView(0).failed[3]);
  EXPECT_GE(group_.fast_failovers(), 1u);
  EXPECT_GE(group_.revocations_issued(), 1u);
}

TEST_F(MembershipTest, CascadingFailuresConsumeSpares) {
  group_.Start();
  simulator_.RunUntil(50 * sim::kMillisecond);
  group_.InjectFailure(1);
  simulator_.RunUntil(300 * sim::kMillisecond);
  group_.InjectFailure(5);  // the spare that replaced node 1
  simulator_.RunUntil(600 * sim::kMillisecond);
  const ClusterConfig& c = group_.ConfigView(0);
  EXPECT_TRUE(c.failed[1]);
  EXPECT_TRUE(c.failed[5]);
  EXPECT_EQ(c.Current().CoordinatorOfShard(1), 6u);  // next spare took over
}

}  // namespace
}  // namespace ring::consensus
