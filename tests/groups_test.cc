// Memgest groups / balancing (paper §5.4): with G rotated groups, every
// node carries coordinator, replica and parity roles, removing the skew of
// a single-group layout.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/hash.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

TEST(GroupsConfigTest, RotationCoversAllSlots) {
  // s=3, d=2, groups=5: fifteen shards, three per slot.
  auto c = consensus::ClusterConfig::Initial(3, 2, 7, 5);
  EXPECT_EQ(c.Current().num_shards(), 15u);
  std::vector<int> per_slot(5, 0);
  for (uint32_t shard = 0; shard < 15; ++shard) {
    const uint32_t slot = c.Current().SlotOfShard(shard);
    ASSERT_LT(slot, 5u);
    ++per_slot[slot];
  }
  for (int count : per_slot) {
    EXPECT_EQ(count, 3);  // perfectly balanced coordinators
  }
  // Every slot is a coordinator now.
  for (net::NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(c.IsCoordinator(n));
  }
  // Group 0 keeps the base layout.
  EXPECT_EQ(c.Current().SlotOfShard(0), 0u);
  EXPECT_EQ(c.Current().SlotOfShard(2), 2u);
  // Group 1 is rotated by one.
  EXPECT_EQ(c.Current().SlotOfShard(3), 1u);
  EXPECT_EQ(c.Current().SlotOfShard(5), 3u);
  // Redundant slots rotate too.
  EXPECT_EQ(c.Current().RedundantSlot(0, 0), 3u);
  // Parity of group 2 lands on a "data" slot.
  EXPECT_EQ(c.Current().RedundantSlot(2, 0), 0u);
}

TEST(GroupsConfigTest, ShardsOfSlotInverse) {
  auto c = consensus::ClusterConfig::Initial(3, 2, 7, 5);
  for (uint32_t slot = 0; slot < 5; ++slot) {
    for (uint32_t shard : c.Current().ShardsOfSlot(slot)) {
      EXPECT_EQ(c.Current().SlotOfShard(shard), slot);
    }
  }
}

class GroupedClusterTest : public ::testing::Test {
 protected:
  GroupedClusterTest() {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.groups = 5;
    o.spares = 2;
    o.clients = 1;
    o.seed = 321;
    cluster_ = std::make_unique<RingCluster>(o);
    rep3_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(3));
    srs32_ = *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  }
  std::unique_ptr<RingCluster> cluster_;
  MemgestId rep3_ = 0;
  MemgestId srs32_ = 0;
};

TEST_F(GroupedClusterTest, PutGetMoveAcrossGroups) {
  for (int i = 0; i < 60; ++i) {
    const Key key = "g-" + std::to_string(i);
    const Buffer value = MakePatternBuffer(300 + i * 11, i);
    const MemgestId g = (i % 2 == 0) ? rep3_ : srs32_;
    ASSERT_TRUE(cluster_->Put(key, value, g).ok()) << key;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  // Moves across schemes stay byte-exact in every group.
  for (int i = 0; i < 60; i += 7) {
    const Key key = "g-" + std::to_string(i);
    const MemgestId dst = (i % 2 == 0) ? srs32_ : rep3_;
    ASSERT_TRUE(cluster_->Move(key, dst).ok()) << key;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, MakePatternBuffer(300 + i * 11, i)) << key;
  }
}

TEST_F(GroupedClusterTest, LoadSpreadsOverAllNodes) {
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster_
                    ->Put("spread-" + std::to_string(i),
                          MakePatternBuffer(128, i), rep3_)
                    .ok());
  }
  // Every node handled a meaningful share of the puts (single-group layouts
  // leave redundant slots with zero coordinator load).
  uint64_t total = 0;
  uint64_t min_puts = ~0ULL;
  for (net::NodeId n = 0; n < 5; ++n) {
    const uint64_t puts = cluster_->server(n).counters().puts;
    total += puts;
    min_puts = std::min(min_puts, puts);
  }
  EXPECT_EQ(total, 400u);
  EXPECT_GT(min_puts, 400u / 5 / 3);  // within ~3x of perfect balance
}

TEST_F(GroupedClusterTest, ParityMemorySpreadsOverAllNodes) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_
                    ->Put("pmem-" + std::to_string(i),
                          MakePatternBuffer(2048, i), srs32_)
                    .ok());
  }
  cluster_->RunFor(2 * sim::kMillisecond);
  // With rotation every node hosts parity for some groups; in a
  // single-group cluster only the d redundant slots would.
  for (net::NodeId n = 0; n < 5; ++n) {
    EXPECT_GT(cluster_->server(n).counters().parity_updates, 0u)
        << "node " << n;
  }
}

TEST_F(GroupedClusterTest, FailureRecoveryAcrossGroups) {
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 40; ++i) {
    Key key = "fr-" + std::to_string(i);
    Buffer value = MakePatternBuffer(700 + i * 31, i);
    const MemgestId g = (i % 2 == 0) ? rep3_ : srs32_;
    ASSERT_TRUE(cluster_->Put(key, value, g).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  // Node 2 coordinates three shards and holds replica + parity roles.
  cluster_->KillNode(2, /*force_detect=*/true);
  cluster_->RunFor(30 * sim::kMillisecond);
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

}  // namespace
}  // namespace ring
