// Failure matrix: every (victim node x storage scheme x detection mode)
// combination on the standard 5-node deployment must preserve all committed
// reliably-stored data byte-exactly, and the cluster must keep serving new
// traffic afterwards.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "src/common/hash.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

// Post-detection settle time: spare promotion, metadata fetch, and parity
// rebuild all finish well within this.
constexpr sim::SimTime kRecoverySlack = 30 * sim::kMillisecond;

// Worst-case window until a dead *leader* is replaced: the ranked election
// adds up to half a heartbeat period per candidate rank, then the new
// leader must detect and handle the failure.
uint64_t ElectionWindowNs(const sim::SimParams& p, uint32_t candidates) {
  return p.detection_window_ns() + candidates * p.heartbeat_period_ns / 2 +
         p.heartbeat_period_ns;
}

struct Case {
  net::NodeId victim;
  bool erasure;      // SRS(3,2) vs Rep(3)
  bool force_detect; // immediate detection vs heartbeat timeout
  bool recover = false;  // crash-recovery: restart the victim and rejoin
};

class FailureMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(FailureMatrixTest, CommittedDataSurvivesAndClusterServes) {
  const Case c = GetParam();
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 2;
  o.clients = 1;
  o.seed = 1000 + c.victim * 10 + c.erasure;
  RingCluster cluster(o);
  const auto& p = o.params;
  const MemgestId g = *cluster.CreateMemgest(
      c.erasure ? MemgestDescriptor::ErasureCoded(3, 2)
                : MemgestDescriptor::Replicated(3));

  std::map<Key, Buffer> committed;
  for (int i = 0; i < 30; ++i) {
    const Key key = "fm-" + std::to_string(i);
    Buffer value = MakePatternBuffer(200 + 137 * i, i);
    ASSERT_TRUE(cluster.Put(key, value, g).ok()) << key;
    committed[key] = std::move(value);
  }

  cluster.KillNode(c.victim, c.force_detect);
  // Worst-case window until the failure is handled (election included when
  // the victim led the cluster) plus recovery time.
  cluster.RunFor(c.force_detect
                     ? kRecoverySlack
                     : ElectionWindowNs(p, o.s + o.d + o.spares) +
                           kRecoverySlack);

  if (c.recover) {
    // The victim reboots memory-less and petitions for readmission. Its
    // old slot is already re-staffed by a spare, so it rejoins the spare
    // pool; all committed data must still read back byte-exactly.
    cluster.RestartNode(c.victim);
    cluster.RunFor(p.detection_window_ns() + kRecoverySlack);
  }

  EXPECT_EQ(cluster.CheckKeyDirectories(), "") << "victim=" << c.victim;
  EXPECT_EQ(cluster.OpsInFlight(), 0u) << "victim=" << c.victim;
  for (const auto& [key, value] : committed) {
    auto got = cluster.Get(key);
    ASSERT_TRUE(got.ok()) << key << " victim=" << c.victim;
    EXPECT_EQ(*got, value) << key;
  }
  // The cluster accepts and re-reads new writes on every shard.
  for (int i = 0; i < 9; ++i) {
    const Key key = "post-" + std::to_string(i);
    const Buffer value = MakePatternBuffer(300 + i, 99 + i);
    ASSERT_TRUE(cluster.Put(key, value, g).ok()) << key;
    auto got = cluster.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  if (c.recover) {
    // The rejoined node is a live member again (not marked failed).
    const auto& config =
        cluster.runtime().membership().ConfigView(cluster.runtime().leader_node());
    EXPECT_FALSE(config.failed[c.victim]) << "victim not readmitted";
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (net::NodeId victim = 0; victim < 5; ++victim) {
    for (bool erasure : {false, true}) {
      // Heartbeat detection exercised on a subset (it is slow in sim time);
      // force-detect covers every node.
      cases.push_back({victim, erasure, true});
    }
  }
  cases.push_back({1, true, false});
  cases.push_back({3, false, false});
  // Crash-recovery column: the victim restarts memory-less and rejoins.
  cases.push_back({1, false, true, /*recover=*/true});
  cases.push_back({2, true, true, /*recover=*/true});
  cases.push_back({0, true, false, /*recover=*/true});  // leader crash
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FailureMatrixTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string("victim") + std::to_string(info.param.victim) +
             (info.param.erasure ? "_srs32" : "_rep3") +
             (info.param.force_detect ? "_forced" : "_heartbeat") +
             (info.param.recover ? "_rejoin" : "");
    });

// Crash-recovery with an empty spare pool: the victim's slot stays dark
// until the node itself reboots and petitions; the leader hands the slot
// back and the node rebuilds it from the surviving redundancy. Committed
// replicated data must come back byte-exactly through the restarted node.
TEST(CrashRecoveryTest, RejoinReclaimsOwnSlotWhenNoSpareExists) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 0;
  o.seed = 81;
  RingCluster cluster(o);
  const auto& p = o.params;
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  std::map<Key, Buffer> committed;
  for (int i = 0; i < 20; ++i) {
    const Key key = "cr-" + std::to_string(i);
    Buffer value = MakePatternBuffer(100 + 53 * i, i);
    ASSERT_TRUE(cluster.Put(key, value, g).ok()) << key;
    committed[key] = std::move(value);
  }
  cluster.KillNode(1, /*force_detect=*/false);
  cluster.RunFor(p.detection_window_ns() + kRecoverySlack);
  // Slot 1 is dark (no spare): its shard is unavailable, not wrong.
  cluster.RestartNode(1);
  cluster.RunFor(p.detection_window_ns() + kRecoverySlack);
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");
  EXPECT_EQ(cluster.OpsInFlight(), 0u);
  for (const auto& [key, value] : committed) {
    auto got = cluster.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  // The restarted node runs its old slot again.
  const auto& config =
      cluster.runtime().membership().ConfigView(cluster.runtime().leader_node());
  EXPECT_FALSE(config.failed[1]);
  EXPECT_EQ(config.node_of_slot[config.slot_of_node[1]], 1u);
}

// A restart keeps the node's counters: they count what it has done since
// it was built, so a delta taken across the restart (the rebalance driver's
// keys moved, e2e_bench's window sums) never goes back.
TEST(CrashRecoveryTest, ARestartKeepsTheCounters) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 0;
  o.seed = 82;
  RingCluster cluster(o);
  const auto& p = o.params;
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Put("rc-" + std::to_string(i), "v", g).ok());
  }
  const RingServer::Counters before = cluster.server(1).counters();
  ASSERT_GT(before.puts, 0u);
  ASSERT_GT(before.replica_appends, 0u);
  cluster.KillNode(1, /*force_detect=*/false);
  cluster.RunFor(p.detection_window_ns() + kRecoverySlack);
  cluster.RestartNode(1);
  cluster.RunFor(p.detection_window_ns() + kRecoverySlack);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Put("rc-" + std::to_string(i), "w", g).ok());
  }
  using C = RingServer::Counters;
  const C& after = cluster.server(1).counters();
  for (uint64_t C::*field :
       {&C::puts, &C::moves, &C::parity_updates, &C::replica_appends,
        &C::blocks_recovered, &C::deferred_gets, &C::nonblocking_gets,
        &C::resent_replies, &C::dup_backups, &C::retransmits,
        &C::op_restarts, &C::forwards, &C::fenced_drops, &C::keys_migrated,
        &C::bytes_moved, &C::keys_reencoded, &C::installs}) {
    EXPECT_GE(after.*field, before.*field);
  }
  EXPECT_GT(after.puts, before.puts);
}

TEST(DoubleFailureTest, Srs32ToleratesTwoSequentialFailures) {
  // A data coordinator (node 1) and a parity home (node 3) fail one after
  // the other, each after the previous recovery finished, in both orders.
  // With the parity node first, the promoted parity spare's installed
  // table copies are the metadata source of the data node's promotion.
  for (const bool data_first : {true, false}) {
    SCOPED_TRACE(data_first ? "data node first" : "parity node first");
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = 2;
    o.seed = 77;
    RingCluster cluster(o);
    const MemgestId g =
        *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
    std::map<Key, Buffer> committed;
    for (int i = 0; i < 20; ++i) {
      const Key key = "df-" + std::to_string(i);
      Buffer value = MakePatternBuffer(400 + 41 * i, i);
      ASSERT_TRUE(cluster.Put(key, value, g).ok());
      committed[key] = std::move(value);
    }
    cluster.KillNode(data_first ? 1 : 3, /*force_detect=*/true);
    cluster.RunFor(50 * sim::kMillisecond);
    cluster.KillNode(data_first ? 3 : 1, /*force_detect=*/true);
    cluster.RunFor(50 * sim::kMillisecond);
    EXPECT_EQ(cluster.CheckKeyDirectories(), "");
    EXPECT_EQ(cluster.OpsInFlight(), 0u);
    for (const auto& [key, value] : committed) {
      auto got = cluster.Get(key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(*got, value) << key;
    }
  }
}

TEST(DoubleFailureTest, Rep3SurvivesCoordinatorAndReplica) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 2;
  o.seed = 78;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "rr-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  }();
  const Buffer value = MakePatternBuffer(2000, 5);
  ASSERT_TRUE(cluster.Put(key, value, g).ok());
  // Shard 1's copies live on slots 1 (primary), 2, 3. Kill two of them with
  // recovery time in between.
  cluster.KillNode(1, /*force_detect=*/true);
  cluster.RunFor(50 * sim::kMillisecond);
  cluster.KillNode(2, /*force_detect=*/true);
  cluster.RunFor(50 * sim::kMillisecond);
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");
  EXPECT_EQ(cluster.OpsInFlight(), 0u);
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
}

// A promoted coordinator must number its writes above the survivors' replay
// fences. Numbered from its fetched entry count, every backup write it sent
// read as a replay and was re-acked without applying, and a second failure
// lost every write acknowledged after the first (the fence bug).
void ExpectWritesAfterAPromotionSurviveTheNextFailure(
    const MemgestDescriptor& desc) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 2;
  o.seed = 1;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(desc);
  auto shard1_key = [](const std::string& prefix, int salt) {
    for (int i = 0;; ++i) {
      Key k = prefix + std::to_string(salt) + "-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  };
  auto dup_backups = [&cluster] {
    uint64_t total = 0;
    for (net::NodeId n = 0; n < cluster.runtime().num_server_nodes(); ++n) {
      total += cluster.server(n).counters().dup_backups;
    }
    return total;
  };
  // 5000 writes of one key drive shard 1's write sequence, and with it the
  // backups' fences, far above the shard's live entry count.
  const Key hot = shard1_key("hot-", 0);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(cluster.Put(hot, MakePatternBuffer(64, i), g).ok()) << i;
  }
  cluster.KillNode(1, /*force_detect=*/true);
  cluster.RunFor(5 * sim::kMillisecond);
  const uint64_t dups_before = dup_backups();
  std::map<Key, Buffer> fresh;
  for (int i = 0; i < 10; ++i) {
    const Key key = shard1_key("fresh-", i);
    Buffer value = MakePatternBuffer(300 + 97 * i, i);
    ASSERT_TRUE(cluster.Put(key, value, g).ok()) << key;
    fresh[key] = std::move(value);
  }
  // A backup write swallowed as a replay counts as a duplicate; a fault-free
  // run has none.
  EXPECT_EQ(dup_backups(), dups_before);
  RingRuntime& rt = cluster.runtime();
  const net::NodeId promoted = rt.membership()
                                   .ConfigView(rt.leader_node())
                                   .Current()
                                   .CoordinatorOfShard(1);
  ASSERT_NE(promoted, 1u);
  cluster.KillNode(promoted, /*force_detect=*/true);
  cluster.RunFor(20 * sim::kMillisecond);
  EXPECT_EQ(cluster.CheckKeyDirectories(), "");
  EXPECT_EQ(cluster.OpsInFlight(), 0u);
  for (const auto& [key, value] : fresh) {
    auto got = cluster.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(DoubleFailureTest, Rep3WritesAfterAPromotionSurviveTheNextFailure) {
  ExpectWritesAfterAPromotionSurviveTheNextFailure(
      MemgestDescriptor::Replicated(3));
}

TEST(DoubleFailureTest, Srs32WritesAfterAPromotionSurviveTheNextFailure) {
  ExpectWritesAfterAPromotionSurviveTheNextFailure(
      MemgestDescriptor::ErasureCoded(3, 2));
}

// A promotion that a restart or a fence interrupts ends there: no metadata
// reply, retry timer, install or recovery step of the ended promotion acts
// afterwards. When they still acted, a restarted Rep(3) spare served while
// its own view marked it failed, and a restarted SRS(3,2) parity spare threw
// std::out_of_range from its metadata install or its parity rebuild.
constexpr int kPromotionKeys = 2000;
constexpr sim::SimTime kInterruptDelaysNs[] = {
    1 * sim::kMicrosecond, 5 * sim::kMicrosecond, 20 * sim::kMicrosecond,
    40 * sim::kMicrosecond};

Key PromotionKey(int i) { return "pk-" + std::to_string(i); }

// 2000 puts of 64 B to the default memgest of a PromotionOptions cluster;
// then `victim` dies and the run stops `delay` after a spare first holds a
// slot in its own view. Returns that spare.
net::NodeId StartPromotion(RingCluster& cluster, net::NodeId victim,
                           sim::SimTime delay) {
  for (int i = 0; i < kPromotionKeys; ++i) {
    EXPECT_TRUE(cluster.Put(PromotionKey(i), MakePatternBuffer(64, i)).ok());
  }
  consensus::MembershipGroup& membership = cluster.runtime().membership();
  cluster.KillNode(victim, /*force_detect=*/true);
  const RingOptions& o = cluster.runtime().options();
  const net::NodeId first_spare = o.s + o.d;
  for (sim::SimTime t = 0; t < 10 * sim::kMillisecond; t += 100) {
    cluster.RunFor(100);
    for (net::NodeId n = first_spare; n < first_spare + o.spares; ++n) {
      if (membership.ConfigView(n).slot_of_node[n] !=
          consensus::kSpareSlot) {
        cluster.RunFor(delay);
        return n;
      }
    }
  }
  ADD_FAILURE() << "no spare holds a slot 10 ms after the kill";
  return first_spare;
}

RingOptions PromotionOptions() {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 2;
  o.seed = 1;
  return o;
}

bool ServesWhileFailed(RingCluster& cluster, net::NodeId node) {
  return cluster.server(node).serving() &&
         cluster.runtime().membership().ConfigView(node).failed[node];
}

void ExpectARestartEndsThePromotion(const MemgestDescriptor& desc,
                                    net::NodeId victim) {
  for (const sim::SimTime delay : kInterruptDelaysNs) {
    SCOPED_TRACE("delay " + std::to_string(delay) + " ns");
    RingCluster cluster(PromotionOptions());
    ASSERT_TRUE(cluster.CreateMemgest(desc).ok());
    const net::NodeId spare = StartPromotion(cluster, victim, delay);
    cluster.KillNode(spare, /*force_detect=*/false);
    cluster.RestartNode(spare);
    ASSERT_NO_THROW(cluster.RunFor(2 * sim::kMillisecond));
    EXPECT_FALSE(cluster.server(spare).serving());
    ASSERT_NO_THROW(cluster.RunFor(50 * sim::kMillisecond));
    EXPECT_EQ(cluster.CheckKeyDirectories(), "");
    EXPECT_EQ(cluster.OpsInFlight(), 0u);
    for (int i = 0; i < kPromotionKeys; ++i) {
      auto got = cluster.Get(PromotionKey(i));
      ASSERT_TRUE(got.ok()) << PromotionKey(i) << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, MakePatternBuffer(64, i)) << PromotionKey(i);
    }
  }
}

void ExpectAFenceEndsThePromotion(const MemgestDescriptor& desc,
                                  net::NodeId victim) {
  for (const sim::SimTime delay : kInterruptDelaysNs) {
    SCOPED_TRACE("delay " + std::to_string(delay) + " ns");
    RingCluster cluster(PromotionOptions());
    ASSERT_TRUE(cluster.CreateMemgest(desc).ok());
    const net::NodeId spare = StartPromotion(cluster, victim, delay);
    cluster.runtime().membership().ReportSuspect(spare);
    for (sim::SimTime t = 0; t < 2 * sim::kMillisecond;
         t += 10 * sim::kMicrosecond) {
      ASSERT_NO_THROW(cluster.RunFor(10 * sim::kMicrosecond));
      ASSERT_FALSE(ServesWhileFailed(cluster, spare)) << "at +" << t << " ns";
    }
  }
}

TEST(DoubleFailureTest, Rep3RestartMidPromotionEndsThePromotion) {
  ExpectARestartEndsThePromotion(MemgestDescriptor::Replicated(3), 1);
}

TEST(DoubleFailureTest, Srs32RestartMidPromotionEndsThePromotion) {
  // Node 3 holds a parity slot.
  ExpectARestartEndsThePromotion(MemgestDescriptor::ErasureCoded(3, 2), 3);
}

TEST(DoubleFailureTest, Rep3FenceMidPromotionEndsThePromotion) {
  ExpectAFenceEndsThePromotion(MemgestDescriptor::Replicated(3), 1);
}

TEST(DoubleFailureTest, Srs32FenceMidPromotionEndsThePromotion) {
  ExpectAFenceEndsThePromotion(MemgestDescriptor::ErasureCoded(3, 2), 3);
}

// Bug 5: two SRS(3,2) data nodes that fail back to back. A decode must not
// read the other promoted data node before its background recovery has put
// the bytes in its heap; it decodes through remote parity instead.
TEST(DoubleFailureTest, Srs32BackToBackDataNodeFailuresReadBackExact) {
  for (const uint64_t seed : {1, 5, 9}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RingOptions o = PromotionOptions();
    o.seed = seed;
    RingCluster cluster(o);
    const MemgestId g =
        *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
    std::map<Key, Buffer> committed;
    for (int i = 0; i < 40; ++i) {
      Buffer value(300 + 97 * i);
      for (size_t j = 0; j < value.size(); ++j) {
        value[j] = static_cast<uint8_t>((131 * i + 7 * j) % 256);
      }
      const Key key = "k" + std::to_string(i);
      ASSERT_TRUE(cluster.Put(key, value, g).ok()) << key;
      committed[key] = std::move(value);
    }
    cluster.KillNode(1, /*force_detect=*/true);
    cluster.KillNode(2, /*force_detect=*/true);
    cluster.RunFor(100 * sim::kMillisecond);
    std::vector<Key> wrong;
    for (const auto& [key, value] : committed) {
      auto got = cluster.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      if (*got != value) {
        wrong.push_back(key);
      }
    }
    EXPECT_EQ(wrong, std::vector<Key>{}) << "keys that read wrong bytes";
  }
}

TEST(SparePoolExhaustionTest, UnrecoverableShardTimesOutGracefully) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 0;  // nobody to promote
  o.seed = 79;
  o.params.client_retry_timeout_ns = sim::kMillisecond;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "sp-" + std::to_string(i);
      if (KeyShard(k, 3) == 2) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(key, "doomed-shard", g).ok());
  cluster.KillNode(2, /*force_detect=*/true);
  cluster.RunFor(5 * sim::kMillisecond);
  // No spare: the shard is dark; the client errors out instead of hanging.
  auto got = cluster.Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  // Other shards keep working.
  const Key other = [] {
    for (int i = 0;; ++i) {
      Key k = "ok-" + std::to_string(i);
      if (KeyShard(k, 3) == 0) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(other, "alive", g).ok());
  EXPECT_TRUE(cluster.Get(other).ok());
}

}  // namespace
}  // namespace ring
