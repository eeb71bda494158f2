// Client library machinery (paper §5.5 client behaviour): request routing,
// timeout + multicast retry, duplicate suppression, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/common/hash.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

RingOptions Opts(uint64_t seed, uint64_t retry_us = 300) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 2;
  o.seed = seed;
  o.params.client_retry_timeout_ns = retry_us * sim::kMicrosecond;
  return o;
}

TEST(ClientTest, LatencyRecordedPerOperation) {
  RingCluster cluster(Opts(1));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  auto& client = cluster.client(0);
  client.ResetStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Put("k" + std::to_string(i), "v", g).ok());
  }
  EXPECT_EQ(client.completed(), 10u);
  EXPECT_EQ(client.latencies().count(), 10u);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_EQ(client.outstanding(), 0u);
  // NIC-to-NIC put latency for tiny objects is a handful of microseconds.
  EXPECT_GT(client.latencies().Median(), 3.0);
  EXPECT_LT(client.latencies().Median(), 12.0);
}

TEST(ClientTest, RetryFindsPromotedCoordinator) {
  RingCluster cluster(Opts(2));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "rt-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(key, "survives", g).ok());
  cluster.KillNode(1, /*force_detect=*/true);
  // No explicit config refresh: the first get times out against the dead
  // node, multicasts, and the promoted spare answers.
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "survives");
  EXPECT_GT(cluster.client(0).latencies().values().back(), 250.0);  // paid one retry period
}

TEST(ClientTest, MulticastRepliesDeduplicated) {
  RingCluster cluster(Opts(3, /*retry_us=*/50));  // aggressive retries
  auto g = *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  // A large EC put takes longer than the 50 us retry period, so the client
  // multicasts while the original is still in flight. The completion count
  // must still be exactly one per op.
  auto& client = cluster.client(0);
  client.ResetStats();
  int acks = 0;
  bool done = false;
  client.Put("slow", std::make_shared<Buffer>(MakePatternBuffer(8192, 1)), g,
             [&](Status s, Version) {
               EXPECT_TRUE(s.ok());
               ++acks;
               done = true;
             });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
  cluster.RunFor(5 * sim::kMillisecond);  // absorb any late duplicates
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(client.completed(), 1u);
  // The duplicate version the retry may have created is eventually GC'd;
  // reads stay consistent.
  auto got = cluster.Get("slow");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakePatternBuffer(8192, 1));
}

TEST(ClientTest, ExhaustedRetryBudgetReportsUnavailable) {
  RingOptions o = Opts(4, /*retry_us=*/100);
  o.spares = 0;
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "to-" + std::to_string(i);
      if (KeyShard(k, 3) == 0) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(key, "x", g).ok());
  cluster.KillNode(0, /*force_detect=*/false);  // leader + shard 0, no spare
  auto got = cluster.Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(cluster.client(0).timeouts(), 0u);
}

TEST(ClientTest, TwoClientsIndependentStats) {
  RingCluster cluster(Opts(5));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  cluster.client(0).ResetStats();  // drop the admin op from the counters
  cluster.client(1).ResetStats();
  ASSERT_TRUE(cluster.Put("a", "1", g, /*client=*/0).ok());
  ASSERT_TRUE(cluster.Put("b", "2", g, /*client=*/1).ok());
  ASSERT_TRUE(cluster.Get("a", /*client=*/1).ok());
  EXPECT_EQ(cluster.client(0).completed(), 1u);
  EXPECT_EQ(cluster.client(1).completed(), 2u);
}

TEST(ClientTest, AdminOpsThroughLeader) {
  RingCluster cluster(Opts(6));
  // Create / describe / set-default / delete, all via client 1.
  bool done = false;
  Result<MemgestId> created = InternalError("pending");
  cluster.client(1).CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1, "ec"),
                                  [&](Result<MemgestId> r) {
                                    created = std::move(r);
                                    done = true;
                                  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
  ASSERT_TRUE(created.ok());
  auto desc = cluster.GetMemgestDescriptor(*created);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->name, "ec");
  ASSERT_TRUE(cluster.SetDefaultMemgest(*created).ok());
  ASSERT_TRUE(cluster.Put("plain", "default-routed").ok());
  EXPECT_TRUE(cluster.Get("plain").ok());
  // The default memgest cannot be deleted.
  EXPECT_FALSE(cluster.DeleteMemgest(*created).ok());
}

// One retry timer per client: a finished op leaves nothing parked in the
// event queue. With a 200 ms timeout, a timer event per op would keep every
// put's check pending long after the put returned, so the queue would grow
// with the op count.
TEST(ClientTest, FinishedOpsParkNoRetryEvents) {
  RingCluster cluster(Opts(9, /*retry_us=*/200'000));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  cluster.RunFor(sim::kMillisecond);
  const sim::EventQueue& queue = cluster.simulator().queue();
  const size_t idle = queue.pending();  // heartbeats and other timers
  constexpr int kOps = 4000;
  constexpr int kInFlight = 32;  // per client
  constexpr uint32_t kClients = 2;
  const auto value = std::make_shared<Buffer>(ToBuffer("pipelined"));
  int issued = 0;
  int done = 0;
  size_t peak = 0;
  std::function<void(uint32_t)> issue = [&](uint32_t c) {
    const Key key = "p-" + std::to_string(issued++);
    cluster.client(c).Put(key, value, g, [&, c](Status s, Version) {
      EXPECT_TRUE(s.ok()) << s;
      ++done;
      peak = std::max(peak, queue.pending());
      if (issued < kOps) {
        issue(c);
      }
    });
  };
  for (uint32_t c = 0; c < kClients; ++c) {
    for (int i = 0; i < kInFlight; ++i) {
      issue(c);
    }
  }
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done == kOps; }));
  // Well under one retry timeout: every op's first check is still ahead.
  EXPECT_LT(cluster.simulator().now(), 100 * sim::kMillisecond);
  // A put keeps a handful of events in flight (messages, CPU completions);
  // each client adds one timer event, whatever the op count.
  const size_t in_flight_work = 8 * kClients * kInFlight;
  EXPECT_LE(peak, idle + kClients + in_flight_work);
  EXPECT_LE(queue.pending(), idle + kClients + in_flight_work);
  EXPECT_EQ(cluster.client(0).outstanding(), 0u);
  EXPECT_EQ(cluster.client(1).outstanding(), 0u);
}

// Regression: a *retried* move that gets postponed behind an uncommitted
// version (§5.2) must still answer once that version commits. The postponed
// continuation used to re-enter HandleMove with the retry flag still set, so
// the retried-request dedup map swallowed it on commit — the client burned
// through all its retries (each deduped the same way) and reported a
// spurious timeout for a move the server could have completed.
TEST(ClientTest, DeferredRetriedMoveStillReplies) {
  RingOptions o = Opts(8);
  // The move's first send, to shard 2's coordinator, is lost on the wire:
  // it reaches the server only as the client's multicast retry. Node 3 is
  // gray-paused from 1 ms on: alive on the wire, so nothing sent to it
  // bounces, and only the heartbeat timeout detects it.
  constexpr sim::SimTime kPauseAt = 1 * sim::kMillisecond;
  constexpr sim::SimTime kMoveAt = 5 * sim::kMillisecond;
  const net::NodeId mover = o.s + o.d + o.spares + 1;  // client(1)
  auto plan = fault::ParseFaultPlan("drop src=" + std::to_string(mover) +
                                    " dst=2 p=1 from=5ms until=5100us\n"
                                    "pause node=3 at=1ms resume=300ms");
  ASSERT_TRUE(plan.ok());
  o.fault_plan = *plan;
  // The move waits out failure detection (tens of ms): keep its retries
  // going that long.
  o.params.client_retry_budget_ns = 200 * sim::kMillisecond;
  RingCluster cluster(o);
  ASSERT_EQ(cluster.client(1).node(), mover);
  auto fsync =
      *cluster.CreateMemgest(MemgestDescriptor::FullSyncReplicated(2));
  auto rep1 = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "dm-" + std::to_string(i);
      if (KeyShard(k, 3) == 2) {
        return k;
      }
    }
  }();
  // Wedge the commit: the full-sync put needs an ack from its replica on
  // node 3, which is paused but not yet detected.
  ASSERT_LT(cluster.simulator().now(), kPauseAt);
  cluster.simulator().RunUntil(kPauseAt);
  bool put_done = false;
  cluster.client(0).Put(key, std::make_shared<Buffer>(ToBuffer("wedged")),
                        fsync, [&](Status, Version) { put_done = true; });
  cluster.RunFor(1 * sim::kMillisecond);
  EXPECT_FALSE(put_done);  // write-ahead done, commit pending

  // The move arrives as a client *retry* (multicast after the original was
  // lost) and is postponed behind the uncommitted version.
  ASSERT_LT(cluster.simulator().now(), kMoveAt);
  cluster.simulator().RunUntil(kMoveAt);
  const fault::FaultInjector& injector = *cluster.runtime().injector();
  const uint64_t dropped_before = injector.counters().dropped;
  const uint64_t moves_before = cluster.server(2).counters().moves;
  bool move_done = false;
  Status move_status = InternalError("no reply");
  cluster.client(1).Move(key, rep1, [&](Status s, Version) {
    move_status = s;
    move_done = true;
  });
  cluster.RunFor(1 * sim::kMillisecond);
  EXPECT_FALSE(move_done);
  EXPECT_EQ(injector.counters().dropped, dropped_before + 1);  // first send
  // Later retries of the same request are deduplicated while it waits.
  cluster.RunFor(5 * sim::kMillisecond);
  EXPECT_FALSE(move_done);
  EXPECT_EQ(cluster.server(2).counters().moves, moves_before + 1);

  // The heartbeat backstop detects node 3 and promotes the spare, the
  // pending version commits, and the postponed move re-executes — it must
  // reply despite having entered as a retry.
  cluster.RunFor(150 * sim::kMillisecond);
  ASSERT_TRUE(move_done);
  EXPECT_TRUE(move_status.ok()) << move_status;
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "wedged");
}

// ---- §16 multiversion retention + non-blocking reads ----

// Put n versions of one key synchronously; returns the acked versions in
// put order.
std::vector<Version> PutVersions(RingCluster& cluster, const Key& key,
                                 MemgestId g, int n) {
  std::vector<Version> versions;
  for (int i = 0; i < n; ++i) {
    bool done = false;
    cluster.client(0).Put(
        key, std::make_shared<Buffer>(MakePatternBuffer(128, 40 + i)), g,
        [&](Status s, Version v) {
          EXPECT_TRUE(s.ok());
          versions.push_back(v);
          done = true;
        });
    EXPECT_TRUE(cluster.RunUntilDone([&] { return done; }));
  }
  return versions;
}

TEST(MultiversionTest, GcRetainsDepthPlusNewestAndNeverEvictsNewest) {
  RingOptions o = Opts(11);
  o.multiversion_depth = 2;  // ν
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-bound";
  const std::vector<Version> versions = PutVersions(cluster, key, g, 6);
  cluster.RunFor(2 * sim::kMillisecond);  // let async redundancy GC drain
  // The coordinator keeps exactly the newest commit plus ν older committed
  // versions; every other node holds at most that many (replica copies of
  // retained versions survive with them).
  const uint32_t coordinator = KeyShard(key, 3);
  const auto at_coord =
      cluster.server(coordinator).RetainedCommittedVersions(key);
  ASSERT_EQ(at_coord.size(), 3u);
  EXPECT_EQ(at_coord[0], versions.back()) << "newest committed evicted";
  EXPECT_EQ(at_coord[1], versions[4]);
  EXPECT_EQ(at_coord[2], versions[3]);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto held = cluster.server(node).RetainedCommittedVersions(key);
    EXPECT_LE(held.size(), 3u) << "node " << node << " exceeds the ν+1 bound";
    if (!held.empty()) {
      EXPECT_EQ(held.front(), versions.back()) << "node " << node;
    }
  }
}

TEST(MultiversionTest, DepthZeroKeepsSeedSingleVersionBehaviour) {
  RingOptions o = Opts(12);  // multiversion_depth defaults to 0
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-zero";
  const std::vector<Version> versions = PutVersions(cluster, key, g, 4);
  cluster.RunFor(2 * sim::kMillisecond);
  const auto held =
      cluster.server(KeyShard(key, 3)).RetainedCommittedVersions(key);
  ASSERT_EQ(held.size(), 1u) << "ν=0 must collect every superseded version";
  EXPECT_EQ(held.front(), versions.back());
}

TEST(MultiversionTest, NonBlockingGetServesNewestCommittedDuringQuorumWait) {
  // Partition the key's replica nodes away so a put wedges mid-quorum (a
  // *pause* would not do: the gray-failed NIC still serves the one-sided
  // appends). "mv-nb" hashes to shard 0, whose Rep(3) copies ride the ring
  // successors — nodes 1 and 2. Write retransmit repairs the round after
  // the heal.
  auto plan = fault::ParseFaultPlan(
      "partition a=0,3,4,5,6,7 b=1,2 at=2ms heal=6ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  RingOptions o = Opts(13);
  o.multiversion_depth = 2;
  o.fault_plan = *plan;
  o.params.write_retransmit_ns = 300 * sim::kMicrosecond;
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-nb";
  const std::vector<Version> committed = PutVersions(cluster, key, g, 2);
  ASSERT_LT(cluster.simulator().now(), 2 * sim::kMillisecond);
  cluster.RunFor(2 * sim::kMillisecond +
                 500 * sim::kMicrosecond);  // inside the pause window
  bool put_acked = false;
  cluster.client(0).Put(key,
                        std::make_shared<Buffer>(MakePatternBuffer(128, 99)),
                        g, [&](Status, Version) { put_acked = true; });
  cluster.RunFor(500 * sim::kMicrosecond);
  ASSERT_FALSE(put_acked) << "quorum should be wedged by the paused replicas";
  // Strong reads would park behind the uncommitted head; a non-blocking
  // read returns the newest *committed* version immediately.
  GetResult nb;
  bool nb_done = false;
  cluster.client(1).Get(key, ReadMode::kNonBlocking, [&](GetResult r) {
    nb = std::move(r);
    nb_done = true;
  });
  cluster.RunFor(200 * sim::kMicrosecond);
  ASSERT_TRUE(nb_done) << "non-blocking read must not wait on the quorum";
  ASSERT_TRUE(nb.status.ok()) << nb.status;
  EXPECT_EQ(nb.version, committed.back());
  const uint32_t coordinator = KeyShard(key, 3);
  EXPECT_GE(cluster.server(coordinator).counters().nonblocking_gets, 1u);
  // After the replicas resume, the wedged put commits and the same read
  // mode advances to it — reads stay monotone.
  ASSERT_TRUE(cluster.RunUntilDone([&] { return put_acked; }));
  GetResult after;
  bool after_done = false;
  cluster.client(1).Get(key, ReadMode::kNonBlocking, [&](GetResult r) {
    after = std::move(r);
    after_done = true;
  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return after_done; }));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_GT(after.version, committed.back());
}

}  // namespace
}  // namespace ring
