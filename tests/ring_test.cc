#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/gf/gf256.h"
#include "src/ring/cluster.h"
#include "src/ring/seq_window.h"

namespace ring {
namespace {

// A key that hashes to the given shard (deterministic).
Key KeyInShard(uint32_t shard, uint32_t s, int salt = 0) {
  for (int i = 0;; ++i) {
    Key k = "key-" + std::to_string(salt) + "-" + std::to_string(i);
    if (KeyShard(k, s) == shard) {
      return k;
    }
  }
}

TEST(MemgestDescriptorTest, Basics) {
  const auto rep3 = MemgestDescriptor::Replicated(3);
  EXPECT_FALSE(rep3.unreliable());
  EXPECT_EQ(rep3.redundancy(), 2u);
  EXPECT_DOUBLE_EQ(rep3.StorageOverhead(), 3.0);
  EXPECT_EQ(rep3.ToString(), "Rep(3)");

  const auto rep1 = MemgestDescriptor::Replicated(1);
  EXPECT_TRUE(rep1.unreliable());
  EXPECT_EQ(rep1.redundancy(), 0u);

  const auto srs32 = MemgestDescriptor::ErasureCoded(3, 2);
  EXPECT_EQ(srs32.redundancy(), 2u);
  EXPECT_NEAR(srs32.StorageOverhead(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(srs32.ToString(), "SRS(3,2)");
}

TEST(VolatileIndexTest, VersionOrdering) {
  VolatileIndex idx;
  EXPECT_EQ(idx.NextVersion("a"), 1u);
  idx.Add("a", 1, 0);
  idx.Add("a", 3, 1);
  idx.Add("a", 2, 0);
  ASSERT_TRUE(idx.Highest("a").has_value());
  EXPECT_EQ(idx.Highest("a")->version, 3u);
  EXPECT_EQ(idx.Highest("a")->memgest, 1u);
  EXPECT_EQ(idx.NextVersion("a"), 4u);
  idx.Remove("a", 3);
  EXPECT_EQ(idx.Highest("a")->version, 2u);
  idx.Remove("a", 1);
  idx.Remove("a", 2);
  EXPECT_FALSE(idx.Highest("a").has_value());
}

TEST(MetadataTableTest, InsertFindErase) {
  MetadataTable t;
  MetaEntry e;
  e.version = 5;
  e.addr = 100;
  e.len = 8;
  t.Insert("k", e);
  ASSERT_NE(t.Find("k", 5), nullptr);
  EXPECT_EQ(t.Find("k", 5)->addr, 100u);
  EXPECT_EQ(t.Find("k", 4), nullptr);
  EXPECT_EQ(t.entry_count(), 1u);
  e.version = 7;
  t.Insert("k", e);
  EXPECT_EQ(t.Highest("k")->version, 7u);
  EXPECT_EQ(t.VersionsOf("k"), (std::vector<Version>{5, 7}));
  t.Erase("k", 5);
  EXPECT_EQ(t.entry_count(), 1u);
  t.Erase("k", 7);
  EXPECT_EQ(t.Highest("k"), nullptr);
}

TEST(MetaEntryTest, PendingWriteIsOutOfLineAndNeverCopied) {
  // Coordinator-only write state lives behind one pointer: the map node of
  // every mirror, parity copy and committed entry stays small.
  static_assert(sizeof(MetaEntry) <= 56);
  MetaEntry e;
  e.version = 3;
  EXPECT_EQ(e.pending, nullptr);
  EXPECT_EQ(e.acks_pending(), 0u);
  int released = 0;
  e.Pending().acks_pending = 0b10;
  e.Pending().waiters.push_back([&released] { ++released; });
  ASSERT_NE(e.pending, nullptr);
  EXPECT_EQ(e.acks_pending(), 0b10u);
  EXPECT_EQ(e.pending->waiters.size(), 1u);  // allocated once, then reused

  // Copies are metadata snapshots (recovery transfers): durable fields only.
  const MetaEntry copy = e;
  EXPECT_EQ(copy.version, 3u);
  EXPECT_EQ(copy.pending, nullptr);
  MetadataTable t;
  t.Insert("k", e);
  EXPECT_EQ(t.Find("k", 3)->pending, nullptr);
  MetadataTable snapshot;
  snapshot = t;
  EXPECT_EQ(snapshot.Find("k", 3)->pending, nullptr);

  // Moves keep the waiters.
  MetaEntry moved = std::move(e);
  ASSERT_NE(moved.pending, nullptr);
  moved.pending->waiters.front()();
  EXPECT_EQ(released, 1);
}

TEST(EarlyGcSetTest, ConsumesOnceAndEvictsOldestPastTheWindow) {
  EarlyGcSet set;
  set.Record(0, "a", 1);
  EXPECT_TRUE(set.Contains(0, "a", 1));
  EXPECT_FALSE(set.Contains(1, "a", 1));
  EXPECT_FALSE(set.Contains(0, "b", 1));
  EXPECT_FALSE(set.Contains(0, "a", 2));
  EXPECT_TRUE(set.Consume(0, "a", 1));
  EXPECT_FALSE(set.Consume(0, "a", 1));
  EXPECT_EQ(set.size(), 0u);

  const Version window = EarlyGcSet::kWindow;
  for (Version v = 1; v <= window + 1; ++v) {
    set.Record(2, "k", v);
  }
  EXPECT_EQ(set.size(), window);
  EXPECT_FALSE(set.Contains(2, "k", 1));  // the oldest aged out
  EXPECT_TRUE(set.Contains(2, "k", 2));
  EXPECT_TRUE(set.Consume(2, "k", window + 1));
  EXPECT_EQ(set.size(), window - 1);
}

// The replay fence as first written, one std::set node per held sequence:
// the reference model the run-length SeqWindow must match step for step.
struct SetSeqWindow {
  std::set<uint64_t> seen;
  uint64_t min_retained = 0;

  bool MarkOnce(uint64_t seq) {
    if (seq < min_retained || !seen.insert(seq).second) {
      return false;
    }
    while (seen.size() > SeqWindow::kWindow) {
      min_retained = *seen.begin() + 1;
      seen.erase(seen.begin());
    }
    return true;
  }
};

TEST(SeqWindowTest, MatchesSetReferenceOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    SeqWindow fast;
    SetSeqWindow ref;
    uint64_t next = 1;  // next fresh sequence a coordinator would issue
    for (int step = 0; step < 20000; ++step) {
      uint64_t seq = next;
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:  // in order
          seq = next++;
          break;
        case 2:  // gap: some sequences are lost (or still in flight)
          next += 1 + rng.NextBelow(8);
          seq = next++;
          break;
        case 3:  // duplicate or late arrival of a recent sequence
          seq = next - 1 - rng.NextBelow(std::min<uint64_t>(next - 1, 64));
          break;
        case 4:  // reordered ahead of its predecessors
          seq = next + rng.NextBelow(32);
          break;
        default:  // far behind: around and below the window's low edge
          seq = next > 6000 ? next - 3000 - rng.NextBelow(3000) : next;
          break;
      }
      ASSERT_EQ(fast.MarkOnce(seq), ref.MarkOnce(seq))
          << "seed " << seed << " step " << step << " seq " << seq;
      ASSERT_EQ(fast.min_retained(), ref.min_retained)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(fast.size(), ref.seen.size());
    }
    EXPECT_GT(fast.min_retained(), 0u) << "window never slid, seed " << seed;
  }
}

TEST(SeqWindowTest, InOrderStreamIsOneRun) {
  SeqWindow w;
  for (uint64_t seq = 1; seq <= 100000; ++seq) {
    ASSERT_TRUE(w.MarkOnce(seq));
  }
  EXPECT_EQ(w.runs(), 1u);
  EXPECT_EQ(w.size(), SeqWindow::kWindow);
  EXPECT_EQ(w.min_retained(), 100000 - SeqWindow::kWindow + 1);
  EXPECT_FALSE(w.MarkOnce(100000));  // held
  EXPECT_FALSE(w.MarkOnce(5));       // below the window
  EXPECT_TRUE(w.MarkOnce(100002));   // a gap opens a second run
  EXPECT_EQ(w.runs(), 2u);
  EXPECT_TRUE(w.MarkOnce(100001));  // and closing it merges them again
  EXPECT_EQ(w.runs(), 1u);
}

TEST(MemgestRegistryTest, CreateAndPlacement) {
  MemgestRegistry reg(3, 2);
  auto rep3 = reg.Create(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(rep3.ok());
  auto srs = reg.Create(MemgestDescriptor::ErasureCoded(2, 1));
  ASSERT_TRUE(srs.ok());
  EXPECT_EQ(reg.count(), 2u);
  EXPECT_EQ(reg.default_id(), *rep3);

  const MemgestInfo* info = reg.Get(*rep3);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(reg.ReplicaSlots(*info, 0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(reg.ReplicaSlots(*info, 2), (std::vector<uint32_t>{3, 4}));

  const MemgestInfo* ec = reg.Get(*srs);
  ASSERT_NE(ec, nullptr);
  ASSERT_NE(ec->code, nullptr);
  EXPECT_EQ(ec->code->s(), 3u);
  EXPECT_EQ(reg.ParitySlots(*ec, 0), (std::vector<uint32_t>{3}));

  // Validation.
  EXPECT_FALSE(reg.Create(MemgestDescriptor::Replicated(6)).ok());   // > s+d
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(4, 1)).ok());  // k>s
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(3, 3)).ok());  // m>d
}

// ---------------------------------------------------------------------------
// End-to-end KVS behaviour

class RingKvsTest : public ::testing::Test {
 protected:
  RingOptions DefaultOptions() {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = 2;
    o.clients = 2;
    o.seed = 99;
    return o;
  }

  void SetUpCluster(RingOptions o) {
    cluster_ = std::make_unique<RingCluster>(o);
    rep1_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(1, "rep1"));
    rep3_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(3, "rep3"));
    srs21_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1, "srs21"));
    srs32_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
  }

  void SetUp() override { SetUpCluster(DefaultOptions()); }

  std::unique_ptr<RingCluster> cluster_;
  MemgestId rep1_ = 0;
  MemgestId rep3_ = 0;
  MemgestId srs21_ = 0;
  MemgestId srs32_ = 0;
};

TEST_F(RingKvsTest, PutGetRoundTripAllMemgests) {
  for (MemgestId g : {rep1_, rep3_, srs21_, srs32_}) {
    for (size_t size : {1u, 17u, 1024u, 5000u}) {
      const Key key = "k-" + std::to_string(g) + "-" + std::to_string(size);
      const Buffer value = MakePatternBuffer(size, g * 1000 + size);
      ASSERT_TRUE(cluster_->Put(key, value, g).ok()) << g << " " << size;
      auto got = cluster_->Get(key);
      ASSERT_TRUE(got.ok()) << g << " " << size;
      EXPECT_EQ(*got, value) << g << " " << size;
    }
  }
}

TEST_F(RingKvsTest, GetMissingKeyIsNotFound) {
  auto got = cluster_->Get("nope");
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, OverwriteReturnsLatest) {
  const Key key = "overwrite";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cluster_->Put(key, "value-" + std::to_string(i), rep3_).ok());
  }
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "value-4");
}

TEST_F(RingKvsTest, OverwriteAcrossMemgests) {
  // Paper §5.2: versions may live in different memgests; the highest wins.
  const Key key = "cross";
  ASSERT_TRUE(cluster_->Put(key, "in-rep3", rep3_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-srs32", srs32_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-rep1", rep1_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "in-rep1");
}

TEST_F(RingKvsTest, DeleteRemovesKey) {
  const Key key = "todelete";
  ASSERT_TRUE(cluster_->Put(key, "payload", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  auto got = cluster_->Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // Deleting a missing key reports NotFound.
  EXPECT_EQ(cluster_->Delete("never-existed").code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutAfterDeleteRevives) {
  const Key key = "lazarus";
  ASSERT_TRUE(cluster_->Put(key, "v1", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  ASSERT_TRUE(cluster_->Put(key, "v2", srs21_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v2");
}

TEST_F(RingKvsTest, MoveAcrossMemgestsPreservesValue) {
  const Buffer value = MakePatternBuffer(2048, 7);
  const Key key = "mover";
  ASSERT_TRUE(cluster_->Put(key, value, rep1_).ok());
  // rep1 -> srs32 -> rep3 -> srs21 -> rep1
  for (MemgestId dst : {srs32_, rep3_, srs21_, rep1_}) {
    ASSERT_TRUE(cluster_->Move(key, dst).ok()) << dst;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << dst;
    EXPECT_EQ(*got, value) << dst;
  }
}

TEST_F(RingKvsTest, MoveMissingKeyIsNotFound) {
  EXPECT_EQ(cluster_->Move("ghost", rep3_).code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutToUnknownMemgestRejected) {
  EXPECT_EQ(cluster_->Put("k", "v", 999).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, ConcurrentPutsSerializeByVersion) {
  // Two clients race puts on one key; a subsequent read must return the
  // version committed last (highest version; Fig. 5 semantics).
  const Key key = "race";
  int done = 0;
  cluster_->client(0).Put(key, std::make_shared<Buffer>(ToBuffer("from-0")),
                          srs32_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  cluster_->client(1).Put(key, std::make_shared<Buffer>(ToBuffer("from-1")),
                          rep1_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return done == 2; }));
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  // Both committed; the get sees whichever version is higher — determined
  // by coordinator arrival order, not by commit speed. The value must be
  // one of the two, and repeated gets agree (strong consistency).
  const std::string v1 = ToString(*got);
  EXPECT_TRUE(v1 == "from-0" || v1 == "from-1");
  auto again = cluster_->Get(key, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(*again), v1);
}

TEST_F(RingKvsTest, GetIssuedDuringSlowPutReturnsNewVersion) {
  // Fig. 5 client D: a get that observes an uncommitted higher version is
  // deferred and answers with that version once committed.
  const Key key = "deferred";
  ASSERT_TRUE(cluster_->Put(key, "old", rep1_).ok());
  bool put_done = false;
  bool get_done = false;
  Buffer got_value;
  // Slow put (4 KiB into SRS32: GF delta work + two parity round trips keep
  // the version uncommitted for ~10 us) with a get injected mid-window: the
  // write-ahead version exists but is not yet durable when the get is
  // processed, so the reply must be deferred to commit time (Fig. 5).
  const Buffer new_value = MakePatternBuffer(4096, 1234);
  cluster_->client(0).Put(key, std::make_shared<Buffer>(new_value), srs32_,
                          [&](Status s, Version) {
                            EXPECT_TRUE(s.ok());
                            put_done = true;
                          });
  cluster_->simulator().After(10 * sim::kMicrosecond, [&] {
    cluster_->client(1).Get(key, [&](GetResult r) {
      ASSERT_TRUE(r.status.ok());
      got_value = *r.data;
      get_done = true;
    });
  });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return put_done && get_done; }));
  EXPECT_EQ(got_value, new_value);
  const net::NodeId coord = KeyShard(key, 3);
  EXPECT_GT(cluster_->server(coord).counters().deferred_gets, 0u);
}

TEST_F(RingKvsTest, ParityInvariantHoldsAfterChurn) {
  // White-box: after puts, overwrites, moves and deletes, every parity
  // node's buffer must equal the SRS-encoding of the data heaps.
  auto& rt = cluster_->runtime();
  const MemgestInfo* info = rt.registry().Get(srs32_);
  ASSERT_NE(info, nullptr);
  for (int i = 0; i < 40; ++i) {
    const Key key = "churn-" + std::to_string(i % 13);
    ASSERT_TRUE(cluster_
                    ->Put(key, MakePatternBuffer(64 + 97 * i % 3000, i),
                          srs32_)
                    .ok());
    if (i % 5 == 2) {
      ASSERT_TRUE(cluster_->Move(key, srs32_).ok()) << i;
    }
    if (i % 7 == 3) {
      ASSERT_TRUE(cluster_->Delete(key).ok()) << i;
    }
  }
  cluster_->RunFor(5 * sim::kMillisecond);  // drain async GC notices

  const uint32_t s = 3;
  for (uint32_t j = 0; j < 2; ++j) {
    auto& parity_server = cluster_->server(s + j);
    // Expected parity: encode all data heaps through the address map.
    uint64_t max_extent = 0;
    for (uint32_t shard = 0; shard < s; ++shard) {
      max_extent = std::max(
          max_extent, cluster_->server(shard).HeapExtent(srs32_, shard));
    }
    const uint64_t pextent = info->map->ParityExtent(max_extent);
    Buffer expected(pextent, 0);
    for (uint32_t shard = 0; shard < s; ++shard) {
      const uint64_t extent =
          cluster_->server(shard).HeapExtent(srs32_, shard);
      Buffer heap = cluster_->server(shard).ReadRawForRecovery(
          srs32_, shard, 0, static_cast<uint32_t>(extent));
      for (const auto& seg : info->map->MapDataRange(shard, 0, extent)) {
        gf::MulAddRegion(
            info->code->rs().Coefficient(j, seg.rs_block),
            ByteSpan(heap.data() + seg.node_offset, seg.length),
            MutableByteSpan(expected.data() + seg.parity_offset, seg.length));
      }
    }
    Buffer actual = parity_server.ReadRawParity(
        srs32_, /*group=*/0, 0, static_cast<uint32_t>(pextent));
    EXPECT_EQ(actual, expected) << "parity node " << j;
  }
}

TEST_F(RingKvsTest, StorageOverheadMatchesSchemes) {
  // Fresh cluster per scheme keeps the accounting clean.
  for (auto [desc, factor] :
       std::vector<std::pair<MemgestDescriptor, double>>{
           {MemgestDescriptor::Replicated(1), 1.0},
           {MemgestDescriptor::Replicated(3), 3.0},
           {MemgestDescriptor::ErasureCoded(3, 2), 5.0 / 3.0},
       }) {
    RingCluster cluster(DefaultOptions());
    auto g = cluster.CreateMemgest(desc);
    ASSERT_TRUE(g.ok());
    const size_t object = 4096;
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      .Put("k" + std::to_string(i),
                           MakePatternBuffer(object, i), *g)
                      .ok());
    }
    cluster.RunFor(2 * sim::kMillisecond);
    uint64_t stored = 0;
    for (net::NodeId node = 0; node < 5; ++node) {
      stored += cluster.server(node).StoredBytes();
    }
    const double ratio =
        static_cast<double>(stored) / (static_cast<double>(object) * n);
    // Parity extents round up to whole rows, so allow ~25% slack.
    EXPECT_NEAR(ratio, factor, factor * 0.30) << desc.ToString();
  }
}

// ---------------------------------------------------------------------------
// Failures and recovery

TEST_F(RingKvsTest, CoordinatorFailureRecoversReplicatedData) {
  const uint32_t victim_shard = 1;  // node 1: coordinator, not the leader
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 10; ++i) {
    Key key = KeyInShard(victim_shard, 3, i);
    Buffer value = MakePatternBuffer(700 + i * 31, i);
    ASSERT_TRUE(cluster_->Put(key, value, rep3_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  // The spare (node 5) must now coordinate shard 1 and serve all keys,
  // recovering data from replicas on demand.
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  EXPECT_GT(cluster_->server(5).counters().blocks_recovered, 0u);
}

TEST_F(RingKvsTest, CoordinatorFailureRecoversErasureCodedData) {
  const uint32_t victim_shard = 2;
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 8; ++i) {
    Key key = KeyInShard(victim_shard, 3, 100 + i);
    Buffer value = MakePatternBuffer(900 + i * 57, 100 + i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(2, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;  // decoded via parity, byte-exact
  }
}

TEST_F(RingKvsTest, UnreliableMemgestLosesDataOnFailure) {
  const uint32_t victim_shard = 1;
  const Key key = KeyInShard(victim_shard, 3, 500);
  ASSERT_TRUE(cluster_->Put(key, "ephemeral", rep1_).ok());
  // A reliably stored key on the same shard survives.
  const Key safe = KeyInShard(victim_shard, 3, 501);
  ASSERT_TRUE(cluster_->Put(safe, "durable", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  auto lost = cluster_->Get(key);
  EXPECT_FALSE(lost.ok());
  auto kept = cluster_->Get(safe);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(ToString(*kept), "durable");
}

TEST_F(RingKvsTest, ParityNodeFailureRebuildsAndServes) {
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 6; ++i) {
    Key key = "pf-" + std::to_string(i);
    Buffer value = MakePatternBuffer(1200 + i * 13, i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  // Node 3 hosts parity 0 of srs32 (and srs21).
  cluster_->KillNode(3, /*force_detect=*/true);
  cluster_->RunFor(10 * sim::kMillisecond);  // promotion + parity rebuild
  // New puts to the EC memgest still commit (the promoted parity answers).
  ASSERT_TRUE(cluster_->Put("pf-new", MakePatternBuffer(800, 42), srs32_)
                  .ok());
  // Now kill a data node; decode must work off the REBUILT parity.
  const uint32_t victim_shard = 0;
  Key key0 = KeyInShard(victim_shard, 3, 900);
  Buffer value0 = MakePatternBuffer(2222, 900);
  ASSERT_TRUE(cluster_->Put(key0, value0, srs32_).ok());
  // Node 0 is also the membership leader: detection requires an election,
  // so give the cluster the full heartbeat/election window.
  cluster_->KillNode(0, /*force_detect=*/false);
  cluster_->RunFor(150 * sim::kMillisecond);
  auto got = cluster_->Get(key0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value0);
}

TEST_F(RingKvsTest, FailureDetectedByHeartbeatsWithoutForce) {
  const Key key = KeyInShard(1, 3, 777);
  ASSERT_TRUE(cluster_->Put(key, "hb-survives", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/false);
  // Heartbeat timeout (35 ms) + recovery, then reads succeed again.
  cluster_->RunFor(80 * sim::kMillisecond);
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "hb-survives");
}

TEST_F(RingKvsTest, MetadataRecoveryLatencyIsMicroseconds) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_
                    ->Put(KeyInShard(1, 3, i), MakePatternBuffer(256, i),
                          rep3_)
                    .ok());
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(5 * sim::kMillisecond);
  auto& spare = cluster_->server(5);
  EXPECT_TRUE(spare.serving());
  EXPECT_GT(spare.last_recovery_ns(), 0u);
  EXPECT_LT(spare.last_recovery_ns(), 2 * sim::kMillisecond);
}

TEST_F(RingKvsTest, MemgestDeleteRemovesKeys) {
  auto temp = cluster_->CreateMemgest(MemgestDescriptor::Replicated(2, "t"));
  ASSERT_TRUE(temp.ok());
  ASSERT_TRUE(cluster_->Put("t-key", "gone-soon", *temp).ok());
  ASSERT_TRUE(cluster_->DeleteMemgest(*temp).ok());
  cluster_->RunFor(1 * sim::kMillisecond);
  auto got = cluster_->Get("t-key");
  EXPECT_FALSE(got.ok());
  // Further puts to it fail.
  EXPECT_EQ(cluster_->Put("x", "y", *temp).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, SetDefaultMemgestRoutesPlainPuts) {
  ASSERT_TRUE(cluster_->SetDefaultMemgest(srs21_).ok());
  ASSERT_TRUE(cluster_->Put("plain", "to-default").ok());
  auto got = cluster_->Get("plain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "to-default");
  // White-box: the entry landed in srs21's metadata on the coordinator.
  const uint32_t shard = KeyShard("plain", 3);
  auto& server = cluster_->server(shard);
  EXPECT_GT(server.counters().puts, 0u);
}

TEST_F(RingKvsTest, GetMemgestDescriptorRoundTrip) {
  auto desc = cluster_->GetMemgestDescriptor(srs32_);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->kind, SchemeKind::kErasureCoded);
  EXPECT_EQ(desc->k, 3u);
  EXPECT_EQ(desc->m, 2u);
  EXPECT_EQ(desc->name, "srs32");
  auto missing = cluster_->GetMemgestDescriptor(999);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, FullSyncReplicationCommitsAndReads) {
  auto fs = cluster_->CreateMemgest(MemgestDescriptor::FullSyncReplicated(3));
  ASSERT_TRUE(fs.ok());
  const Buffer value = MakePatternBuffer(900, 4);
  ASSERT_TRUE(cluster_->Put("fsync", value, *fs).ok());
  auto got = cluster_->Get("fsync");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  // Full-sync puts are slower than quorum (wait for all replicas), faster
  // than erasure coding.
  auto& client = cluster_->client(0);
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("fsync2", value, *fs).ok());
  const double full_sync_lat = client.latencies().values().back();
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("q", value, rep3_).ok());
  const double quorum_lat = client.latencies().values().back();
  EXPECT_GE(full_sync_lat, quorum_lat);
}

TEST_F(RingKvsTest, PromotedCoordinatorReleasesParkedGetAndMoveAtCommit) {
  RingOptions o = DefaultOptions();
  o.clients = 3;
  SetUpCluster(o);
  const Key key = KeyInShard(1, 3, 4242);
  ASSERT_TRUE(cluster_->Put(key, "before", srs32_).ok());
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  RingServer& promoted = cluster_->server(5);
  ASSERT_TRUE(promoted.serving());

  // A slow SRS(3,2) put on the promoted coordinator; a get and a move land
  // while its version is still in the quorum round. Both park on the
  // entry's in-flight state and must be released by the commit.
  const Buffer value = MakePatternBuffer(4096, 77);
  bool put_done = false;
  bool get_done = false;
  bool move_done = false;
  sim::SimTime put_at = 0;
  sim::SimTime move_at = 0;
  Buffer got;
  Status move_status;
  cluster_->client(0).Put(key, std::make_shared<Buffer>(value), srs32_,
                          [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            put_done = true;
                            put_at = cluster_->simulator().now();
                          });
  cluster_->simulator().After(10 * sim::kMicrosecond, [&] {
    cluster_->client(1).Get(key, [&](GetResult r) {
      ASSERT_TRUE(r.status.ok()) << r.status;
      got = *r.data;
      get_done = true;
    });
    cluster_->client(2).Move(key, rep3_, [&](Status s, Version) {
      move_status = s;
      move_done = true;
      move_at = cluster_->simulator().now();
    });
  });
  ASSERT_TRUE(cluster_->RunUntilDone(
      [&] { return put_done && get_done && move_done; }));
  EXPECT_EQ(got, value);
  EXPECT_TRUE(move_status.ok()) << move_status;
  EXPECT_GE(move_at, put_at);
  EXPECT_GT(promoted.counters().deferred_gets, 0u);
  EXPECT_EQ(promoted.PendingWrites(), 0u);
  auto after = cluster_->Get(key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, value);
}

// ---------------------------------------------------------------------------
// Redundancy metadata: one live entry per version (§5.2)

// Metadata entries held on a node: its own shards, mirrors and parity
// copies.
uint64_t EntriesOn(RingCluster& cluster, net::NodeId node) {
  return cluster.server(node).TotalMetadataBytes() / kMetaEntryWireBytes;
}

// Overwrites `keys` keys of shard 0 `rounds` times each while `paused` sits
// in a gray pause. Redundancy writes to the paused node wait behind the
// pause; the GC notices chasing them are one-sided writes and land at once.
void OverwriteWhilePaused(const MemgestDescriptor& desc, net::NodeId paused,
                          uint32_t keys, uint32_t rounds,
                          std::vector<uint64_t>* entries_per_node) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.seed = 7;
  o.fault_plan =
      *fault::ParseFaultPlan("pause node=" + std::to_string(paused) +
                             " at=20ms resume=24ms");
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(desc);
  cluster.RunFor(20 * sim::kMillisecond - cluster.simulator().now());
  // Issued without waiting for commits: erasure-coded puts cannot commit
  // while a parity node is paused, so their versions pile up as under a
  // backlog.
  uint32_t done = 0;
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint32_t i = 0; i < keys; ++i) {
      cluster.client(0).Put(
          KeyInShard(0, 3, static_cast<int>(i)),
          std::make_shared<Buffer>(MakePatternBuffer(200, round * 100 + i)),
          g, [&done](Status s, Version) {
            EXPECT_TRUE(s.ok()) << s;
            ++done;
          });
      cluster.RunFor(20 * sim::kMicrosecond);
    }
  }
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done == keys * rounds; }));
  cluster.RunFor(10 * sim::kMillisecond);  // resume, drain, GC notices
  ASSERT_GT(cluster.simulator().now(), 24 * sim::kMillisecond);
  for (net::NodeId n = 0; n < 5; ++n) {
    entries_per_node->push_back(EntriesOn(cluster, n));
    EXPECT_EQ(cluster.server(n).EarlyGcRecords(), 0u) << "node " << n;
  }
}

TEST(RedundancyMetadataTest, BackedUpReplicaKeepsNoCollectedVersions) {
  // Rep(3) commits on one replica ack, so GC notices for versions the
  // paused replica has not appended yet overtake the appends.
  std::vector<uint64_t> entries;
  OverwriteWhilePaused(MemgestDescriptor::Replicated(3), /*paused=*/2,
                       /*keys=*/8, /*rounds=*/6, &entries);
  // Shard 0: coordinator node 0, replicas nodes 1 and 2 — one live version
  // of each key apiece, nothing anywhere else.
  EXPECT_EQ(entries, (std::vector<uint64_t>{8, 8, 8, 0, 0}));
}

TEST(RedundancyMetadataTest, BackedUpParityKeepsNoCollectedVersions) {
  std::vector<uint64_t> entries;
  OverwriteWhilePaused(MemgestDescriptor::ErasureCoded(3, 2), /*paused=*/3,
                       /*keys=*/8, /*rounds=*/6, &entries);
  // Shard 0's coordinator plus both parity nodes of its group.
  EXPECT_EQ(entries, (std::vector<uint64_t>{8, 0, 0, 8, 8}));
}

TEST(RedundancyMetadataTest, EarlyGcRecordOfADroppedAppendAgesOut) {
  // A replica append that is dropped never consumes the record its GC
  // notice leaves; the record must age out of the bounded window.
  const uint64_t window = EarlyGcSet::kWindow;
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.seed = 11;
  o.fault_plan = *fault::ParseFaultPlan(
      "drop src=0 dst=2 p=1 from=20ms until=20500us;"
      "pause node=2 at=22ms resume=30ms");
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = KeyInShard(0, 3, 9);
  auto run_until = [&cluster](sim::SimTime t) {
    ASSERT_LT(cluster.simulator().now(), t);
    cluster.RunFor(t - cluster.simulator().now());
  };
  run_until(20 * sim::kMillisecond);
  ASSERT_TRUE(cluster.Put(key, "v1", g).ok());  // its append to node 2 is lost
  run_until(20500 * sim::kMicrosecond);
  ASSERT_TRUE(cluster.Put(key, "v2", g).ok());  // GCs v1: a stale record
  cluster.RunFor(100 * sim::kMicrosecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), 1u);
  EXPECT_EQ(EntriesOn(cluster, 2), 1u);

  // While node 2 is paused, window + 1 overwrites: their GC notices record
  // v3 .. v(window + 2) and push the stale v1 record out.
  run_until(22 * sim::kMillisecond);
  for (uint64_t i = 0; i <= window; ++i) {
    ASSERT_TRUE(cluster.Put(key, "v" + std::to_string(i + 3), g).ok());
  }
  ASSERT_LT(cluster.simulator().now(), 30 * sim::kMillisecond);
  cluster.RunFor(20 * sim::kMicrosecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), window);

  // After the pause the queued appends consume their records; none is left.
  run_until(35 * sim::kMillisecond);
  EXPECT_EQ(cluster.server(2).EarlyGcRecords(), 0u);
  for (net::NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(EntriesOn(cluster, n), 1u) << "node " << n;
  }
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v" + std::to_string(window + 3));
}

TEST_F(RingKvsTest, DeterministicAcrossRuns) {
  auto run = [&](uint64_t seed) -> uint64_t {
    RingOptions o = DefaultOptions();
    o.seed = seed;
    RingCluster cluster(o);
    auto g = cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(cluster
                      .Put("d" + std::to_string(i),
                           MakePatternBuffer(100 + i, i), *g)
                      .ok());
    }
    return cluster.simulator().now();
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace ring
