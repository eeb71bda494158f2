// Chaos testing: randomized fault plans (drops, duplicates, delays,
// reorders, partitions, gray-failure pauses, crash-recovery) injected under
// random traffic, with the consistency oracles of consistency_fuzz_test:
//   - integrity: a read of a known version returns its bytes exactly,
//   - monotonicity: reliable keys never travel back in time,
//   - committed data: after the plan quiesces and the cluster heals, every
//     acked write to a reliable memgest reads back byte-exactly with
//     version >= the acked one (read-your-writes),
//   - Rep(1) honesty: unreliable keys either return the exact acked bytes
//     or a clean error — never stale/corrupt data, never a hang.
// Every run is deterministic in (seed): replaying the same seed must
// produce byte-identical metrics, traffic outcomes, and fault counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/fault/fault.h"
#include "src/membership/rebalance.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

// On an oracle failure, the plan that provoked it and the flight-recorder
// tail are the debugging state that matters: dump both to stderr and to a
// $TEST_TMPDIR artifact (cwd when unset) so CI retains them.
void DumpFailureArtifact(uint64_t seed, const fault::FaultPlan& plan,
                         const obs::FlightRecorder& recorder) {
  std::ostringstream os;
  const std::vector<obs::RecEvent> tail = recorder.Tail(64);
  os << "chaos_fuzz oracle failure, seed=" << seed << "\n"
     << "replay: ctest -R ChaosFuzzTest --gtest_filter='*seed" << seed
     << "*' (or RunChaos(" << seed << "))\n"
     << "fault plan:\n"
     << plan.ToString() << "flight recorder tail (last " << tail.size()
     << " of " << recorder.total_recorded() << " events):\n"
     << obs::FlightRecorder::Format(tail);
  const std::string text = os.str();
  std::fputs(text.c_str(), stderr);
  const char* dir = std::getenv("TEST_TMPDIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") +
                           "/chaos_fuzz_seed" + std::to_string(seed) + ".txt";
  if (FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "artifact: %s\n", path.c_str());
  }
}

Buffer EncodeValue(const Key& key, uint64_t nonce, size_t size) {
  Buffer out = MakePatternBuffer(size, HashKey(key) ^ nonce);
  const std::string tag = key + "#" + std::to_string(nonce) + ";";
  for (size_t i = 0; i < tag.size() && i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(tag[i]);
  }
  return out;
}

// Everything observable a chaos run produced. Two runs of the same seed
// must compare equal, field for field.
struct ChaosDigest {
  std::string metrics;
  std::string outcomes;  // per-op completion log, in completion order
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_deferred = 0;
  uint64_t crashes = 0;
  uint64_t revocations = 0;      // §16 plan-injected suspicion events
  uint64_t fast_failovers = 0;   // §16 revoke-then-promote rounds completed
  uint64_t oracle_violations = 0;

  bool operator==(const ChaosDigest& o) const {
    return metrics == o.metrics && outcomes == o.outcomes &&
           faults_dropped == o.faults_dropped &&
           faults_duplicated == o.faults_duplicated &&
           faults_deferred == o.faults_deferred && crashes == o.crashes &&
           revocations == o.revocations &&
           fast_failovers == o.fast_failovers &&
           oracle_violations == o.oracle_violations;
  }
};

// One full chaos run: random plan + random traffic + oracles + final sweep.
// With `revokes_and_nonblocking_reads` the rest of the §16 stack joins the
// revoke-then-promote failover every run has: random false-suspicion
// `revoke` events in the plan, ν = 3 retained versions, and non-blocking
// multiversion gets.
ChaosDigest RunChaos(uint64_t seed,
                     bool revokes_and_nonblocking_reads = false) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 2;
  options.clients = 2;
  options.seed = seed;
  const uint32_t servers = options.s + options.d + options.spares;

  fault::ChaosShape shape;
  for (uint32_t n = 0; n < servers; ++n) {
    shape.faultable.push_back(n);
  }
  shape.num_nodes = servers + options.clients;
  shape.horizon_ns = 60 * sim::kMillisecond;
  shape.quiet_after_ns = 40 * sim::kMillisecond;
  shape.link_faults = 4;
  shape.node_events = 2;
  if (revokes_and_nonblocking_reads) {
    options.multiversion_depth = 3;
    // False suspicions consume spare capacity like crashes; tell the
    // generator so the budget never exceeds what promotions can absorb.
    shape.revocations = 2;
    shape.spare_capacity = options.spares;
  }
  options.fault_plan = fault::RandomFaultPlan(seed * 31 + 7, shape);
  options.fault_seed = seed;
  const ReadMode read_mode = revokes_and_nonblocking_reads
                                 ? ReadMode::kNonBlocking
                                 : ReadMode::kStrong;

  RingCluster cluster(options);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  // Flight recorder on for every run: zero-perturbation (determinism_test
  // proves it), and on an oracle failure its tail is the post-mortem.
  hub.EnableRecorder(true);
  const auto& p = cluster.simulator().params();

  const MemgestId rep1 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const std::vector<MemgestId> reliable = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  Rng rng(seed * 7919 + 3);
  std::ostringstream outcomes;
  uint64_t violations = 0;

  // Reliable-key ground truth, from completion callbacks only.
  struct KeyState {
    std::map<Version, Buffer> acked;  // version -> bytes
    Version highest_read = 0;
  };
  std::map<Key, KeyState> truth;
  // Rep(1) keys are written once each: a read returns those bytes or a
  // clean error, nothing else.
  std::map<Key, Buffer> rep1_truth;

  // `floor` is the highest version some get had *completed* with when this
  // get was issued: a later-issued read may never travel below it. Reads
  // whose lifetimes overlap are allowed to complete in either order (a
  // delayed reply carries the version that was current when it was served).
  auto check_reliable_read = [&](const Key& key, Version floor,
                                 const GetResult& r) {
    if (!r.status.ok()) {
      return;  // clean failure under faults is legal mid-chaos
    }
    KeyState& st = truth[key];
    auto it = st.acked.find(r.version);
    if (it != st.acked.end() && *r.data != it->second) {
      ++violations;
      ADD_FAILURE() << "corrupt read of " << key << " v" << r.version
                    << " seed=" << seed;
    }
    if (r.version < floor) {
      ++violations;
      ADD_FAILURE() << "time travel on " << key << ": v" << r.version
                    << " after v" << floor << " seed=" << seed;
    }
    st.highest_read = std::max(st.highest_read, r.version);
  };

  const int kKeys = 10;
  uint64_t next_nonce = 1;
  int outstanding = 0;
  const int kOps = 400;
  for (int op = 0; op < kOps; ++op) {
    const uint32_t client = static_cast<uint32_t>(rng.NextBelow(2));
    const double dice = rng.NextDouble();
    if (dice < 0.06) {
      // Fire-once Rep(1) key: unreliable by design.
      const Key key = "r1-" + std::to_string(next_nonce);
      Buffer value = EncodeValue(key, next_nonce, 16 + rng.NextBelow(500));
      ++next_nonce;
      ++outstanding;
      cluster.client(client).Put(
          key, std::make_shared<Buffer>(value), rep1,
          [&, key, value](Status s, Version) {
            --outstanding;
            outcomes << "p1 " << key << " " << StatusCodeName(s.code())
                     << "\n";
            if (s.ok()) {
              rep1_truth[key] = value;
            }
          });
    } else if (dice < 0.40) {
      const Key key = "ck-" + std::to_string(rng.NextBelow(kKeys));
      const uint64_t nonce = next_nonce++;
      Buffer value = EncodeValue(key, nonce, 16 + rng.NextBelow(2000));
      const MemgestId g = reliable[rng.NextBelow(reliable.size())];
      ++outstanding;
      cluster.client(client).Put(
          key, std::make_shared<Buffer>(value), g,
          [&, key, value](Status s, Version v) {
            --outstanding;
            outcomes << "put " << key << " " << StatusCodeName(s.code())
                     << " v" << v << "\n";
            if (s.ok()) {
              auto [it, fresh] = truth[key].acked.emplace(v, value);
              if (!fresh && it->second != value) {
                ++violations;
                ADD_FAILURE() << "version reuse on " << key << " v" << v
                              << " seed=" << seed;
              }
            }
          });
    } else if (dice < 0.85) {
      const Key key = rng.NextBernoulli(0.15) && !rep1_truth.empty()
                          ? rep1_truth.rbegin()->first
                          : "ck-" + std::to_string(rng.NextBelow(kKeys));
      ++outstanding;
      const Version floor = truth[key].highest_read;
      cluster.client(client).Get(key, read_mode, [&, key, floor](GetResult r) {
        --outstanding;
        outcomes << "get " << key << " " << StatusCodeName(r.status.code())
                 << "\n";
        auto r1 = rep1_truth.find(key);
        if (r1 != rep1_truth.end()) {
          // Rep(1): exact bytes or clean error, never stale garbage.
          if (r.status.ok() && *r.data != r1->second) {
            ++violations;
            ADD_FAILURE() << "stale/corrupt rep1 read of " << key
                          << " seed=" << seed;
          }
        } else {
          check_reliable_read(key, floor, r);
        }
      });
    } else {
      const Key key = "ck-" + std::to_string(rng.NextBelow(kKeys));
      const MemgestId g = reliable[rng.NextBelow(reliable.size())];
      ++outstanding;
      cluster.client(client).Move(key, g, [&, key](Status s, Version) {
        --outstanding;
        outcomes << "mov " << key << " " << StatusCodeName(s.code()) << "\n";
      });
    }
    if (rng.NextBernoulli(0.6)) {
      cluster.RunFor(rng.NextBelow(200) * sim::kMicrosecond);
    }
  }
  // Drain all traffic (bounded: the retry budget turns every wedged op into
  // a clean kUnavailable), then run past the plan's quiet point plus a
  // detection + recovery window so crashed nodes have rejoined.
  EXPECT_TRUE(cluster.RunUntilDone([&] { return outstanding == 0; }))
      << "seed=" << seed << ": an operation hung past the retry budget";
  const sim::SimTime settle = shape.quiet_after_ns +
                              2 * p.detection_window_ns() +
                              30 * sim::kMillisecond;
  if (cluster.simulator().now() < settle) {
    cluster.RunFor(settle - cluster.simulator().now());
  }

  // Key-directory audit on the healed, quiescent cluster.
  if (const std::string why = cluster.CheckKeyDirectories(); !why.empty()) {
    ++violations;
    ADD_FAILURE() << "key directory: " << why << " seed=" << seed;
  }

  // Committed-data / read-your-writes sweep on the healed cluster.
  for (const auto& [key, st] : truth) {
    if (st.acked.empty()) {
      continue;
    }
    bool done = false;
    GetResult r;
    cluster.client(0).Get(key, [&](GetResult got) {
      r = std::move(got);
      done = true;
    });
    EXPECT_TRUE(cluster.RunUntilDone([&] { return done; })) << key;
    outcomes << "swp " << key << " " << StatusCodeName(r.status.code())
             << "\n";
    if (!r.status.ok()) {
      ++violations;
      ADD_FAILURE() << "committed reliable key " << key
                    << " unreadable after heal: " << r.status
                    << " seed=" << seed;
      continue;
    }
    check_reliable_read(key, st.highest_read, r);
    if (r.version < st.acked.rbegin()->first) {
      ++violations;
      ADD_FAILURE() << "read-your-writes violated on " << key << ": v"
                    << r.version << " < acked v" << st.acked.rbegin()->first
                    << " seed=" << seed;
    }
  }

  const fault::FaultInjector* inj = cluster.runtime().injector();
  EXPECT_NE(inj, nullptr);  // the random plan is never empty
  ChaosDigest digest;
  digest.metrics = hub.metrics().Summary();
  digest.outcomes = outcomes.str();
  if (inj != nullptr) {
    digest.faults_dropped =
        inj->counters().dropped + inj->counters().partition_dropped;
    digest.faults_duplicated = inj->counters().duplicated;
    digest.faults_deferred = inj->counters().deferred;
    digest.crashes = inj->counters().crashes;
    digest.revocations = inj->counters().revocations;
  }
  digest.fast_failovers = cluster.runtime().membership().fast_failovers();
  digest.oracle_violations = violations;
  if (violations > 0) {
    DumpFailureArtifact(seed, options.fault_plan, hub.recorder());
  }
  return digest;
}

class ChaosFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFuzzTest, OraclesHoldUnderRandomFaultPlan) {
  const ChaosDigest d = RunChaos(GetParam());
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

// 20+ seeded plans; each generates a distinct fault schedule.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFuzzTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 11ULL, 12ULL, 13ULL, 14ULL, 15ULL, 16ULL, 17ULL,
                      18ULL, 19ULL, 20ULL, 33ULL, 77ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// Determinism: the same seed replays byte-identically — same metrics dump,
// same per-op outcome log, same fault counters.
TEST(ChaosReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {2ULL, 9ULL, 14ULL}) {
    const ChaosDigest first = RunChaos(seed);
    const ChaosDigest again = RunChaos(seed);
    EXPECT_TRUE(first == again) << "seed " << seed << " diverged on replay";
    EXPECT_EQ(first.metrics, again.metrics);
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// §16 chaos: the same oracles under random false-suspicion revokes and
// non-blocking multiversion reads — all in one stack.
class ChaosFastFailoverFuzzTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ChaosFastFailoverFuzzTest, OraclesHoldWithFastFailoverArmed) {
  const ChaosDigest d =
      RunChaos(GetParam(), /*revokes_and_nonblocking_reads=*/true);
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFastFailoverFuzzTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 33ULL, 77ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// The §16 machinery (revocations included) is as deterministic as the rest:
// same seed, byte-identical replay.
TEST(ChaosFastFailoverReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {2ULL, 9ULL}) {
    const ChaosDigest first =
        RunChaos(seed, /*revokes_and_nonblocking_reads=*/true);
    const ChaosDigest again =
        RunChaos(seed, /*revokes_and_nonblocking_reads=*/true);
    EXPECT_TRUE(first == again)
        << "seed " << seed << " diverged on replay with revokes";
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// A random plan with revocations actually drives revoke rounds: at least one
// seed-pinned run completes a revoke-then-promote round.
TEST(ChaosFastFailoverFuzzCoverage, RevocationsDriveFastRounds) {
  const ChaosDigest d = RunChaos(3, /*revokes_and_nonblocking_reads=*/true);
  EXPECT_GE(d.revocations, 1u);
  EXPECT_GE(d.fast_failovers, 1u);
}

// An empty plan must create no injector at all: the injection-off build is
// one null-pointer branch per message, byte-identical to pre-fault builds
// (determinism_test and the fig workloads guard the byte-identity itself).
TEST(ChaosOffTest, EmptyPlanInstallsNoInjector) {
  RingCluster cluster(RingOptions{});
  EXPECT_EQ(cluster.runtime().injector(), nullptr);
}

// Regression (satellite): a put whose *reply* is dropped must be retried by
// the client and succeed — executed exactly once server-side, answered from
// the at-most-once table.
TEST(ChaosRegressionTest, DroppedReplyRetriesAndExecutesExactlyOnce) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 1;
  o.seed = 5;
  const net::NodeId coord = 1;                       // owns shard 1
  const net::NodeId client_node = o.s + o.d + o.spares;  // first client
  // All coordinator->client traffic vanishes for 1 ms: the put executes and
  // commits, but every reply (and resent reply) is lost until the link heals.
  auto plan = fault::ParseFaultPlan("drop src=" + std::to_string(coord) +
                                    " dst=" + std::to_string(client_node) +
                                    " p=1 until=1ms");
  ASSERT_TRUE(plan.ok());
  o.fault_plan = *plan;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "dr-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  }();
  const uint64_t puts_before = cluster.server(coord).counters().puts;
  cluster.client(0).ResetStats();  // drop the admin op from the counters
  bool done = false;
  Status status = InternalError("no reply");
  Version acked = 0;
  auto value = std::make_shared<Buffer>(ToBuffer("exactly-once"));
  cluster.client(0).Put(key, value, g, [&](Status s, Version v) {
    status = std::move(s);
    acked = v;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
  ASSERT_TRUE(status.ok()) << status;
  // Executed once; the duplicate retries were answered from the table.
  EXPECT_EQ(cluster.server(coord).counters().puts, puts_before + 1);
  EXPECT_GE(cluster.server(coord).counters().resent_replies, 1u);
  EXPECT_EQ(cluster.client(0).completed(), 1u);
  // Every original reply was lost, so the ack came from the table: the
  // resent reply carries the version the coordinator committed.
  const std::vector<Version> committed =
      cluster.server(coord).RetainedCommittedVersions(key);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(acked, committed.front());
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "exactly-once");
}

// Satellite: Rep(1,s) keys degrade *gracefully* when their only copy dies —
// a clean not-found/unavailable, never a hang, never stale bytes — while
// reliable keys on the same node survive byte-exactly.
TEST(ChaosRegressionTest, Rep1DegradesCleanlyWhileReliableKeysSurvive) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 1;
  o.seed = 6;
  RingCluster cluster(o);
  const MemgestId rep1 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const net::NodeId victim = 2;
  std::vector<Key> rep1_keys;
  std::map<Key, Buffer> reliable;
  for (int i = 0, r1 = 0, r3 = 0; r1 < 3 || r3 < 3; ++i) {
    const Key k = "gd-" + std::to_string(i);
    if (KeyShard(k, 3) != victim) {
      continue;
    }
    Buffer value = MakePatternBuffer(600 + 17 * i, i);
    if (r1 < 3) {
      ASSERT_TRUE(cluster.Put(k, value, rep1).ok());
      rep1_keys.push_back(k);
      ++r1;
    } else {
      ASSERT_TRUE(cluster.Put(k, value, rep3).ok());
      reliable[k] = std::move(value);
      ++r3;
    }
  }
  cluster.KillNode(victim, /*force_detect=*/true);
  cluster.RunFor(30 * sim::kMillisecond);
  for (const Key& k : rep1_keys) {
    // The only copy died: clean error, no hang, no stale bytes.
    auto got = cluster.Get(k);
    EXPECT_FALSE(got.ok()) << k;
    EXPECT_TRUE(got.status().code() == StatusCode::kNotFound ||
                got.status().code() == StatusCode::kUnavailable)
        << k << ": " << got.status();
  }
  for (const auto& [k, value] : reliable) {
    auto got = cluster.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, value) << k;
  }
}

// ---------------------------------------------------------------------------
// Membership chaos (§13): elastic resizes raced against random fault plans.
// The oracle family is unchanged — every acked write to a reliable memgest
// must read back byte-exactly with version >= the acked one — but now it has
// to hold *across shape transitions*: while a scale-out or scale-in drains,
// after it completes, and even when chaos makes the transition give up
// mid-drain and leaves both placements live.

struct MembershipChaosDigest {
  std::string outcomes;
  uint64_t oracle_violations = 0;
  uint64_t epoch = 0;
  uint32_t final_s = 0;
  uint64_t keys_moved = 0;

  bool operator==(const MembershipChaosDigest& o) const {
    return outcomes == o.outcomes &&
           oracle_violations == o.oracle_violations && epoch == o.epoch &&
           final_s == o.final_s && keys_moved == o.keys_moved;
  }
};

MembershipChaosDigest RunMembershipChaos(uint64_t seed) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 2;
  options.clients = 2;
  options.seed = seed;
  const uint32_t servers = options.s + options.d + options.spares;

  fault::ChaosShape shape;
  for (uint32_t n = 0; n < servers; ++n) {
    shape.faultable.push_back(n);
  }
  shape.num_nodes = servers + options.clients;
  shape.horizon_ns = 50 * sim::kMillisecond;
  shape.quiet_after_ns = 35 * sim::kMillisecond;
  shape.link_faults = 3;
  shape.node_events = 2;
  // One spare is earmarked for the join below; generate crash episodes only
  // against the capacity that remains (the runtime crash guard re-checks).
  shape.spare_capacity = options.spares - 1;
  options.fault_plan = fault::RandomFaultPlan(seed * 131 + 17, shape);
  options.fault_seed = seed;

  RingCluster cluster(options);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  hub.EnableRecorder(true);
  const auto& p = cluster.simulator().params();

  const std::vector<MemgestId> reliable = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  Rng rng(seed * 104729 + 9);
  std::ostringstream outcomes;
  uint64_t violations = 0;
  struct KeyState {
    std::map<Version, Buffer> acked;  // version -> bytes
    Version highest_read = 0;
  };
  std::map<Key, KeyState> truth;
  int outstanding = 0;
  const int kKeys = 12;
  uint64_t next_nonce = 1;

  auto put_random = [&] {
    const Key key = "mk-" + std::to_string(rng.NextBelow(kKeys));
    const uint64_t nonce = next_nonce++;
    Buffer value = EncodeValue(key, nonce, 16 + rng.NextBelow(1200));
    const MemgestId g = reliable[rng.NextBelow(reliable.size())];
    ++outstanding;
    cluster.client(rng.NextBelow(2)).Put(
        key, std::make_shared<Buffer>(value), g,
        [&, key, value](Status s, Version v) {
          --outstanding;
          outcomes << "put " << key << " " << StatusCodeName(s.code())
                   << " v" << v << "\n";
          if (s.ok()) {
            truth[key].acked.emplace(v, value);
          }
        });
  };
  auto get_random = [&] {
    const Key key = "mk-" + std::to_string(rng.NextBelow(kKeys));
    const Version floor = truth[key].highest_read;
    ++outstanding;
    cluster.client(rng.NextBelow(2)).Get(key, [&, key, floor](GetResult r) {
      --outstanding;
      outcomes << "get " << key << " " << StatusCodeName(r.status.code())
               << "\n";
      if (!r.status.ok()) {
        return;  // clean failure mid-chaos/mid-resize is legal
      }
      KeyState& st = truth[key];
      auto it = st.acked.find(r.version);
      if (it != st.acked.end() && *r.data != it->second) {
        ++violations;
        ADD_FAILURE() << "corrupt read of " << key << " v" << r.version
                      << " seed=" << seed;
      }
      if (r.version < floor) {
        ++violations;
        ADD_FAILURE() << "time travel on " << key << ": v" << r.version
                      << " after v" << floor << " seed=" << seed;
      }
      st.highest_read = std::max(st.highest_read, r.version);
    });
  };

  // Working set up front, then a scale-out (and, on odd seeds, a scale-in
  // back) interleaved with random traffic while the plan's faults fire.
  for (int i = 0; i < 30; ++i) {
    put_random();
  }
  membership::RebalanceOptions ro;
  ro.max_rounds = 400;  // chaos quiesces by quiet_after; bound the driver
  membership::RebalanceCoordinator grow(&cluster, ro);
  membership::RebalanceCoordinator shrink(&cluster, ro);
  bool grow_accepted = false;
  const int kOps = 160;
  const int grow_at = 10 + static_cast<int>(rng.NextBelow(40));
  const int shrink_at = grow_at + 40 + static_cast<int>(rng.NextBelow(40));
  for (int op = 0; op < kOps; ++op) {
    if (op == grow_at) {
      const consensus::ClusterConfig& cfg =
          cluster.runtime().membership().ConfigView(
              cluster.runtime().leader_node());
      const int32_t spare = cfg.FindSpare();
      grow_accepted =
          spare >= 0 && grow.AddServer(static_cast<net::NodeId>(spare));
      // Rejection is legal mid-chaos (no live leader, spare just consumed
      // by a promotion); the oracles below hold either way.
      outcomes << "grow " << (grow_accepted ? "accepted" : "rejected")
               << "\n";
    }
    if (op == shrink_at && seed % 2 == 1 && grow_accepted &&
        !grow.active()) {
      const consensus::ClusterConfig& cfg =
          cluster.runtime().membership().ConfigView(
              cluster.runtime().leader_node());
      if (!cfg.rebalancing() && cfg.s > 3) {
        const bool ok = shrink.RemoveServer(cfg.s - 1);
        outcomes << "shrink " << (ok ? "accepted" : "rejected") << "\n";
      }
    }
    if (rng.NextBernoulli(0.55)) {
      put_random();
    } else {
      get_random();
    }
    if (rng.NextBernoulli(0.7)) {
      cluster.RunFor((100 + rng.NextBelow(400)) * sim::kMicrosecond);
    }
    // The audit holds mid-resize too, where a node can hold one (key,
    // version) in both shapes' stores.
    if (const std::string why = cluster.CheckKeyDirectories(); !why.empty()) {
      ++violations;
      ADD_FAILURE() << "key directory after op " << op << ": " << why
                    << " seed=" << seed;
    }
  }
  EXPECT_TRUE(cluster.RunUntilDone([&] {
    return outstanding == 0 && !grow.active() && !shrink.active();
  })) << "seed=" << seed << ": traffic or rebalance hung";
  const sim::SimTime settle = shape.quiet_after_ns +
                              2 * p.detection_window_ns() +
                              30 * sim::kMillisecond;
  if (cluster.simulator().now() < settle) {
    cluster.RunFor(settle - cluster.simulator().now());
  }

  // Key-directory audit across whatever shape the cluster ended up in.
  if (const std::string why = cluster.CheckKeyDirectories(); !why.empty()) {
    ++violations;
    ADD_FAILURE() << "key directory: " << why << " seed=" << seed;
  }

  // Committed-data sweep across whatever shape the cluster ended up in.
  for (const auto& [key, st] : truth) {
    if (st.acked.empty()) {
      continue;
    }
    bool done = false;
    GetResult r;
    cluster.client(0).Get(key, [&](GetResult got) {
      r = std::move(got);
      done = true;
    });
    EXPECT_TRUE(cluster.RunUntilDone([&] { return done; })) << key;
    outcomes << "swp " << key << " " << StatusCodeName(r.status.code())
             << "\n";
    if (!r.status.ok()) {
      ++violations;
      ADD_FAILURE() << "committed key " << key
                    << " unreadable after resize + heal: " << r.status
                    << " seed=" << seed;
      continue;
    }
    auto it = st.acked.find(r.version);
    if (it != st.acked.end() && *r.data != it->second) {
      ++violations;
      ADD_FAILURE() << "corrupt sweep read of " << key << " seed=" << seed;
    }
    if (r.version < st.acked.rbegin()->first) {
      ++violations;
      ADD_FAILURE() << "read-your-writes violated on " << key << ": v"
                    << r.version << " < acked v" << st.acked.rbegin()->first
                    << " seed=" << seed;
    }
  }

  const consensus::ClusterConfig& final_cfg =
      cluster.runtime().membership().ConfigView(
          cluster.runtime().leader_node());
  std::string why;
  if (!final_cfg.CheckInvariants(&why)) {
    ++violations;
    ADD_FAILURE() << "config invariants broken after chaos resize: " << why
                  << " seed=" << seed;
  }

  MembershipChaosDigest digest;
  digest.outcomes = outcomes.str();
  digest.oracle_violations = violations;
  digest.epoch = final_cfg.epoch;
  digest.final_s = final_cfg.s;
  digest.keys_moved = grow.stats().keys_moved + shrink.stats().keys_moved;
  if (violations > 0) {
    DumpFailureArtifact(seed, options.fault_plan, hub.recorder());
  }
  return digest;
}

class MembershipChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MembershipChaosTest, CommittedDataSurvivesElasticResizeUnderChaos) {
  const MembershipChaosDigest d = RunMembershipChaos(GetParam());
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

// 20+ seeded plans, each a distinct fault schedule raced against a resize.
INSTANTIATE_TEST_SUITE_P(
    Seeds, MembershipChaosTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 11ULL, 12ULL, 13ULL, 14ULL, 15ULL, 16ULL, 17ULL,
                      18ULL, 19ULL, 20ULL, 41ULL, 85ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// Same seed, same resize, byte-identical replay.
TEST(MembershipChaosReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {3ULL, 12ULL}) {
    const MembershipChaosDigest first = RunMembershipChaos(seed);
    const MembershipChaosDigest again = RunMembershipChaos(seed);
    EXPECT_TRUE(first == again) << "seed " << seed << " diverged on replay";
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// Scripted §13 scenarios the random plans may or may not hit, pinned
// deterministically: a source-node kill mid-drain, a join issued while the
// joining spare is partitioned away, and a leader crash mid-transition.

struct ScriptedElastic {
  explicit ScriptedElastic(uint64_t seed, uint32_t spares,
                           fault::FaultPlan plan = {}) {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = spares;
    o.clients = 1;
    o.seed = seed;
    o.fault_plan = std::move(plan);
    cluster = std::make_unique<RingCluster>(o);
    rep3 = *cluster->CreateMemgest(MemgestDescriptor::Replicated(3));
    srs32 = *cluster->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  }
  Buffer ValueOf(int i) {
    return EncodeValue("sk-" + std::to_string(i), static_cast<uint64_t>(i),
                       200 + 13 * (i % 7));
  }
  void WriteKeys(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      ->Put("sk-" + std::to_string(i), ValueOf(i),
                            i % 2 == 0 ? rep3 : srs32)
                      .ok())
          << i;
    }
    written = n;
  }
  void VerifyAllKeys() {
    EXPECT_EQ(cluster->CheckKeyDirectories(), "");
    for (int i = 0; i < written; ++i) {
      auto got = cluster->Get("sk-" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << "sk-" << i << ": " << got.status();
      EXPECT_EQ(*got, ValueOf(i)) << "sk-" << i;
    }
  }
  const consensus::ClusterConfig& LeaderConfig() {
    return cluster->runtime().membership().ConfigView(
        cluster->runtime().leader_node());
  }
  std::unique_ptr<RingCluster> cluster;
  MemgestId rep3 = 0;
  MemgestId srs32 = 0;
  int written = 0;
};

TEST(MembershipChaosScriptTest, SourceCrashMidDrainResumesAndCompletes) {
  ScriptedElastic e(31, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;  // stretch the drain so the kill lands inside it
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  // A source node dies mid-drain; the remaining spare absorbs its slot and
  // the idempotent scan/migrate protocol re-drains what the crash dropped.
  e.cluster->KillNode(1, /*force_detect=*/true);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

TEST(MembershipChaosScriptTest, JoinDuringPartitionCompletesAfterHeal) {
  // Node 5 is the only spare; it is partitioned away from every other node
  // (servers 0-4 and the client, node 6) when the join is issued.
  auto plan =
      fault::ParseFaultPlan("partition a=0,1,2,3,4,6 b=5 at=0ms heal=12ms");
  ASSERT_TRUE(plan.ok());
  ScriptedElastic e(32, /*spares=*/1, *plan);
  e.WriteKeys(60);
  ASSERT_LT(e.cluster->simulator().now(), 10 * sim::kMillisecond)
      << "writes outran the partition window";
  membership::RebalanceCoordinator coord(e.cluster.get());
  ASSERT_TRUE(coord.AddServer(5));
  e.cluster->RunFor(2 * sim::kMillisecond);
  // The joining node cannot hear the config while partitioned: the drain
  // holds (promotions and installs would be dropped on the floor).
  EXPECT_TRUE(coord.active());
  // After the heal, heartbeat anti-entropy delivers the missed config and
  // the transition completes.
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  EXPECT_NE(e.LeaderConfig().slot_of_node[5], consensus::kSpareSlot);
  e.VerifyAllKeys();
}

TEST(MembershipChaosScriptTest, LeaderCrashMidTransitionReanchorsAndDrains) {
  ScriptedElastic e(33, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  // The coordinator's anchor dies mid-transition. The next scan round
  // re-anchors at the elected successor and the drain resumes.
  const net::NodeId old_leader = e.cluster->runtime().leader_node();
  e.cluster->KillNode(old_leader, /*force_detect=*/true);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_GE(coord.stats().leader_moves, 1u);
  EXPECT_NE(e.cluster->runtime().leader_node(), old_leader);
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

// Scripted §16 scenarios: lease revocation composed with the classic gray
// failures — a partition, a gray pause, and a mid-drain rebalance. All three
// pin the revoke-then-promote path deterministically and check that the
// falsely-fenced node is readmitted and no committed data is lost. A fourth
// pins the heartbeat backstop: a pause no operation bounces off.

TEST(FastFailoverScriptTest, RevokeDuringPartitionPromotesAndReadmits) {
  // Node 1 is partitioned away, then revoked while unreachable. The witness
  // quorum fences it and promotes the spare without waiting out heartbeat
  // timeouts; after the heal node 1 petitions and rejoins as a spare.
  auto plan = fault::ParseFaultPlan(
      "partition a=0,2,3,4,5,6 b=1 at=6ms heal=14ms\n"
      "revoke node=1 at=6500us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(41, /*spares=*/1, *plan);
  e.WriteKeys(40);
  ASSERT_LT(e.cluster->simulator().now(), 6 * sim::kMillisecond)
      << "writes outran the partition window";
  e.cluster->RunFor(30 * sim::kMillisecond);
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  // Readmitted: the healed node is a live member again (as a spare).
  EXPECT_FALSE(e.LeaderConfig().failed[1]);
  e.VerifyAllKeys();
}

TEST(FastFailoverScriptTest, RevokeDuringGrayPauseFencesAndRecovers) {
  // A gray pause: node 1 is alive but unresponsive. Revocation fences it
  // mid-pause; on resume it discovers the epoch bump (config broadcasts
  // reach fenced peers too) and petitions for readmission.
  auto plan = fault::ParseFaultPlan(
      "pause node=1 at=6ms resume=12ms\n"
      "revoke node=1 at=7ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(42, /*spares=*/1, *plan);
  e.WriteKeys(40);
  ASSERT_LT(e.cluster->simulator().now(), 6 * sim::kMillisecond)
      << "writes outran the pause window";
  e.cluster->RunFor(30 * sim::kMillisecond);
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  EXPECT_FALSE(e.LeaderConfig().failed[1]);
  e.VerifyAllKeys();
}

TEST(FastFailoverScriptTest, RevokeMidRebalanceDrainCompletes) {
  // A source node is falsely revoked in the middle of a slow elastic drain.
  // Revoke-then-promote moves a spare into its slot; the idempotent
  // scan/migrate protocol re-drains whatever the fencing dropped and the
  // resize completes.
  ScriptedElastic e(43, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;  // stretch the drain so the revoke lands inside
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  e.cluster->runtime().membership().ReportSuspect(1);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

TEST(FastFailoverScriptTest, GrayPausePastTimeoutFallsToHeartbeatBackstop) {
  // Nothing bounces off a paused node, so no NACK reports it and no revoke
  // round starts. Node 1 stays paused past the failure timeout: only the
  // heartbeat backstop detects it, and the leader promotes the spare
  // directly. After the resume node 1 petitions and is readmitted.
  auto plan = fault::ParseFaultPlan("pause node=1 at=6ms resume=80ms");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(44, /*spares=*/1, *plan);
  e.WriteKeys(40);
  ASSERT_LT(e.cluster->simulator().now(), 6 * sim::kMillisecond)
      << "writes outran the pause window";
  auto& m = e.cluster->runtime().membership();
  e.cluster->simulator().RunUntil(75 * sim::kMillisecond);
  EXPECT_TRUE(e.LeaderConfig().failed[1]);
  EXPECT_EQ(e.LeaderConfig().NodeOfSlot(1), 5u);  // the spare took slot 1
  e.cluster->simulator().RunUntil(200 * sim::kMillisecond);
  EXPECT_FALSE(e.LeaderConfig().failed[1]);
  EXPECT_EQ(m.fast_failovers(), 0u);
  EXPECT_EQ(m.revocations_issued(), 0u);
  e.VerifyAllKeys();
}

// The ringctl fault-spec grammar round-trips through ToString().
TEST(FaultPlanTest, ParseAndToStringRoundTrip) {
  const std::string spec =
      "drop src=1 dst=6 p=0.25 from=1ms until=5ms\n"
      "dup src=* dst=2 p=0.1\n"
      "delay src=0 dst=* ns=20us jitter=5us\n"
      "reorder src=3 dst=4 p=0.5 window=100us\n"
      "partition a=0,1,2 b=3,4 at=2ms heal=4ms\n"
      "pause node=5 at=1ms resume=3ms\n"
      "crash node=2 at=6ms recover=9ms\n";
  auto plan = fault::ParseFaultPlan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->links.size(), 4u);
  // partition+heal, pause+resume, crash+recover: two events per directive.
  EXPECT_EQ(plan->events.size(), 6u);
  auto reparsed = fault::ParseFaultPlan(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(plan->ToString(), reparsed->ToString());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::ParseFaultPlan("drop src=1").ok());          // no p=
  EXPECT_FALSE(fault::ParseFaultPlan("drop src=1 dst=2 p=2").ok());  // p>1
  EXPECT_FALSE(fault::ParseFaultPlan("explode node=3 at=1ms").ok());
  EXPECT_FALSE(fault::ParseFaultPlan("pause at=1ms").ok());  // no node
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndQuiesces) {
  fault::ChaosShape shape;
  shape.faultable = {0, 1, 2, 3, 4};
  shape.num_nodes = 7;
  shape.horizon_ns = 50 * sim::kMillisecond;
  shape.quiet_after_ns = 30 * sim::kMillisecond;
  const fault::FaultPlan a = fault::RandomFaultPlan(99, shape);
  const fault::FaultPlan b = fault::RandomFaultPlan(99, shape);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.empty());
  for (const auto& lf : a.links) {
    EXPECT_LE(lf.until_ns, shape.quiet_after_ns);
  }
  for (const auto& ev : a.events) {
    EXPECT_LE(ev.at_ns, shape.quiet_after_ns);
  }
  EXPECT_NE(a.ToString(), fault::RandomFaultPlan(100, shape).ToString());
}

}  // namespace
}  // namespace ring
