// ring-mc: schedule-space model checker tests.
//
// Covers the determinism contract (same spec, byte-identical outcome), DPOR
// soundness (same final-state fingerprint set as naive full enumeration, at
// a fraction of the traces), shrinker determinism, and the regression
// harness: the three PR 5 bugs, re-introduced behind RingOptions::
// TestOnlyBugs, must each be rediscovered by bounded exploration and vanish
// when the flag is off.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/scenarios.h"
#include "src/mc/spec.h"

namespace ring::mc {
namespace {

McOp Put(const std::string& key, uint64_t nonce, uint64_t at_ns,
         uint32_t client = 0, uint32_t size = 64) {
  McOp op;
  op.kind = McOp::Kind::kPut;
  op.key = key;
  op.nonce = nonce;
  op.at_ns = at_ns;
  op.client = client;
  op.value_size = size;
  return op;
}

McOp Get(const std::string& key, uint64_t at_ns, uint32_t client = 0) {
  McOp op;
  op.kind = McOp::Kind::kGet;
  op.key = key;
  op.at_ns = at_ns;
  op.client = client;
  return op;
}

// Smallest interesting cluster: two coordinator shards, one redundant slot,
// rep2 — three servers. Two clients race puts on one key within the reorder
// window, so the schedule decides the final value: at least two distinct
// final states are reachable, and the order flip is what DPOR must not lose.
McConfig MicroConfig() {
  McConfig c;
  c.s = 2;
  c.d = 1;
  c.spares = 0;
  c.clients = 2;
  c.seed = 1;
  c.scheme = "rep2";
  c.reorder_window_ns = 3000;
  c.max_steps = 48;
  c.ops.push_back(Put("alpha", 1, 0, 0));
  c.ops.push_back(Put("alpha", 2, 500, 1));
  c.ops.push_back(Get("alpha", 40'000, 0));
  return c;
}

TraceResult RunDefault(const McConfig& config) {
  TraceRunner::Options opts;
  opts.record = true;
  return TraceRunner(config, opts).Run();
}

TEST(McHarness, DefaultRunCompletesClean) {
  const TraceResult res = RunDefault(MicroConfig());
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.violation, "") << res.violation_detail;
  EXPECT_FALSE(res.diverged);
  // The controller actually saw choice points (the hooks are live).
  EXPECT_GT(res.steps, 0u);
  EXPECT_FALSE(res.trail.empty());
  EXPECT_NE(res.final_digest, 0u);
}

TEST(McHarness, DefaultRunDeterministic) {
  const TraceResult a = RunDefault(MicroConfig());
  const TraceResult b = RunDefault(MicroConfig());
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.trail.size(), b.trail.size());
}

// Replaying the dense decision list of a run reproduces it byte-for-byte:
// same schedule hash, same final state.
TEST(McHarness, DenseReplayByteIdentical) {
  const TraceResult ref = RunDefault(MicroConfig());
  std::vector<McDecision> dense;
  for (const McStepRecord& r : ref.trail) {
    dense.push_back(r.decision);
  }
  TraceRunner::Options opts;
  opts.plan = dense;
  opts.record = true;
  const TraceResult replayed = TraceRunner(MicroConfig(), opts).Run();
  EXPECT_FALSE(replayed.diverged);
  EXPECT_EQ(replayed.schedule_hash, ref.schedule_hash);
  EXPECT_EQ(replayed.final_digest, ref.final_digest);
  EXPECT_EQ(replayed.steps, ref.steps);
}

// Forcing a non-default candidate at one step changes the schedule but
// stays deterministic across repeats.
TEST(McHarness, DeviatedRunDeterministic) {
  const TraceResult ref = RunDefault(MicroConfig());
  // Find a step with a real choice.
  McDecision dev;
  bool found = false;
  for (const McStepRecord& r : ref.trail) {
    if (r.candidates.size() >= 2) {
      dev.kind = McDecision::Kind::kDeliver;
      dev.step = r.decision.step;
      dev.tag = r.candidates[1];
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "micro config has no branching choice point";
  TraceRunner::Options opts;
  opts.plan = {dev};
  opts.record = true;
  const TraceResult a = TraceRunner(MicroConfig(), opts).Run();
  const TraceResult b = TraceRunner(MicroConfig(), opts).Run();
  EXPECT_FALSE(a.diverged);
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_NE(a.schedule_hash, ref.schedule_hash);
}

TEST(McSpec, RoundTripsThroughText) {
  ScheduleSpec spec;
  spec.config = MicroConfig();
  spec.config.max_drops = 1;
  spec.config.max_crashes = 1;
  spec.config.crash_nodes = {0, 2};
  spec.config.bug_single_source_recovery = true;
  McDecision d;
  d.kind = McDecision::Kind::kDeliver;
  d.step = 3;
  d.tag = 17;
  spec.decisions.push_back(d);
  d.kind = McDecision::Kind::kCrash;
  d.step = 9;
  d.tag = 0;
  d.node = 2;
  spec.decisions.push_back(d);
  spec.expect_violation = "durability";
  spec.expect_digest = 0xdeadbeefcafef00dULL;

  const std::string text = spec.ToString();
  const Result<ScheduleSpec> parsed = ScheduleSpec::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_EQ(parsed->decisions.size(), 2u);
  EXPECT_TRUE(parsed->decisions[0] == spec.decisions[0]);
  EXPECT_TRUE(parsed->decisions[1] == spec.decisions[1]);
  EXPECT_EQ(parsed->expect_violation, "durability");
  EXPECT_EQ(parsed->expect_digest, spec.expect_digest);
}

TEST(McSpec, ParseRejectsGarbage) {
  EXPECT_FALSE(ScheduleSpec::Parse("not a spec").ok());
  EXPECT_FALSE(ScheduleSpec::Parse("mc-spec v1\nfrobnicate x=1").ok());
  EXPECT_FALSE(
      ScheduleSpec::Parse("mc-spec v1\nstep 5 deliver tag=1\nstep 3 deliver "
                          "tag=2")
          .ok());
}

// The tentpole equivalence check: DPOR + sleep sets must reach exactly the
// final states naive full enumeration reaches, with at least 5x fewer
// traces.
TEST(McExplorer, DporMatchesNaiveEnumeration) {
  const McConfig config = MicroConfig();

  ExplorerOptions naive;
  naive.dpor = false;
  naive.sleep_sets = false;
  naive.state_dedup = false;
  naive.max_traces = 100'000;
  naive.stop_on_violation = false;
  ExploreResult full = Explorer(config, naive).Explore();
  ASSERT_LT(full.traces, naive.max_traces) << "naive enumeration truncated";
  ASSERT_FALSE(full.found) << full.violation << ": " << full.violation_detail;

  ExplorerOptions reduced;
  reduced.dpor = true;
  reduced.sleep_sets = true;
  reduced.max_traces = 100'000;
  reduced.stop_on_violation = false;
  ExploreResult dpor = Explorer(config, reduced).Explore();
  ASSERT_FALSE(dpor.found) << dpor.violation;

  // Non-vacuous: the schedule really decides the outcome here.
  EXPECT_GE(full.fingerprints.size(), 2u);
  EXPECT_EQ(dpor.fingerprints, full.fingerprints)
      << "DPOR missed or invented final states: " << dpor.fingerprints.size()
      << " vs " << full.fingerprints.size();
  EXPECT_LE(dpor.traces * 5, full.traces)
      << "DPOR explored " << dpor.traces << " traces vs naive "
      << full.traces;
}

// --- PR 5 regression bugs -------------------------------------------------
// The scenario configs live in src/mc/scenarios.cc (shared with
// `ringctl mc`). Each re-introduces one seed-era bug behind RingOptions::
// TestOnlyBugs and bounds the schedule space so exploration rediscovers it
// quickly. The paired assertion — clean with the flag off over the same
// space — pins the oracle's false-positive rate at zero for these workloads.

McConfig ScenarioConfig(const std::string& name, bool bug) {
  Result<McScenario> sc = PresetScenario(name, bug);
  EXPECT_TRUE(sc.ok()) << sc.status().message();
  return sc->config;
}

// Shared check: the bug is found within budget, the shrunk counterexample
// replays byte-identically to the recorded expectation, and the identical
// schedule space is clean with the flag off.
void ExpectRediscovered(const McConfig& buggy, const McConfig& clean,
                        const std::string& want_violation) {
  ExplorerOptions opts;
  opts.max_traces = 5'000;
  ExploreResult found = Explorer(buggy, opts).Explore();
  ASSERT_TRUE(found.found) << "explored " << found.traces
                           << " traces without finding " << want_violation;
  EXPECT_EQ(found.violation, want_violation) << found.violation_detail;
  EXPECT_LE(found.traces, opts.max_traces);

  // The minimized spec replays to the same violation and final state, twice
  // (replay is byte-identical, not merely violation-identical).
  const ScheduleSpec& spec = found.counterexample;
  EXPECT_EQ(spec.expect_violation, want_violation);
  const TraceResult a = Replay(spec);
  const TraceResult b = Replay(spec);
  EXPECT_FALSE(a.diverged);
  EXPECT_EQ(a.violation, want_violation) << a.violation_detail;
  EXPECT_EQ(a.final_digest, spec.expect_digest);
  EXPECT_EQ(b.schedule_hash, a.schedule_hash);
  EXPECT_EQ(b.final_digest, a.final_digest);

  // The spec survives its own text round trip.
  const Result<ScheduleSpec> reparsed = ScheduleSpec::Parse(spec.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  const TraceResult c = Replay(*reparsed);
  EXPECT_EQ(c.schedule_hash, a.schedule_hash);
  EXPECT_EQ(c.final_digest, a.final_digest);

  // Same bounds, bug off: the whole bounded space is violation-free.
  ExplorerOptions sweep = opts;
  sweep.stop_on_violation = false;
  const ExploreResult none = Explorer(clean, sweep).Explore();
  EXPECT_FALSE(none.found) << none.violation << ": " << none.violation_detail;
}

TEST(McBugs, RediscoversWriteRetransmissionBug) {
  ExpectRediscovered(ScenarioConfig("wedged-write", true),
                     ScenarioConfig("wedged-write", false),
                     kViolationWedgedWrite);
}

TEST(McBugs, RediscoversSingleSourceRecoveryBug) {
  ExpectRediscovered(ScenarioConfig("single-source-recovery", true),
                     ScenarioConfig("single-source-recovery", false),
                     kViolationDurability);
}

TEST(McBugs, RediscoversGcRevalidateBug) {
  ExpectRediscovered(ScenarioConfig("gc-revalidate", true),
                     ScenarioConfig("gc-revalidate", false),
                     kViolationCorruptRead);
}

TEST(McScenarios, RejectsUnknownName) {
  EXPECT_FALSE(PresetScenario("frobnicate", true).ok());
  EXPECT_EQ(PresetScenarios(false).size(), 5u);
}

// --- §16 revoke-then-promote spaces -----------------------------------------
// No injectable bug: bounded exploration of each space must be entirely
// violation-free, and the deterministic-replay contract must hold with
// scripted revocations and non-blocking reads in play.

// Shared check for the robustness scenarios: the space is clean, the default
// trace is deterministic, and a dense replay of it is byte-identical (the
// revoke-then-promote machinery introduces no hidden nondeterminism).
void ExpectCleanSpace(const McConfig& config) {
  const TraceResult a = RunDefault(config);
  const TraceResult b = RunDefault(config);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.violation, "") << a.violation_detail;
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.final_digest, b.final_digest);

  std::vector<McDecision> dense;
  for (const McStepRecord& r : a.trail) {
    dense.push_back(r.decision);
  }
  TraceRunner::Options replay;
  replay.plan = dense;
  replay.record = true;
  const TraceResult c = TraceRunner(config, replay).Run();
  EXPECT_FALSE(c.diverged);
  EXPECT_EQ(c.schedule_hash, a.schedule_hash);
  EXPECT_EQ(c.final_digest, a.final_digest);

  ExplorerOptions sweep;
  sweep.max_traces = 5'000;
  sweep.stop_on_violation = false;
  const ExploreResult res = Explorer(config, sweep).Explore();
  EXPECT_FALSE(res.found) << res.violation << ": " << res.violation_detail;
  EXPECT_GT(res.traces, 1u) << "space has no schedule branching to explore";
}

TEST(McFastFailover, RevocationRaceSpaceIsClean) {
  ExpectCleanSpace(ScenarioConfig("revocation-race", false));
}

TEST(McFastFailover, StaleLeaseWriteSpaceIsClean) {
  ExpectCleanSpace(ScenarioConfig("stale-lease-write", false));
}

// Revoke directives and the §16 bounds keys survive the spec text round
// trip; pre-§16 specs (all defaults) emit no new keys.
TEST(McFastFailover, SpecRoundTripsRevokes) {
  ScheduleSpec spec;
  spec.config = ScenarioConfig("stale-lease-write", false);
  const std::string text = spec.ToString();
  EXPECT_NE(text.find("multiversion_depth=2"), std::string::npos);
  EXPECT_NE(text.find("nonblocking_reads=1"), std::string::npos);
  EXPECT_NE(text.find("revoke node=0 at=1000"), std::string::npos);
  const Result<ScheduleSpec> parsed = ScheduleSpec::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_EQ(parsed->config.multiversion_depth, 2u);
  EXPECT_TRUE(parsed->config.nonblocking_reads);
  ASSERT_EQ(parsed->config.revokes.size(), 1u);
  EXPECT_EQ(parsed->config.revokes[0].node, 0u);
  EXPECT_EQ(parsed->config.revokes[0].at_ns, 1'000u);

  ScheduleSpec legacy;
  legacy.config = MicroConfig();
  const std::string old_text = legacy.ToString();
  EXPECT_EQ(old_text.find("revoke"), std::string::npos);
}

// The shrinker is deterministic: two independent explorations of the same
// config minimize to the identical spec text.
TEST(McShrink, MinimizedSpecIsDeterministic) {
  ExplorerOptions opts;
  opts.max_traces = 5'000;
  const McConfig wedged = ScenarioConfig("wedged-write", true);
  const ExploreResult a = Explorer(wedged, opts).Explore();
  const ExploreResult b = Explorer(wedged, opts).Explore();
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.counterexample.ToString(), b.counterexample.ToString());
  // Shrinking really dropped the dense prefix: the wedge needs exactly one
  // deviation (the dropped append).
  EXPECT_EQ(a.counterexample.decisions.size(), 1u);
  EXPECT_TRUE(a.counterexample.decisions[0].kind == McDecision::Kind::kDrop);
}

}  // namespace
}  // namespace ring::mc
