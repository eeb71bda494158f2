#include "src/mc/scenarios.h"

#include "src/mc/harness.h"

namespace ring::mc {
namespace {

McOp Put(const std::string& key, uint64_t nonce, uint64_t at_ns,
         uint32_t client, uint32_t size = 64) {
  McOp op;
  op.kind = McOp::Kind::kPut;
  op.key = key;
  op.nonce = nonce;
  op.at_ns = at_ns;
  op.client = client;
  op.value_size = size;
  return op;
}

McOp Get(const std::string& key, uint64_t at_ns, uint32_t client) {
  McOp op;
  op.kind = McOp::Kind::kGet;
  op.key = key;
  op.at_ns = at_ns;
  op.client = client;
  return op;
}

// Bug 1: a dropped backup append wedged the write forever — the coordinator
// never retransmitted. One put, one allowed message drop; the wedged-write
// oracle is armed by a finite retransmit interval.
McScenario WedgedWrite(bool bug) {
  McScenario sc;
  sc.name = "wedged-write";
  sc.violation = kViolationWedgedWrite;
  sc.description =
      "dropped backup append wedges the write without retransmission";
  McConfig& c = sc.config;
  c.s = 1;
  c.d = 1;
  c.spares = 0;
  c.clients = 1;
  c.seed = 1;
  c.scheme = "rep2";
  c.reorder_window_ns = 3000;
  c.max_steps = 64;
  c.max_drops = 1;
  c.quiesce_ns = 25'000'000;
  c.write_retransmit_ns = 100'000;
  c.ops.push_back(Put("k", 1, 0, 0));
  c.bug_no_write_retransmit = bug;
  return sc;
}

// Bug 2: rep-3 commits on a 2/3 quorum, but recovery trusted the first
// alive metadata source. Drop the straggler append, crash the coordinator:
// the spare rebuilds from the replica that never saw the write.
McScenario SingleSourceRecovery(bool bug) {
  McScenario sc;
  sc.name = "single-source-recovery";
  sc.violation = kViolationDurability;
  sc.description =
      "quorum-committed write lost when recovery trusts one metadata source";
  McConfig& c = sc.config;
  c.s = 1;
  c.d = 2;
  c.spares = 1;
  c.clients = 1;
  c.seed = 1;
  c.scheme = "rep3";
  c.reorder_window_ns = 3000;
  c.max_steps = 64;
  c.max_drops = 1;
  c.max_crashes = 1;
  c.crash_nodes = {0};
  c.quiesce_ns = 12'000'000;
  c.ops.push_back(Put("k", 1, 0, 0));
  c.bug_single_source_recovery = bug;
  return sc;
}

// Bug 3: get/GC TOCTOU. A get defers on an uncommitted big overwrite (v2)
// and captures its heap address when v2 commits; a later small overwrite
// (v3) commits and frees v2's region; a big put of another key — already
// charging on the same CPU — reuses the region via first-fit before
// the queued copy reads it. The default schedule (k2's request delivered
// before v3's) is clean; the violation needs the explorer to flip that
// delivery race, so rediscovery genuinely exercises schedule search.
McScenario GcRevalidate(bool bug) {
  McScenario sc;
  sc.name = "gc-revalidate";
  sc.violation = kViolationCorruptRead;
  sc.description =
      "get copies a GC'd heap region reused by a concurrent write";
  McConfig& c = sc.config;
  c.s = 1;
  c.d = 1;
  c.spares = 0;
  c.clients = 4;
  c.seed = 1;
  c.scheme = "rep2";
  c.reorder_window_ns = 6000;
  c.max_steps = 96;
  c.ops.push_back(Put("k1", 1, 0, 3, 64));
  c.ops.push_back(Put("k1", 2, 100'000, 1, 400'000));
  c.ops.push_back(Get("k1", 610'000, 0));
  c.ops.push_back(Put("k1", 3, 703'500, 2, 64));
  c.ops.push_back(Put("k2", 4, 223'000, 3, 400'000));
  c.bug_no_gc_revalidate = bug;
  return sc;
}

// §16 space 1: a crash-triggered fast round racing a scripted revocation of
// the same node. The explorer's crash (force-detect routes through the fast
// path when armed) and the chaos-style revoke both target node 0; the
// fast_inflight_ dedup must collapse them into one revoke-then-promote
// round, and every interleaving must keep acked writes durable. No
// injectable bug: the space must be violation-free either way.
McScenario RevocationRace(bool /*inject_bug*/) {
  McScenario sc;
  sc.name = "revocation-race";
  sc.violation = "";
  sc.description =
      "crash-triggered fast failover races a scripted revocation of the "
      "same coordinator";
  McConfig& c = sc.config;
  c.s = 1;
  c.d = 2;
  c.spares = 1;
  c.clients = 1;
  c.seed = 1;
  c.scheme = "rep3";
  c.fast_failover = true;
  c.reorder_window_ns = 3000;
  c.max_steps = 64;
  c.max_crashes = 1;
  c.crash_nodes = {0};
  c.quiesce_ns = 12'000'000;
  c.revokes.push_back({/*node=*/0, /*at_ns=*/2'000});
  c.ops.push_back(Put("k", 1, 0, 0));
  c.ops.push_back(Get("k", 400'000, 0));
  c.ops.push_back(Put("k", 2, 500'000, 0));
  c.ops.push_back(Get("k", 900'000, 0));
  return sc;
}

// §16 space 2: false suspicion of a live coordinator mid-write. The revoke
// fences node 0 while its first put's redundancy append may still be in
// flight: the write must either commit before the fence lands or NACK and
// retry through the promoted shape — it may never ack and then vanish.
// Non-blocking multiversion reads run against the same schedules: a get
// racing the in-flight write returns the newest *committed* version, which
// must still satisfy the monotonicity floor. No injectable bug.
McScenario StaleLeaseWrite(bool /*inject_bug*/) {
  McScenario sc;
  sc.name = "stale-lease-write";
  sc.violation = "";
  sc.description =
      "false suspicion fences a live coordinator mid-write; non-blocking "
      "reads ride the same schedules";
  McConfig& c = sc.config;
  c.s = 1;
  c.d = 1;
  c.spares = 1;
  c.clients = 1;
  c.seed = 1;
  c.scheme = "rep2";
  c.fast_failover = true;
  c.multiversion_depth = 2;
  c.nonblocking_reads = true;
  c.reorder_window_ns = 3000;
  c.max_steps = 64;
  c.quiesce_ns = 12'000'000;
  c.write_retransmit_ns = 100'000;
  c.revokes.push_back({/*node=*/0, /*at_ns=*/1'000});
  c.ops.push_back(Put("k", 1, 0, 0));
  c.ops.push_back(Get("k", 300'000, 0));
  c.ops.push_back(Put("k", 2, 400'000, 0));
  c.ops.push_back(Get("k", 800'000, 0));
  return sc;
}

}  // namespace

std::vector<McScenario> PresetScenarios(bool inject_bug) {
  return {WedgedWrite(inject_bug), SingleSourceRecovery(inject_bug),
          GcRevalidate(inject_bug), RevocationRace(inject_bug),
          StaleLeaseWrite(inject_bug)};
}

Result<McScenario> PresetScenario(const std::string& name, bool inject_bug) {
  for (McScenario& sc : PresetScenarios(inject_bug)) {
    if (sc.name == name) {
      return sc;
    }
  }
  std::string known;
  for (const McScenario& sc : PresetScenarios(false)) {
    known += (known.empty() ? "" : ", ") + sc.name;
  }
  return InvalidArgumentError("unknown scenario '" + name + "' (known: " +
                              known + ")");
}

}  // namespace ring::mc
