// ring-lint: determinism hygiene rules for the simulator tree.
//
// The whole evaluation rests on the discrete-event simulator being
// bit-deterministic: same seed, same event order, same bytes out. These
// rules catch the ways that property quietly erodes:
//
//   wallclock       host-clock reads (std::chrono clocks, gettimeofday,
//                   clock_gettime, time(NULL)) in simulation code — host
//                   time must never leak into simulated decisions.
//   rand            non-seeded randomness (rand, srand, std::random_device,
//                   std::mt19937, drand48) — all randomness must flow
//                   through the simulator-owned ring::Rng.
//   unordered-iter  iteration over std::unordered_map/unordered_set
//                   members or locals — hash-table order is stdlib- and
//                   insertion-dependent, so any sim-visible decision fed by
//                   it is a determinism hazard. Reviewed iterations are
//                   allowlisted in place (see below).
//   raw-schedule    direct Simulator/EventQueue `Schedule(...)` calls
//                   outside src/sim — protocol code must go through
//                   net::Fabric (or the Simulator At/After wrappers for
//                   local timers) so every event is attributable.
//   boxed-callback  std::function in src/sim, src/net or src/ring/client.*
//                   — the scheduler hot path carries callables as pooled
//                   sim::Task values; a std::function there boxes every
//                   out-of-line capture on the general heap and silently
//                   bypasses the pool. In the client it would bring back
//                   per-op closures; only its public callback types are
//                   waived.
//   server-admission `cpu().Execute(` or `obs::ScopedOp` in
//                   src/ring/server*.{h,cc} — RingServer::OnCpu is the one
//                   way server work reaches the CPU: it skips a dead node
//                   and the queued item keeps the op that enqueued it, as a
//                   fabric delivery keeps its sender's. Only OnCpu and the
//                   two places that must switch ops (the commit-waiter loop
//                   and the write-retransmit timer) carry waivers.
//   use-after-move  `std::move(x)` where `x` is also read elsewhere in the
//                   same statement — sibling call arguments evaluate in
//                   unspecified order, so `Send(ReqBytes(req.key.size()),
//                   [req = std::move(req)]...)` may gut the key before its
//                   size is read. Brace-enclosed lambda bodies are sequenced
//                   after the call and don't count as concurrent reads.
//   unchecked-status a statement consisting solely of a call to a function
//                   this file (or its paired header) declares as returning
//                   Status/Result<...> — the result must be handled or
//                   explicitly discarded with a `(void)` cast.
//   orphan-cc       a .cc under src/ whose target is not reachable from any
//                   test executable's link graph — untested code.
//   test-only-api   a function, class or enumerator declared in a src/
//                   header that no non-test root reaches (src/ outside the
//                   symbol's own .h/.cc, bench/, tools/, e2e_bench/,
//                   examples/): code only its own tests exercise, or, when
//                   no test names it either, code nothing uses. A root
//                   reaches a name only if the header is in its #include
//                   closure. Token-level: a name shared with another class
//                   the same file sees may hide a finding, never invent
//                   one. Waive an independent oracle on its
//                   declaration with
//                   `// ring-lint: ok(test-only-api) <code it cross-checks>`,
//                   anything else naming its user.
//
// Text rules scan src/sim, src/net, src/ring, src/srs and src/policy
// (raw-schedule exempts src/sim itself). The build-graph and test-only-api
// rules cover all of src/. This is a regex/AST-lite pass: it reads lines,
// not a real AST, so a reviewed, genuinely-safe use is silenced with an
// allowlist comment on the same or the preceding line:
//
//   // ring-lint: ok(unordered-iter) <reason>
#ifndef RING_SRC_ANALYSIS_LINT_H_
#define RING_SRC_ANALYSIS_LINT_H_

#include <string>
#include <vector>

namespace ring::analysis {

struct LintFinding {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based; 0 = file-level (orphan-cc)
  std::string rule;
  std::string message;

  bool operator<(const LintFinding& o) const {
    if (file != o.file) {
      return file < o.file;
    }
    if (line != o.line) {
      return line < o.line;
    }
    return rule < o.rule;
  }
};

struct SourceInput {
  std::string relpath;        // decides which rules apply
  std::string content;
  std::string paired_header;  // for a .cc: its .h, so member declarations
                              // feed unordered-iter; empty if none
};

// Text rules over one file. With `force_all_rules`, every text rule runs
// regardless of path (used for fixtures and tests).
std::vector<LintFinding> LintSource(const SourceInput& in,
                                    bool force_all_rules = false);

// Build-graph rule: parses every CMakeLists.txt under `root` and reports
// each src/ .cc not reachable from a test target's link closure.
std::vector<LintFinding> LintBuildGraph(const std::string& root);

// test-only-api over the checkout at `root`.
std::vector<LintFinding> LintTestOnlyApi(const std::string& root);

// Walks `root` (a repo checkout), runs text rules over the scanned dirs and
// the build-graph rule, and returns all findings sorted by (file, line).
std::vector<LintFinding> LintTree(const std::string& root);

// "file:line: [rule] message" lines, one per finding.
std::string FormatFindings(const std::vector<LintFinding>& findings);

}  // namespace ring::analysis

#endif  // RING_SRC_ANALYSIS_LINT_H_
