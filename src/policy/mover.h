// Background mover: executes the policy engine's tiering decisions as
// ordinary client `move`s, paced by a token bucket so re-tiering traffic
// stays within a bandwidth budget and never starves foreground ops.
//
// Consistency comes for free: each move goes through RingClient::Move, so
// the server-side versioned write-ahead/commit protocol (paper §5.2) applies
// unchanged — concurrent puts/gets against a key being moved behave exactly
// as they would for a client-issued move.
//
// Failure handling: a move that fails with a retryable status (timeout
// during failover, data temporarily unavailable) is re-queued with a backoff
// up to `max_retries`; NotFound (key deleted underneath us) and permanent
// errors abort the move. Aborting is safe — the key simply keeps its current
// scheme and the next policy tick may try again.
#ifndef RING_SRC_POLICY_MOVER_H_
#define RING_SRC_POLICY_MOVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/ring/cluster.h"

namespace ring::policy {

struct MoverOptions {
  // Token bucket: sustained moves/sec and burst capacity.
  double moves_per_sec = 2000.0;
  double burst = 4.0;
  // In-flight bound (a move occupies a client slot until it completes).
  uint32_t max_concurrent = 2;
  uint32_t max_retries = 3;
  sim::SimTime retry_backoff_ns = 500 * sim::kMicrosecond;
  // Which cluster client issues the moves (give the mover its own endpoint
  // so foreground latency stats stay clean).
  uint32_t client_index = 0;
  // When set, jobs are issued through this hook instead of RingClient::Move.
  // The elastic-rebalance driver (§13) reuses the mover's token bucket,
  // in-flight bound and retry machinery for per-key migrations this way.
  using Issuer = std::function<void(const Key&, MemgestId,
                                    std::function<void(Status, Version)>)>;
  Issuer issuer;
  // Admission gate consulted before launching queued jobs. While it returns
  // false the queue is held (not dropped) and re-checked after the retry
  // backoff — e.g. autotier re-tiering yields to an in-flight rebalance.
  // Unset = always admit.
  std::function<bool()> admit;
};

class Mover {
 public:
  // Called on terminal outcome of a move: (key, dst, final status).
  using DoneHook =
      std::function<void(const Key&, MemgestId, const Status&)>;

  Mover(RingCluster* cluster, MoverOptions options);

  // Schedules key -> dst. Duplicate keys already queued or in flight are
  // coalesced (the newest destination wins for queued entries).
  void Enqueue(const Key& key, MemgestId dst);

  // Refills tokens from elapsed simulated time and launches as many queued
  // moves as tokens/concurrency allow. The mover is self-driving after the
  // first Tick: completions re-tick to reuse the freed slot, and a token
  // shortage arms a timer for when the next token matures — so a burst of
  // enqueued moves drains at the bucket rate, not at the epoch rate.
  void Tick();

  // True while a move for `key` is queued or in flight.
  bool Pending(const Key& key) const { return pending_.count(key) > 0; }

  void set_done_hook(DoneHook hook) { done_hook_ = std::move(hook); }

  // ---- statistics ----
  uint64_t scheduled() const { return scheduled_; }
  // ring-lint: ok(test-only-api) read-back of the token bucket's rate limit
  uint64_t launched() const { return launched_; }
  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t retried() const { return retried_; }
  // ring-lint: ok(test-only-api) read-back: the mover drained
  size_t queued() const { return queue_.size(); }
  // ring-lint: ok(test-only-api) read-back: the mover drained
  size_t in_flight() const { return in_flight_; }
  // Keys with any outstanding work: queued, in flight, or backing off
  // between retry attempts (nothing is queued or in flight during a backoff).
  size_t pending_keys() const { return pending_.size(); }

 private:
  struct Job {
    Key key;
    MemgestId dst;
    uint32_t attempts = 0;
  };

  void Launch(Job job);
  void OnDone(Job job, const Status& status);
  void Finish(Job job, const Status& status);
  void RefillTokens();
  static bool Retryable(const Status& s);

  RingCluster* cluster_;
  MoverOptions options_;
  // Lifetime token: armed timers capture a weak reference and no-op once the
  // mover is destroyed (a rebalance driver's mover dies with the transition,
  // possibly with a backoff or refill timer still queued in the simulator).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  std::deque<Job> queue_;
  // key -> queued destination (coalescing) or in-flight marker.
  std::unordered_map<Key, MemgestId> pending_;
  double tokens_;
  sim::SimTime last_refill_ = 0;
  bool refill_timer_armed_ = false;
  size_t in_flight_ = 0;
  uint64_t scheduled_ = 0;
  uint64_t launched_ = 0;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t retried_ = 0;
  DoneHook done_hook_;
};

}  // namespace ring::policy

#endif  // RING_SRC_POLICY_MOVER_H_
