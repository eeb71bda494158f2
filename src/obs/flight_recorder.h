// Flight recorder: a fixed-capacity overwrite ring of recent structured
// events (op phase transitions, quorum waits, retransmits, dedup hits,
// recovery steps) that the fault injector also publishes into, so every
// protocol anomaly in the ring is causally adjacent to the fault that
// triggered it. Recording is a branch plus a few stores while enabled and a
// single branch while disabled; the recorder never allocates after Enable,
// never schedules events, and never touches the simulation RNG, so it is
// zero-perturbation by construction.
//
// Event names must be string literals (the ring stores the pointer).
#ifndef RING_SRC_OBS_FLIGHT_RECORDER_H_
#define RING_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ring::obs {

// Coarse event taxonomy; the name carries the specific step.
enum class RecKind : uint8_t {
  kPhase = 0,    // op phase transitions (commit, apply, reply)
  kQuorum,       // quorum waits / deferred reads
  kRetransmit,   // timer-driven resends
  kDedup,        // duplicate-request hits answered from the op cache
  kRestart,      // validate-and-retry op restarts
  kRecovery,     // promotion, block recovery, parity rebuild steps
  kFault,        // injector actions (crash/recover/partition/pause/...)
  kNet,          // injected message drop/dup/delay at the fabric
  kPolicy,       // autotier move decisions and completions
  kClient,       // client-side retries, failures, budget exhaustion
};

const char* RecKindName(RecKind kind);

struct RecEvent {
  uint64_t t_ns = 0;    // sim time the event was recorded
  uint64_t op_id = 0;   // MakeOpId(...) when known, 0 otherwise
  uint64_t a = 0;       // event-specific detail (e.g. peer node, memgest)
  uint64_t b = 0;       // second detail slot
  uint32_t node = 0;    // node the event happened on
  RecKind kind = RecKind::kPhase;
  const char* name = "";  // static string naming the specific step
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  bool enabled() const { return enabled_; }
  // Enabling allocates the ring storage once; disabling keeps the contents
  // (so a post-mortem can still read the tail after the run).
  void Enable(bool on);
  // Must be called before Enable; capacity 0 is rejected (keeps previous).
  // ring-lint: ok(test-only-api) capacity seam for Record's wrap-around
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  // Clock supplying sim-time ns; only consulted from Record while enabled.
  void SetClock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }

  void Record(RecKind kind, const char* name, uint32_t node, uint64_t op_id,
              uint64_t a = 0, uint64_t b = 0) {
    if (!enabled_) {
      return;
    }
    RecEvent& e = ring_[total_ % capacity_];
    e.t_ns = clock_ ? clock_() : 0;
    e.op_id = op_id;
    e.a = a;
    e.b = b;
    e.node = node;
    e.kind = kind;
    e.name = name;
    ++total_;
  }

  // Events currently retained (min(total, capacity)).
  size_t size() const { return total_ < capacity_ ? total_ : capacity_; }
  // Events ever recorded, including overwritten ones.
  uint64_t total_recorded() const { return total_; }

  // Last `n` retained events in chronological order.
  // ring-lint: ok(test-only-api) the client/server/fault recorder hooks
  std::vector<RecEvent> Tail(size_t n) const;
  // Retained events with t_ns in [from_ns, until_ns], chronological.
  std::vector<RecEvent> Between(uint64_t from_ns, uint64_t until_ns) const;

  // One event per line: "t_us kind name node=N op=... a=... b=...".
  static std::string Format(const std::vector<RecEvent>& events);

  void Clear();

 private:
  bool enabled_ = false;
  size_t capacity_ = kDefaultCapacity;
  uint64_t total_ = 0;
  std::vector<RecEvent> ring_;
  std::function<uint64_t()> clock_;
};

}  // namespace ring::obs

#endif  // RING_SRC_OBS_FLIGHT_RECORDER_H_
