// Discrete-event core: a time-ordered queue of callbacks.
//
// The whole reproduction of the paper's testbed runs on this: simulated
// nanoseconds instead of an InfiniBand cluster's wall clock. Determinism is
// load-bearing — ties are broken by insertion sequence, so a given seed
// always produces the same execution.
//
// The scheduler is a two-level timing wheel. The fine wheel covers a ~2 ms
// near-future window in 256 ns buckets, each bucket a small heap ordered by
// (time, seq); a coarse wheel of 4096 window-sized slots extends the horizon
// to ~8.6 s, each slot an unsorted vector that is spliced into fine buckets
// when the window reaches it. Steady-state events (wire deliveries,
// CPU completions, microsecond timers) hit the fine wheel in O(1) amortized;
// parked long timers (retry/heartbeat/failure windows) cost one coarse
// append plus one migration instead of an O(log n) sift on every push/pop.
// Only events beyond the coarse horizon fall back to a binary heap.
#ifndef RING_SRC_SIM_EVENT_QUEUE_H_
#define RING_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/task.h"

namespace ring::sim {

// Simulated time in nanoseconds since simulation start.
using SimTime = uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * 1000;
inline constexpr SimTime kSecond = 1000ULL * 1000 * 1000;

// One schedulable delivery the model checker may pick, drop or defer: a
// tagged event currently at the schedule frontier. Tags are assigned by the
// tagger (net::Fabric) in registration order, so runs that share a decision
// prefix assign identical tags — the property replayable schedule specs
// rest on.
struct DeliveryChoice {
  uint64_t tag = 0;
  SimTime time = 0;
};

// Model-checker hook (src/mc): decides which frontier delivery runs next.
// Installed only by ring-mc explorations; a null controller leaves every
// default code path byte-identical to the un-hooked scheduler.
class ScheduleController {
 public:
  struct Decision {
    enum class Action : uint8_t {
      kDeliver,  // run candidate `index`, pulled early to the frontier time
      kDrop,     // discard candidate `index` without running it (lost on
                 // the wire); the clock does not advance
      kRescan,   // the controller mutated the world (crash/recover):
                 // recompute the frontier and ask again
    };
    Action action = Action::kDeliver;
    size_t index = 0;
  };
  virtual ~ScheduleController() = default;
  // `candidates` holds the tagged deliveries at the schedule frontier,
  // (time, seq)-ordered: candidates[0] is the event the unhooked scheduler
  // would run next. All candidates are within the reorder window of
  // candidates[0], so choosing any of them models a bounded network
  // reordering; the chosen one executes at candidates[0].time.
  virtual Decision Choose(const std::vector<DeliveryChoice>& candidates) = 0;
};

class EventQueue {
 public:
  EventQueue();

  // Enqueues `fn` to run at absolute time `t` (>= now; earlier times are
  // clamped to now).
  void Schedule(SimTime t, Task fn);

  // Schedules a *delivery* event the model checker may permute. With no
  // controller installed this is exactly Schedule(t, fn) — the tag is
  // dropped and the schedule stays byte-identical. With a controller, the
  // event parks in the tagged side-store and only runs when chosen.
  void ScheduleTagged(SimTime t, Task fn, uint64_t tag);

  // Installs the model-checker hook. Untagged events (timers) may be
  // pending, but no tagged delivery may be in flight across the swap.
  // `reorder_window_ns` bounds how far a delivery may be pulled ahead of
  // the frontier event.
  void set_controller(ScheduleController* controller,
                      SimTime reorder_window_ns);
  ScheduleController* controller() { return controller_; }

  // Runs the earliest event, advancing the clock. Returns false when empty.
  bool RunNext();

  SimTime now() const { return now_; }
  bool empty() const {
    return wheel_count_ == 0 && coarse_count_ == 0 && overflow_.empty() &&
           tagged_.empty();
  }
  size_t pending() const {
    return wheel_count_ + coarse_count_ + overflow_.size() + tagged_.size();
  }
  uint64_t executed() const { return executed_; }
  // Deepest the queue has ever been (events pending at once).
  size_t depth_high_water() const { return depth_high_water_; }

 private:
  // 256 ns buckets x 8192 buckets = a ~2.1 ms near-future window: wide
  // enough that wire hops (µs) and saturated CPU backlogs stay in the wheel,
  // narrow enough that retry timeouts (100 µs – 200 ms) and heartbeats
  // (10 ms) overflow instead of bloating bucket heaps.
  static constexpr uint32_t kBucketShift = 8;
  static constexpr uint32_t kBucketBits = 13;
  static constexpr uint32_t kNumBuckets = 1u << kBucketBits;
  static constexpr uint32_t kSlotShift = kBucketShift + kBucketBits;
  static constexpr SimTime kWindowSpan = SimTime{1} << kSlotShift;
  // Coarse wheel: 4096 slots of one window span each (~8.6 s horizon). A
  // slot is only addressable while its absolute index is within 4095 of the
  // current window's, which Insert's horizon check guarantees.
  static constexpr uint32_t kCoarseBits = 12;
  static constexpr uint32_t kNumCoarse = 1u << kCoarseBits;
  static constexpr SimTime kCoarseSpan = kWindowSpan << kCoarseBits;

  struct Event {
    SimTime time;
    uint64_t seq;
    Task fn;
  };
  // Min-heap order on (time, seq) via std::push_heap's max-heap convention.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Bounds the fan-out of one choice point: candidates beyond the first 16
  // wait for a later frontier (they reappear on every Choose until taken).
  static constexpr size_t kMaxChoiceCandidates = 16;

  struct TaggedEvent {
    SimTime time;
    uint64_t seq;
    uint64_t tag;
    Task fn;
  };

  void Insert(SimTime t, Task fn);
  // Controller-driven frontier step: builds the candidate window, asks the
  // controller, and executes/drops the decision. Returns true when an event
  // ran (the caller's RunNext contract); loops internally over drops and
  // rescans.
  bool RunNextControlled();
  // Repositions the window over the earliest pending slot (coarse or
  // overflow), re-homes overflow events that the new horizon now covers,
  // and splices the window's coarse slot into fine buckets. Only legal when
  // the fine wheel is empty (all wheel events precede all coarse events,
  // which precede all overflow events, so the wheel must drain first).
  void AdvanceWindow();
  Event PopEarliest();
  // Index of the fine bucket holding the wheel's minimum (wheel non-empty).
  size_t FirstBucket() const;
  // Absolute index of the first non-empty coarse slot after the current
  // window (coarse tier non-empty).
  uint64_t FirstCoarseSlot() const;
  // The untagged event PopEarliest would return next, or null when none is
  // pending. Read-only: it must not move the window. A delivery that runs
  // at the frontier ahead of this event sets now_ below it, and may then
  // schedule work at now_, which has to land inside the current window.
  const Event* Earliest() const;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t depth_high_water_ = 0;

  // Wheel invariant: every bucketed event has window_start_ <= time <
  // window_start_ + kWindowSpan, so bucket (time >> kBucketShift) & mask is
  // unique per event and a forward scan from now_ finds the minimum.
  std::vector<std::vector<Event>> buckets_;
  size_t wheel_count_ = 0;
  SimTime window_start_ = 0;  // always a multiple of kWindowSpan

  // Coarse tier: slot (t / kWindowSpan) & (kNumCoarse - 1), unsorted.
  std::vector<std::vector<Event>> coarse_;
  size_t coarse_count_ = 0;

  // Beyond-horizon tier: binary heap.
  std::vector<Event> overflow_;

  // Model-checker side-store: tagged deliveries awaiting a Choose decision.
  // Unsorted (frontier scans are linear); empty whenever controller_ is
  // null, so the default path never touches it.
  ScheduleController* controller_ = nullptr;
  SimTime reorder_window_ns_ = 0;
  std::vector<TaggedEvent> tagged_;
};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_EVENT_QUEUE_H_
