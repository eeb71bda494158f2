#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

namespace ring::sim {

EventQueue::EventQueue() : buckets_(kNumBuckets), coarse_(kNumCoarse) {}

void EventQueue::Schedule(SimTime t, Task fn) {
  Insert(t < now_ ? now_ : t, next_seq_++, std::move(fn));
  NoteDepth();
}

void EventQueue::ScheduleReserved(SimTime t, uint64_t seq, Task fn) {
  assert(seq < next_seq_ && "ScheduleReserved needs a seq from ReserveSeq");
  Insert(t < now_ ? now_ : t, seq, std::move(fn));
  NoteDepth();
}

void EventQueue::NoteDepth() {
  const size_t depth = pending();
  if (depth > depth_high_water_) {
    depth_high_water_ = depth;
  }
}

void EventQueue::ScheduleTagged(SimTime t, Task fn, uint64_t tag) {
  if (controller_ == nullptr) {
    Schedule(t, std::move(fn));
    return;
  }
  tagged_.push_back(TaggedEvent{t < now_ ? now_ : t, next_seq_++, tag,
                                std::move(fn)});
  NoteDepth();
}

void EventQueue::set_controller(ScheduleController* controller,
                                SimTime reorder_window_ns) {
  assert(tagged_.empty() && "MC controller swap with tagged events in flight");
  controller_ = controller;
  reorder_window_ns_ = reorder_window_ns;
}

bool EventQueue::RunNextControlled() {
  for (;;) {
    if (tagged_.empty()) {
      return RunNext();
    }
    // Earliest tagged delivery, by the same (time, seq) order the unhooked
    // scheduler uses.
    size_t lead = 0;
    for (size_t i = 1; i < tagged_.size(); ++i) {
      if (tagged_[i].time < tagged_[lead].time ||
          (tagged_[i].time == tagged_[lead].time &&
           tagged_[i].seq < tagged_[lead].seq)) {
        lead = i;
      }
    }
    const SimTime frontier = tagged_[lead].time;
    // An untagged event strictly ahead of every delivery runs untouched:
    // timers and CPU completions are deterministic consequences, never
    // choice points.
    const Event* next = Earliest();
    if (next != nullptr &&
        (next->time < frontier ||
         (next->time == frontier && next->seq < tagged_[lead].seq))) {
      Event ev = PopEarliest();
      now_ = ev.time;
      ++executed_;
      ev.fn();
      return true;
    }
    // Candidate window: every delivery within reorder_window_ns_ of the
    // frontier, (time, seq)-ordered so candidates[0] is the default.
    std::vector<size_t> window;
    for (size_t i = 0; i < tagged_.size(); ++i) {
      if (tagged_[i].time <= frontier + reorder_window_ns_) {
        window.push_back(i);
      }
    }
    std::sort(window.begin(), window.end(), [this](size_t a, size_t b) {
      if (tagged_[a].time != tagged_[b].time) {
        return tagged_[a].time < tagged_[b].time;
      }
      return tagged_[a].seq < tagged_[b].seq;
    });
    if (window.size() > kMaxChoiceCandidates) {
      window.resize(kMaxChoiceCandidates);
    }
    std::vector<DeliveryChoice> candidates;
    candidates.reserve(window.size());
    for (size_t i : window) {
      candidates.push_back(DeliveryChoice{tagged_[i].tag, tagged_[i].time});
    }
    const ScheduleController::Decision d = controller_->Choose(candidates);
    if (d.action == ScheduleController::Decision::Action::kRescan) {
      continue;  // the controller crashed/recovered a node; frontier is stale
    }
    assert(d.index < window.size() && "MC decision out of range");
    const size_t victim = window[d.index];
    if (d.action == ScheduleController::Decision::Action::kDrop) {
      // Lost on the wire: the doorbell dies unrung. The clock stays put —
      // nothing executed.
      tagged_.erase(tagged_.begin() + static_cast<ptrdiff_t>(victim));
      continue;
    }
    // Deliver: the chosen event is pulled early to the frontier time, as if
    // the frontier message had been the slower one on the wire.
    TaggedEvent ev = std::move(tagged_[victim]);
    tagged_.erase(tagged_.begin() + static_cast<ptrdiff_t>(victim));
    if (frontier > now_) {
      now_ = frontier;
    }
    ++executed_;
    ev.fn();
    return true;
  }
}

void EventQueue::Insert(SimTime t, uint64_t seq, Task fn) {
  if (t < window_start_ + kWindowSpan) {
    // In-window: bucket mini-heap. Callers only schedule at t >= now_ >=
    // window_start_, so the bucket index is unambiguous.
    std::vector<Event>& bucket =
        buckets_[(t >> kBucketShift) & (kNumBuckets - 1)];
    bucket.push_back(Event{t, seq, std::move(fn)});
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    ++wheel_count_;
    return;
  }
  if (t < window_start_ + kCoarseSpan) {
    // Within the coarse horizon: O(1) unsorted append; the slot is
    // re-sorted through fine-bucket heaps when the window reaches it.
    coarse_[(t >> kSlotShift) & (kNumCoarse - 1)]
        .push_back(Event{t, seq, std::move(fn)});
    ++coarse_count_;
    return;
  }
  overflow_.push_back(Event{t, seq, std::move(fn)});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void EventQueue::AdvanceWindow() {
  // Earliest pending slot: the first non-empty coarse slot after the
  // current window, capped by the overflow minimum (overflow may hold
  // earlier events than coarse only while coarse is empty — but after the
  // horizon moves, re-homed overflow events land in coarse, so both must
  // be consulted).
  uint64_t next_slot;
  if (coarse_count_ > 0) {
    const uint64_t c = FirstCoarseSlot();
    next_slot = c;
    if (!overflow_.empty()) {
      const uint64_t o = overflow_.front().time >> kSlotShift;
      next_slot = o < c ? o : c;
    }
  } else {
    next_slot = overflow_.front().time >> kSlotShift;
  }
  window_start_ = next_slot << kSlotShift;

  // Re-home overflow events the new horizon now covers: into this window's
  // fine buckets, or a coarse slot ahead of it.
  const SimTime window_end = window_start_ + kWindowSpan;
  while (!overflow_.empty() && overflow_.front().time <
                                   window_start_ + kCoarseSpan) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    if (ev.time < window_end) {
      std::vector<Event>& bucket =
          buckets_[(ev.time >> kBucketShift) & (kNumBuckets - 1)];
      bucket.push_back(std::move(ev));
      std::push_heap(bucket.begin(), bucket.end(), Later{});
      ++wheel_count_;
    } else {
      coarse_[(ev.time >> kSlotShift) & (kNumCoarse - 1)].push_back(
          std::move(ev));
      ++coarse_count_;
    }
  }

  // Splice the window's own coarse slot into fine buckets.
  std::vector<Event>& slot = coarse_[next_slot & (kNumCoarse - 1)];
  for (Event& ev : slot) {
    std::vector<Event>& bucket =
        buckets_[(ev.time >> kBucketShift) & (kNumBuckets - 1)];
    bucket.push_back(std::move(ev));
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    ++wheel_count_;
  }
  coarse_count_ -= slot.size();
  // Free the slot's storage rather than clear() it: a slot is reached once
  // per ~8.6 s lap, and 4096 slots each holding their peak capacity would
  // keep every parked-timer burst resident for the rest of the run.
  std::vector<Event>().swap(slot);
}

EventQueue::Event EventQueue::PopEarliest() {
  if (wheel_count_ == 0) {
    AdvanceWindow();
  }
  std::vector<Event>& bucket = buckets_[FirstBucket()];
  std::pop_heap(bucket.begin(), bucket.end(), Later{});
  Event ev = std::move(bucket.back());
  bucket.pop_back();
  --wheel_count_;
  return ev;
}

size_t EventQueue::FirstBucket() const {
  // Every wheel event precedes every coarse and overflow event (those hold
  // only times at or beyond the window end), so the first non-empty bucket
  // at or after now_ holds the global minimum.
  uint64_t b = (now_ > window_start_ ? now_ : window_start_) >> kBucketShift;
  while (buckets_[b & (kNumBuckets - 1)].empty()) {
    ++b;
  }
  return b & (kNumBuckets - 1);
}

uint64_t EventQueue::FirstCoarseSlot() const {
  uint64_t c = (window_start_ >> kSlotShift) + 1;
  while (coarse_[c & (kNumCoarse - 1)].empty()) {
    ++c;
  }
  return c;
}

const EventQueue::Event* EventQueue::Earliest() const {
  if (wheel_count_ > 0) {
    return &buckets_[FirstBucket()].front();  // the bucket heap's top
  }
  // With the wheel empty, the minimum is in the first non-empty coarse slot
  // (unsorted, so scan it) or at the overflow heap's top.
  const Event* best = overflow_.empty() ? nullptr : &overflow_.front();
  if (coarse_count_ > 0) {
    for (const Event& ev : coarse_[FirstCoarseSlot() & (kNumCoarse - 1)]) {
      if (best == nullptr || Later{}(*best, ev)) {
        best = &ev;
      }
    }
  }
  return best;
}

bool EventQueue::RunNext() {
  if (controller_ != nullptr && !tagged_.empty()) {
    return RunNextControlled();
  }
  if (empty()) {
    return false;
  }
  Event ev = PopEarliest();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

}  // namespace ring::sim
