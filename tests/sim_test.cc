#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ring::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(50, [&] {
    order.push_back(1);
    q.Schedule(10, [&] { order.push_back(2); });  // in the past -> now
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      q.Schedule(q.now() + 5, recurse);
    }
  };
  q.Schedule(0, recurse);
  while (q.RunNext()) {
  }
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 45u);
}

// Schedules numbered events on a queue and logs the order they run in.
// Ids are handed out in scheduling order, so they break time ties exactly
// like the queue's sequence numbers: the (time, id) sort of everything
// scheduled, including events scheduled from inside other events, is the
// order the queue must run them in.
class OrderLog {
 public:
  explicit OrderLog(EventQueue* q) : q_(q) {}

  // Schedules the next id at `t`: a timer, or with `tagged` a delivery the
  // controller chooses (a plain event without one). `then` runs inside it.
  void Add(SimTime t, bool tagged = false, Task then = nullptr) {
    const int id = static_cast<int>(times_.size());
    times_.push_back(t);
    Task fn = [this, id, then = std::move(then)]() mutable {
      on_time_ = on_time_ && q_->now() == times_[id] && q_->now() >= last_;
      last_ = q_->now();
      ran_.push_back(id);
      if (then) {
        then();
      }
    };
    if (tagged) {
      q_->ScheduleTagged(t, std::move(fn), static_cast<uint64_t>(id));
    } else {
      q_->Schedule(t, std::move(fn));
    }
  }

  const std::vector<int>& ran() const { return ran_; }
  std::vector<int> Expected() const {
    std::vector<int> ids(times_.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(),
                     [this](int a, int b) { return times_[a] < times_[b]; });
    return ids;
  }
  // Every event ran at the time it was scheduled for, and the clock never
  // went backwards.
  bool on_time() const { return on_time_; }

 private:
  EventQueue* q_;
  std::vector<SimTime> times_;
  std::vector<int> ran_;
  SimTime last_ = 0;
  bool on_time_ = true;
};

// Takes the default candidate at every choice point, so a controlled run
// must keep the unhooked (time, seq) order.
class DefaultChoice : public ScheduleController {
 public:
  Decision Choose(const std::vector<DeliveryChoice>& candidates) override {
    ++choices;
    EXPECT_FALSE(candidates.empty());
    return Decision{};
  }
  int choices = 0;
};

// A mix spanning all three tiers (fine wheel < ~2 ms, coarse wheel
// < ~8.6 s, overflow beyond) plus same-time ties, and events scheduled from
// within a far-future event — the AdvanceWindow re-homing paths.
TEST(EventQueueTest, MatchesTimeSeqReferenceAcrossTiers) {
  EventQueue q;
  OrderLog log(&q);
  uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint64_t i = 0; i < 200; ++i) {
    SimTime t = 0;
    switch (i % 4) {
      case 0: t = next() % (2 * kMillisecond); break;
      case 1: t = next() % (500 * kMillisecond); break;
      case 2: t = 9 * kSecond + next() % (30 * kSecond); break;
      default: t = 100 * kMicrosecond; break;  // ties, seq-ordered
    }
    log.Add(t);
  }
  log.Add(15 * kSecond, false, [&q, &log] {
    log.Add(q.now() + 100);
    log.Add(q.now() + 40 * kSecond);
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(log.ran().size(), 203u);
  EXPECT_EQ(log.ran(), log.Expected());
  EXPECT_TRUE(log.on_time());
}

// ring-mc installs its controller while timers are parked in every tier.
// Taking the default choice each time, untagged timers and tagged
// deliveries must interleave in exactly (time, seq) order.
TEST(EventQueueTest, ControllerKeepsTimeSeqOrderAcrossTiers) {
  EventQueue q;
  OrderLog log(&q);
  log.Add(5 * kMicrosecond);    // fine wheel
  log.Add(3 * kMillisecond);    // coarse slot just past the first window
  log.Add(300 * kMillisecond);  // coarse wheel
  log.Add(20 * kSecond);        // overflow
  DefaultChoice controller;
  q.set_controller(&controller, /*reorder_window_ns=*/0);
  log.Add(kMicrosecond, true);
  log.Add(5 * kMicrosecond, true);  // ties the fine-wheel timer, later seq
  log.Add(2500 * kMicrosecond, true, [&q, &log] {
    log.Add(q.now() + 10);  // lands in the coarse slot's window
    log.Add(q.now() + 600 * kMicrosecond, true);
  });
  log.Add(300 * kMillisecond, true);  // ties the coarse timer
  log.Add(4 * kMicrosecond);
  log.Add(20 * kSecond + 1, true);
  while (q.RunNext()) {
  }
  EXPECT_EQ(log.ran().size(), 12u);
  EXPECT_EQ(log.ran(), log.Expected());
  EXPECT_TRUE(log.on_time());
  EXPECT_EQ(controller.choices, 6);
}

// With the wheel empty and the next timer in a coarse slot just past a
// window boundary, a delivery runs at the frontier below that slot. Work it
// schedules at `now` must still run before the timer: peeking at the timer
// must not move the window past `now`.
TEST(EventQueueTest, ControlledDeliveryBelowParkedTimerSchedulesAtNow) {
  constexpr SimTime kWindow = SimTime{1} << 21;  // the fine wheel's span
  EventQueue q;
  OrderLog log(&q);
  log.Add(kWindow + 100);
  DefaultChoice controller;
  q.set_controller(&controller, /*reorder_window_ns=*/0);
  log.Add(kWindow - 1000, true, [&q, &log] { log.Add(q.now()); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(log.ran(), (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(log.on_time());
}

TEST(EventQueueTest, CoarseAndOverflowTiersRunInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(20 * kSecond, [&] { order.push_back(4); });   // overflow tier
  q.Schedule(100 * kMillisecond, [&] { order.push_back(2); });  // coarse
  q.Schedule(kMicrosecond, [&] { order.push_back(1); });        // fine wheel
  q.Schedule(5 * kSecond, [&] { order.push_back(3); });         // coarse
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 20 * kSecond);
  EXPECT_EQ(q.depth_high_water(), 4u);
}

TEST(EventQueueTest, FarFutureEventCanScheduleNearFuture) {
  // After the window jumps to an overflow event, newly scheduled
  // microsecond-scale work must still run before parked coarse timers.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10 * kSecond, [&] {
    order.push_back(1);
    q.Schedule(q.now() + 500, [&] { order.push_back(2); });
  });
  q.Schedule(10 * kSecond + 50 * kMillisecond, [&] { order.push_back(3); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskTest, SmallCapturesStayInline) {
  TaskPool::ResetStats();
  int x = 0;
  Task t([&x] { ++x; });
  t();
  EXPECT_EQ(x, 1);
  const TaskPool::Stats s = TaskPool::stats();
  EXPECT_EQ(s.inline_ctors, 1u);
  EXPECT_EQ(s.pool_hits + s.pool_misses, 0u);
  EXPECT_EQ(s.hit_rate_pct(), 100u);
}

TEST(TaskTest, LargeCapturesUseThePoolAndRecycle) {
  TaskPool::ResetStats();
  std::array<unsigned char, 64> payload{};
  payload[0] = 41;
  int out = 0;
  {
    Task t([payload, &out] { out = payload[0] + 1; });
    t();
  }
  EXPECT_EQ(out, 42);
  {
    // The first block was returned to its free list; this one reuses it.
    Task t([payload, &out] { out = payload[0] + 2; });
    t();
  }
  EXPECT_EQ(out, 43);
  const TaskPool::Stats s = TaskPool::stats();
  EXPECT_EQ(s.inline_ctors, 0u);
  EXPECT_EQ(s.pool_hits + s.pool_misses, 2u);
  EXPECT_GE(s.pool_hits, 1u);  // the recycled block is always a hit
}

TEST(TaskTest, MoveTransfersTheCallable) {
  std::array<unsigned char, 64> payload{};
  int out = 0;
  Task a([payload, &out] { ++out; });
  Task b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move state is API
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(out, 1);
}

TEST(TaskTest, CloneProducesIndependentCopy) {
  int sum = 0;
  Task original([v = std::vector<int>{1, 2, 3}, &sum]() mutable {
    v.push_back(0);
    sum += static_cast<int>(v.size());
  });
  Task copy = original.Clone();
  ASSERT_TRUE(copy);
  original();  // v grows to 4 in the original only
  original();  // ... then 5
  copy();      // the clone's v still starts at 3
  EXPECT_EQ(sum, 4 + 5 + 4);
}

TEST(TaskTest, NonCopyableCallableClonesToEmpty) {
  auto p = std::make_unique<int>(7);
  Task t([p = std::move(p)] { (void)*p; });
  EXPECT_TRUE(t);
  EXPECT_FALSE(t.Clone());
}

TEST(TaskTest, NullCallablesBecomeEmptyTasks) {
  std::function<void()> null_fn;
  Task from_function(null_fn);
  EXPECT_FALSE(from_function);
  void (*null_ptr)() = nullptr;
  Task from_pointer(null_ptr);
  EXPECT_FALSE(from_pointer);
  Task from_nullptr(nullptr);
  EXPECT_FALSE(from_nullptr);
}

TEST(SimulatorTest, RunUntilStopsAtTime) {
  Simulator simulator;
  int count = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    simulator.At(t, [&] { ++count; });
  }
  simulator.RunUntil(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulator.now(), 55u);
  simulator.RunUntil(200);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator simulator;
  SimTime fired = 0;
  simulator.At(100, [&] {
    simulator.After(25, [&] { fired = simulator.now(); });
  });
  simulator.Run();
  EXPECT_EQ(fired, 125u);
}

TEST(CpuWorkerTest, SerializesWork) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  std::vector<SimTime> completions;
  // Three items of 100 ns submitted at t=0 complete at 100, 200, 300.
  for (int i = 0; i < 3; ++i) {
    cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  }
  simulator.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(cpu.consumed_ns(), 300u);
}

TEST(CpuWorkerTest, IdleGapsDoNotAccumulate) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  std::vector<SimTime> completions;
  cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  simulator.At(1000, [&] {
    cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  });
  simulator.Run();
  // Second item starts at 1000 (idle since 100), not at 200.
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 1100}));
}

TEST(CpuWorkerTest, BacklogReportsQueuedWork) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  cpu.Execute(500, [] {});
  cpu.Execute(500, [] {});
  EXPECT_EQ(cpu.backlog_ns(), 1000u);
  simulator.Run();
  EXPECT_EQ(cpu.backlog_ns(), 0u);
}

TEST(CpuWorkerTest, ResetCancelsScheduledCompletions) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  int ran = 0;
  cpu.Execute(100, [&] { ran += 1; });  // would complete at 100
  simulator.At(50, [&] {
    // Reset mid-flight: the completion above is already in the event queue
    // but must no-op (its generation is stale), and its captured state must
    // not fire. Fresh work after the reset runs normally.
    cpu.Reset();
    cpu.Execute(100, [&] { ran += 10; });  // completes at 150
  });
  simulator.Run();
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(cpu.consumed_ns(), 100u);  // only the post-reset item counts
}

TEST(CpuWorkerTest, ShardsRunInParallel) {
  Simulator simulator;
  CpuWorker cpu(&simulator, /*node=*/0, /*shards=*/2);
  std::vector<SimTime> done;
  cpu.ExecuteOnShard(0, 100, [&] { done.push_back(simulator.now()); });
  cpu.ExecuteOnShard(1, 100, [&] { done.push_back(simulator.now()); });
  simulator.Run();
  // Independent cores: both items finish at 100, not serialized to 200.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100}));
  EXPECT_EQ(cpu.consumed_ns(), 200u);
  EXPECT_EQ(cpu.consumed_ns(0), 100u);
  EXPECT_EQ(cpu.consumed_ns(1), 100u);
  EXPECT_EQ(cpu.shard_count(), 2u);
  EXPECT_EQ(cpu.handoffs(), 0u);
}

TEST(CpuWorkerTest, CrossShardHandoffIsCountedAndCosted) {
  Simulator simulator;
  CpuWorker cpu(&simulator, /*node=*/0, /*shards=*/2);
  SimTime handed_off_done = 0;
  cpu.ExecuteOnShard(0, 100, [&] {
    // Running on shard 0, posting to shard 1: an explicit handoff that
    // pays the wakeup cost on top of the item itself.
    cpu.ExecuteOnShard(1, 100, [&] { handed_off_done = simulator.now(); });
  });
  simulator.Run();
  EXPECT_EQ(cpu.handoffs(), 1u);
  EXPECT_EQ(handed_off_done,
            200 + simulator.params().cross_shard_handoff_ns);
}

TEST(CpuWorkerTest, ShardForHashIsStableAndInRange) {
  Simulator simulator;
  CpuWorker single(&simulator);
  CpuWorker multi(&simulator, /*node=*/1, /*shards=*/4);
  for (uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    EXPECT_EQ(single.ShardForHash(h), 0u);
    EXPECT_LT(multi.ShardForHash(h), 4u);
    EXPECT_EQ(multi.ShardForHash(h), multi.ShardForHash(h));
  }
}

}  // namespace
}  // namespace ring::sim

namespace ring::net {
namespace {

using sim::SimTime;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : simulator_(1), fabric_(&simulator_, 4) {}
  sim::Simulator simulator_;
  Fabric fabric_;
};

TEST_F(FabricTest, SendLatencyMatchesModel) {
  SimTime delivered = 0;
  fabric_.Send(0, 1, 1024, [&] { delivered = simulator_.now(); });
  simulator_.Run();
  const auto& p = simulator_.params();
  const uint64_t expected =
      fabric_.SerializationNs(1024) + p.wire_latency_ns + p.server_recv_ns;
  EXPECT_EQ(delivered, expected);
}

TEST_F(FabricTest, EgressSerializesBackToBackMessages) {
  std::vector<SimTime> arrivals;
  // Two 5 KiB messages from the same source: the second departs only after
  // the first finishes serializing.
  fabric_.Send(0, 1, 5120, [&] { arrivals.push_back(simulator_.now()); });
  fabric_.Send(0, 2, 5120, [&] { arrivals.push_back(simulator_.now()); });
  simulator_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], fabric_.SerializationNs(5120));
}

TEST_F(FabricTest, DistinctSourcesDoNotSerialize) {
  std::vector<SimTime> arrivals;
  fabric_.Send(0, 2, 5120, [&] { arrivals.push_back(simulator_.now()); });
  fabric_.Send(1, 3, 5120, [&] { arrivals.push_back(simulator_.now()); });
  simulator_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

TEST_F(FabricTest, DeadDestinationDropsMessage) {
  bool delivered = false;
  fabric_.Kill(1);
  fabric_.Send(0, 1, 64, [&] { delivered = true; });
  simulator_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(FabricTest, DeadSourceSendsNothing) {
  bool delivered = false;
  fabric_.Kill(0);
  fabric_.Send(0, 1, 64, [&] { delivered = true; });
  simulator_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(fabric_.messages_sent(), 0u);
}

TEST_F(FabricTest, NodeDyingInFlightDropsDelivery) {
  bool delivered = false;
  fabric_.Send(0, 1, 1 << 20, [&] { delivered = true; });
  // Kill the destination while the (large) message is in flight.
  simulator_.At(1000, [&] { fabric_.Kill(1); });
  simulator_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(FabricTest, WriteBypassesRemoteCpu) {
  // Saturate node 1's CPU; an RDMA write must still apply on time, while a
  // two-sided send queues behind the CPU work.
  fabric_.cpu(1).Execute(1'000'000, [] {});
  SimTime write_applied = 0;
  SimTime send_handled = 0;
  fabric_.Write(0, 1, 256, [&] { write_applied = simulator_.now(); }, nullptr);
  fabric_.Send(0, 1, 256, [&] { send_handled = simulator_.now(); });
  simulator_.Run();
  EXPECT_LT(write_applied, 10'000u);
  EXPECT_GT(send_handled, 1'000'000u);
}

TEST_F(FabricTest, WriteCompletionAfterRoundTrip) {
  SimTime applied = 0;
  SimTime completed = 0;
  fabric_.Write(0, 1, 128, [&] { applied = simulator_.now(); },
                [&] { completed = simulator_.now(); });
  simulator_.Run();
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(completed, applied + simulator_.params().wire_latency_ns);
}

TEST_F(FabricTest, ReadFetchesRemoteData) {
  int value = 0;
  int seen = -1;
  fabric_.Read(0, 1, 4096, [&] { value = 7; },
               [&] { seen = value; });
  simulator_.Run();
  EXPECT_EQ(seen, 7);
}

TEST_F(FabricTest, DeadTargetWriteNeverCompletes) {
  bool completed = false;
  fabric_.Kill(1);
  fabric_.Write(0, 1, 128, nullptr, [&] { completed = true; });
  simulator_.Run();
  EXPECT_FALSE(completed);
}

TEST_F(FabricTest, CountersTrackTraffic) {
  fabric_.Send(0, 1, 100, [] {});
  fabric_.Send(1, 0, 200, [] {});
  simulator_.Run();
  EXPECT_EQ(fabric_.messages_sent(), 2u);
  EXPECT_EQ(fabric_.bytes_sent(), 300u);
}

}  // namespace
}  // namespace ring::net
