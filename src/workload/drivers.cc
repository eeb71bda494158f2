#include "src/workload/drivers.h"

#include "src/common/bytes.h"

namespace ring::workload {

Samples ClosedLoopDriver::MeasurePutLatency(MemgestId memgest,
                                            size_t value_size, int reps,
                                            int key_count) {
  Samples out;
  auto& client = cluster_->client(client_);
  const Buffer value = MakePatternBuffer(value_size, value_size);
  for (int i = 0; i < reps; ++i) {
    const Key key = "lat-" + std::to_string(i % key_count);
    client.ResetStats();
    if (!cluster_->Put(key, value, memgest, client_).ok()) {
      continue;
    }
    if (!client.latencies().empty()) {
      out.Add(client.latencies().values().back());
    }
  }
  return out;
}

Samples ClosedLoopDriver::MeasureGetLatency(MemgestId memgest,
                                            size_t value_size, int reps,
                                            int key_count) {
  Samples out;
  auto& client = cluster_->client(client_);
  const Buffer value = MakePatternBuffer(value_size, value_size);
  for (int i = 0; i < key_count; ++i) {
    (void)cluster_->Put("lat-" + std::to_string(i), value, memgest, client_);
  }
  for (int i = 0; i < reps; ++i) {
    const Key key = "lat-" + std::to_string(i % key_count);
    client.ResetStats();
    if (!cluster_->Get(key, client_).ok()) {
      continue;
    }
    if (!client.latencies().empty()) {
      out.Add(client.latencies().values().back());
    }
  }
  return out;
}

Samples ClosedLoopDriver::MeasureMoveLatency(MemgestId src, MemgestId dst,
                                             size_t value_size, int reps) {
  Samples out;
  auto& client = cluster_->client(client_);
  const Buffer value = MakePatternBuffer(value_size, value_size);
  for (int i = 0; i < reps; ++i) {
    const Key key = "mv-" + std::to_string(i % 16);
    if (!cluster_->Put(key, value, src, client_).ok()) {
      continue;
    }
    client.ResetStats();
    if (!cluster_->Move(key, dst, client_).ok()) {
      continue;
    }
    if (!client.latencies().empty()) {
      out.Add(client.latencies().values().back());
    }
  }
  return out;
}

OpenLoopDriver::OpenLoopDriver(RingCluster* cluster, uint32_t client_index,
                               Options options)
    : cluster_(cluster),
      client_(client_index),
      options_(options),
      workload_(options.spec, options.seed),
      value_(std::make_shared<Buffer>(
          MakePatternBuffer(options.spec.value_len, options.seed))),
      rate_(options.rate_per_sec) {}

void OpenLoopDriver::Start() {
  running_ = true;
  next_issue_ = cluster_->simulator().now();
  ScheduleNext();
}

void OpenLoopDriver::ScheduleNext() {
  if (!running_) {
    return;
  }
  next_issue_ += static_cast<sim::SimTime>(1e9 / rate_);
  cluster_->simulator().At(next_issue_, [this] {
    IssueOne();
    ScheduleNext();
  });
}

void OpenLoopDriver::IssueOne() {
  if (!running_) {
    return;
  }
  auto& client = cluster_->client(client_);
  if (client.outstanding() >= options_.max_outstanding) {
    ++dropped_;  // request window full: flow control sheds load
    return;
  }
  const Op op = workload_.Next();
  ++issued_;
  if (op.kind == OpKind::kGet) {
    client.Get(op.key, [this](GetResult r) {
      if (r.status.ok() || r.status.code() == StatusCode::kNotFound) {
        ++completed_;
      }
    });
  } else {
    client.Put(op.key, value_, options_.memgest, [this](Status s, Version) {
      if (s.ok()) {
        ++completed_;
      }
    });
  }
}

uint64_t Preload(RingCluster* cluster, const YcsbSpec& spec,
                 MemgestId memgest, uint64_t seed) {
  YcsbWorkload workload(spec, seed);
  const Buffer value = MakePatternBuffer(spec.value_len, seed);
  for (uint64_t rank = 0; rank < spec.num_keys; ++rank) {
    (void)cluster->Put(workload.KeyOf(rank), value, memgest);
  }
  return spec.num_keys;
}

}  // namespace ring::workload
