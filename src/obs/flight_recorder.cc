#include "src/obs/flight_recorder.h"

#include <cinttypes>
#include <cstdio>

namespace ring::obs {

const char* RecKindName(RecKind kind) {
  switch (kind) {
    case RecKind::kPhase:
      return "phase";
    case RecKind::kQuorum:
      return "quorum";
    case RecKind::kRetransmit:
      return "retransmit";
    case RecKind::kDedup:
      return "dedup";
    case RecKind::kRestart:
      return "restart";
    case RecKind::kRecovery:
      return "recovery";
    case RecKind::kFault:
      return "fault";
    case RecKind::kNet:
      return "net";
    case RecKind::kPolicy:
      return "policy";
    case RecKind::kClient:
      return "client";
  }
  return "?";
}

void FlightRecorder::Enable(bool on) {
  if (on && ring_.size() != capacity_) {
    ring_.assign(capacity_, RecEvent{});
    total_ = 0;
  }
  enabled_ = on;
}

void FlightRecorder::set_capacity(size_t capacity) {
  if (capacity == 0 || capacity == capacity_) {
    return;
  }
  capacity_ = capacity;
  if (!ring_.empty()) {
    ring_.assign(capacity_, RecEvent{});
    total_ = 0;
  }
}

std::vector<RecEvent> FlightRecorder::Tail(size_t n) const {
  const size_t have = size();
  const size_t take = n < have ? n : have;
  std::vector<RecEvent> out;
  out.reserve(take);
  for (size_t i = have - take; i < have; ++i) {
    // Oldest retained event lives at total_ - have.
    out.push_back(ring_[(total_ - have + i) % capacity_]);
  }
  return out;
}

std::vector<RecEvent> FlightRecorder::Between(uint64_t from_ns,
                                              uint64_t until_ns) const {
  const size_t have = size();
  std::vector<RecEvent> out;
  for (size_t i = 0; i < have; ++i) {
    const RecEvent& e = ring_[(total_ - have + i) % capacity_];
    if (e.t_ns >= from_ns && e.t_ns <= until_ns) {
      out.push_back(e);
    }
  }
  return out;
}

std::string FlightRecorder::Format(const std::vector<RecEvent>& events) {
  std::string out;
  char line[192];
  for (const RecEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "  %12.3fus %-10s %-22s node=%-3u op=%016" PRIx64
                  " a=%" PRIu64 " b=%" PRIu64 "\n",
                  static_cast<double>(e.t_ns) / 1e3, RecKindName(e.kind),
                  e.name, e.node, e.op_id, e.a, e.b);
    out += line;
  }
  return out;
}


void FlightRecorder::Clear() {
  total_ = 0;
  if (!ring_.empty()) {
    ring_.assign(capacity_, RecEvent{});
  }
}

}  // namespace ring::obs
