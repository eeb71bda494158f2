#include "src/analysis/race.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/obs/trace.h"

namespace ring::analysis {

const char* RegionKindName(RegionKind kind) {
  switch (kind) {
    case RegionKind::kHeap:
      return "heap";
    case RegionKind::kParityStrip:
      return "parity_strip";
    case RegionKind::kMetadata:
      return "metadata";
    case RegionKind::kVersionWord:
      return "version_word";
    case RegionKind::kCommitFlag:
      return "commit_flag";
    case RegionKind::kAckWord:
      return "ack_word";
  }
  return "?";
}

const char* AccessKindName(AccessKind kind) {
  return kind == AccessKind::kWrite ? "write" : "read";
}

std::unique_ptr<RaceDetector> RaceDetector::FromEnv() {
  const char* v = std::getenv("RING_ANALYZE");
  if (v == nullptr || std::strstr(v, "race") == nullptr) {
    return nullptr;
  }
  return std::make_unique<RaceDetector>();
}

VectorClock& RaceDetector::ActorClock(uint32_t actor) {
  if (actor >= actor_clocks_.size()) {
    actor_clocks_.resize(actor + 1);
  }
  return actor_clocks_[actor];
}

int32_t RaceDetector::CurrentActor() const {
  if (stack_.empty()) {
    return static_cast<int32_t>(kExternalActor);
  }
  return stack_.back().actor;
}

const VectorClock& RaceDetector::CurrentClock() {
  const int32_t actor = CurrentActor();
  if (actor >= 0) {
    return ActorClock(static_cast<uint32_t>(actor));
  }
  return stack_.back().clock;
}

VectorClock RaceDetector::CaptureEdge() {
  const int32_t actor = CurrentActor();
  if (actor >= 0) {
    VectorClock& clock = ActorClock(static_cast<uint32_t>(actor));
    clock.Tick(static_cast<uint32_t>(actor));
    return clock;
  }
  return stack_.back().clock;
}

void RaceDetector::BeginCpuTask(uint32_t node, const VectorClock* inherited) {
  const uint32_t actor = CpuActorId(node);
  VectorClock& clock = ActorClock(actor);
  if (inherited != nullptr) {
    clock.MergeFrom(*inherited);
  }
  clock.Tick(actor);
  Frame frame;
  frame.actor = static_cast<int32_t>(actor);
  stack_.push_back(std::move(frame));
}

void RaceDetector::BeginOneSidedTask(const VectorClock* inherited) {
  Frame frame;
  frame.actor = -1;
  if (inherited != nullptr) {
    frame.clock = *inherited;
  }
  stack_.push_back(std::move(frame));
}

void RaceDetector::BeginCpuAcquire(uint32_t node) {
  // Copy first: CurrentClock() may reference an actor clock that
  // BeginCpuTask below would otherwise merge into itself mid-mutation.
  const VectorClock acquired = CurrentClock();
  BeginCpuTask(node, &acquired);
}

void RaceDetector::EndTask() {
  if (!stack_.empty()) {
    stack_.pop_back();
  }
}

void RaceDetector::RecordRace(const RegionKey& key, const RaceAccess& a,
                              const RaceAccess& b) {
  if (races_.size() >= kMaxRaces) {
    ++races_dropped_;
    return;
  }
  RaceReport report;
  report.region.node = key.node;
  report.region.kind = key.kind;
  report.region.scope = key.scope;
  report.region.lo = std::max(a.lo, b.lo);
  report.region.hi = std::min(a.hi, b.hi);
  if (a.time <= b.time) {
    report.first = a;
    report.second = b;
  } else {
    report.first = b;
    report.second = a;
  }
  races_.push_back(std::move(report));
}

void RaceDetector::OnAccess(const Region& region, AccessKind kind,
                            const char* site, uint64_t now, uint64_t op_id) {
  ++accesses_;
  RaceAccess access;
  access.kind = kind;
  access.site = site;
  access.op_id = op_id;
  access.time = now;
  access.lo = region.lo;
  access.hi = region.hi;
  access.clock = CurrentClock();

  const RegionKey key{region.node, region.kind, region.scope};
  RegionState& state = regions_[key];

  const auto conflicts = [&access](const RaceAccess& old) {
    return old.lo < access.hi && access.lo < old.hi &&
           !VectorClock::Ordered(old.clock, access.clock);
  };
  for (const RaceAccess& old : state.writes) {
    if (conflicts(old)) {
      RecordRace(key, old, access);
    }
  }
  if (kind == AccessKind::kWrite) {
    for (const RaceAccess& old : state.reads) {
      if (conflicts(old)) {
        RecordRace(key, old, access);
      }
    }
  }

  // Store the access, dropping entries it supersedes: same kind, contained
  // byte span, and happened-before this access (any future conflict with
  // them would also conflict here first).
  std::vector<RaceAccess>& list =
      kind == AccessKind::kWrite ? state.writes : state.reads;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&access](const RaceAccess& old) {
                              return old.lo >= access.lo &&
                                     old.hi <= access.hi &&
                                     VectorClock::Leq(old.clock, access.clock);
                            }),
             list.end());
  if (list.size() >= kMaxStoredPerList) {
    list.erase(list.begin());  // bound memory; oldest is most likely ordered
  }
  list.push_back(std::move(access));
}

namespace {

// The op's protocol-phase history: names of spans recorded under `op_id` up
// to `time`, deduplicated consecutively, oldest first.
std::string PhaseStack(const obs::Tracer* tracer, uint64_t op_id,
                       uint64_t time) {
  if (tracer == nullptr || op_id == 0) {
    return "";
  }
  std::vector<const obs::Span*> mine;
  for (const obs::Span& span : tracer->spans()) {
    if (span.op_id == op_id && span.start <= time) {
      mine.push_back(&span);
    }
  }
  std::stable_sort(mine.begin(), mine.end(),
                   [](const obs::Span* a, const obs::Span* b) {
                     return a->start < b->start;
                   });
  std::string out;
  const char* last = nullptr;
  for (const obs::Span* span : mine) {
    if (last != nullptr && std::strcmp(last, span->name) == 0) {
      continue;
    }
    if (!out.empty()) {
      out += " > ";
    }
    out += span->name;
    last = span->name;
  }
  return out;
}

void FormatAccess(std::ostringstream& os, const char* label,
                  const RaceAccess& access, const obs::Tracer* tracer) {
  os << "  " << label << ": " << AccessKindName(access.kind) << " at "
     << access.site << ", t=" << access.time << "ns, bytes [" << access.lo
     << ", " << access.hi << "), op=0x" << std::hex << access.op_id
     << std::dec << ", clock=" << access.clock.ToString();
  const std::string phases = PhaseStack(tracer, access.op_id, access.time);
  if (!phases.empty()) {
    os << "\n      phases: " << phases;
  }
  os << "\n";
}

}  // namespace

std::string RaceDetector::Report(const obs::Tracer* tracer) const {
  std::ostringstream os;
  os << "ring-analyze: " << races_.size() << " race(s) over " << accesses_
     << " logged accesses";
  if (races_dropped_ > 0) {
    os << " (" << races_dropped_ << " further races dropped)";
  }
  os << "\n";
  for (size_t i = 0; i < races_.size(); ++i) {
    const RaceReport& r = races_[i];
    os << "race #" << i << ": " << AccessKindName(r.first.kind) << "/"
       << AccessKindName(r.second.kind) << " conflict on node "
       << r.region.node << " " << RegionKindName(r.region.kind) << " (scope "
       << (r.region.scope >> 32) << ":" << (r.region.scope & 0xFFFFFFFFu)
       << ") bytes [" << r.region.lo << ", " << r.region.hi << ")\n";
    FormatAccess(os, "first ", r.first, tracer);
    FormatAccess(os, "second", r.second, tracer);
  }
  return os.str();
}

}  // namespace ring::analysis
