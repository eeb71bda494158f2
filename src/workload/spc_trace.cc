#include "src/workload/spc_trace.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/rng.h"

namespace ring::workload {
namespace {

// Trace profiles. The paper (§6.2) describes Financial1/2 as "put-heavy OLTP
// applications running at a large financial institution" and WebSearch1-3 as
// "get dominant I/O traces from a popular search engine"; the numbers below
// follow the published SPC summaries under that framing.
struct Profile {
  const char* name;
  double write_fraction;
  uint32_t avg_size;        // bytes (multiple of 512)
  uint64_t footprint;       // bytes
  double duration_sec;
};

constexpr Profile kProfiles[] = {
    {"Financial1", 0.77, 3584, 17ULL << 30, 43800},
    {"Financial2", 0.82, 2560, 9ULL << 30, 41700},
    {"WebSearch1", 0.01, 15360, 16ULL << 30, 35000},
    {"WebSearch2", 0.01, 15360, 32ULL << 30, 44200},
    {"WebSearch3", 0.01, 15360, 32ULL << 30, 43500},
};

const Profile* FindProfile(const std::string& name) {
  for (const auto& p : kProfiles) {
    if (name == p.name) {
      return &p;
    }
  }
  return nullptr;
}

}  // namespace

TraceAggregates Aggregate(const std::string& name,
                          const std::vector<SpcRecord>& records) {
  TraceAggregates agg;
  agg.name = name;
  std::unordered_set<uint64_t> pages;
  for (const auto& r : records) {
    if (r.opcode == 'R') {
      ++agg.reads;
      agg.read_bytes += r.size;
    } else {
      ++agg.writes;
      agg.written_bytes += r.size;
    }
    // Footprint at 4 KiB granularity.
    const uint64_t first = r.lba * 512 / 4096;
    const uint64_t last = (r.lba * 512 + (r.size ? r.size - 1 : 0)) / 4096;
    for (uint64_t p = first; p <= last; ++p) {
      pages.insert(p);
    }
    agg.duration_sec = std::max(agg.duration_sec, r.timestamp);
  }
  agg.footprint_bytes = pages.size() * 4096;
  return agg;
}

std::vector<SpcRecord> SyntheticTrace(const std::string& name,
                                      uint64_t num_ops, uint64_t seed) {
  const Profile* profile = FindProfile(name);
  if (profile == nullptr) {
    return {};
  }
  Rng rng(seed ^ std::hash<std::string>{}(name));
  std::vector<SpcRecord> out;
  out.reserve(num_ops);
  const uint64_t footprint_blocks = profile->footprint / 512;
  for (uint64_t i = 0; i < num_ops; ++i) {
    SpcRecord rec;
    rec.asu = static_cast<uint32_t>(rng.NextBelow(4));
    // Sizes: exponential-ish around the average, rounded to 512 B.
    const double scale = rng.NextExponential(1.0);
    uint64_t size =
        static_cast<uint64_t>(profile->avg_size * std::min(scale, 4.0));
    size = std::max<uint64_t>(512, (size / 512) * 512);
    rec.size = static_cast<uint32_t>(size);
    rec.lba = rng.NextBelow(footprint_blocks);
    rec.opcode =
        rng.NextBernoulli(profile->write_fraction) ? 'W' : 'R';
    rec.timestamp =
        profile->duration_sec * static_cast<double>(i) / num_ops;
    out.push_back(rec);
  }
  return out;
}

std::vector<TraceAggregates> PaperTraceAggregates() {
  std::vector<TraceAggregates> out;
  for (const auto& profile : kProfiles) {
    // Aggregates computed directly from the profile: op counts at a
    // representative 5M-op scale (normalization removes the scale).
    TraceAggregates agg;
    agg.name = profile.name;
    const uint64_t ops = 5'000'000;
    agg.writes = static_cast<uint64_t>(ops * profile.write_fraction);
    agg.reads = ops - agg.writes;
    agg.written_bytes = agg.writes * profile.avg_size;
    agg.read_bytes = agg.reads * profile.avg_size;
    agg.footprint_bytes = profile.footprint;
    agg.duration_sec = profile.duration_sec;
    out.push_back(agg);
  }
  return out;
}

}  // namespace ring::workload
