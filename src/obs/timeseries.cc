#include "src/obs/timeseries.h"

#include <algorithm>
#include <cstring>

namespace ring::obs {

void TimeSeries::WindowHist::Observe(uint64_t value) {
  ++buckets[Histogram::BucketOf(value)];
  ++count;
  sum += value;
}

void TimeSeries::WindowHist::MergeFrom(const WindowHist& other) {
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum += other.sum;
}

void TimeSeries::WindowHist::Clear() {
  std::memset(buckets, 0, sizeof(buckets));
  count = 0;
  sum = 0;
}

uint64_t TimeSeries::WindowHist::Percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const uint64_t rank = static_cast<uint64_t>(
      clamped / 100.0 * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      return Histogram::BucketMidpoint(b);
    }
  }
  return Histogram::BucketMidpoint(Histogram::kBuckets - 1);
}

void TimeSeries::Configure(const Options& options) {
  if (!series_.empty()) {
    return;
  }
  options_ = options;
  if (options_.window_ns == 0) {
    options_.window_ns = 1;
  }
  if (options_.capacity_windows == 0) {
    options_.capacity_windows = 1;
  }
  if (options_.max_series == 0) {
    options_.max_series = 1;
  }
}

void TimeSeries::SetClock(std::function<uint64_t()> clock) {
  clock_ = std::move(clock);
}

void TimeSeries::TrackCounter(const char* name) {
  tracked_counters_.insert(name);
}

void TimeSeries::TrackLatency(const char* name) {
  tracked_latencies_.insert(name);
}

void TimeSeries::TrackSliDefaults() {
  TrackCounter(kSliOpsOk);
  TrackCounter(kSliOpErrors);
  TrackCounter("client.ops");
  TrackCounter("client.unavailable");
  TrackCounter("server.retransmits");
  TrackCounter("server.op_restarts");
  TrackCounter("server.resent_replies");
  // Elastic rebalance (§13): per-window migration traffic, so an SLI table
  // shows the background drain next to any foreground blip it causes.
  TrackCounter("rebalance.bytes");
  TrackCounter("rebalance.keys_moved");
  TrackLatency(kSliOpLatencyNs);
}

TimeSeries::Series* TimeSeries::Resolve(const MetricKey& key, bool is_hist) {
  const auto it = series_.find(key);
  if (it != series_.end()) {
    return it->second.is_hist == is_hist ? &it->second : nullptr;
  }
  if (series_.size() >= options_.max_series) {
    ++dropped_series_;
    return nullptr;
  }
  Series s;
  s.is_hist = is_hist;
  s.capacity = options_.capacity_windows;
  if (is_hist) {
    s.hists.assign(s.capacity, WindowHist{});
  } else {
    s.counts.assign(s.capacity, 0);
  }
  return &series_.emplace(key, std::move(s)).first->second;
}

template <typename SlotFn>
bool TimeSeries::Advance(Series& s, uint64_t w, SlotFn&& clear_slot) {
  if (!s.any) {
    s.any = true;
    s.first = s.last = w;
    clear_slot(w % s.capacity);
    return true;
  }
  if (w < s.first) {
    return false;  // predates the retained range (clock is monotonic, so
                   // this only happens for events older than the ring)
  }
  if (w <= s.last) {
    return true;
  }
  // Zero every skipped window's slot; a jump past a full ring only clears
  // the `capacity` slots that remain addressable.
  uint64_t start = s.last + 1;
  if (w >= start + s.capacity) {
    start = w + 1 - s.capacity;
  }
  for (uint64_t i = start; i <= w; ++i) {
    clear_slot(i % s.capacity);
  }
  s.last = w;
  if (s.last - s.first >= s.capacity) {
    s.first = s.last + 1 - s.capacity;
  }
  return true;
}

void TimeSeries::OnCounter(const MetricKey& key, uint64_t delta) {
  if (!enabled_ || !clock_) {
    return;
  }
  if (tracked_counters_.find(key.name) == tracked_counters_.end()) {
    return;
  }
  Series* s = Resolve(key, /*is_hist=*/false);
  if (s == nullptr) {
    return;
  }
  const uint64_t w = clock_() / options_.window_ns;
  if (!Advance(*s, w, [s](size_t slot) { s->counts[slot] = 0; })) {
    return;
  }
  s->counts[w % s->capacity] += delta;
}

void TimeSeries::OnSample(const MetricKey& key, uint64_t value) {
  if (!enabled_ || !clock_) {
    return;
  }
  if (tracked_latencies_.find(key.name) == tracked_latencies_.end()) {
    return;
  }
  Series* s = Resolve(key, /*is_hist=*/true);
  if (s == nullptr) {
    return;
  }
  const uint64_t w = clock_() / options_.window_ns;
  if (!Advance(*s, w, [s](size_t slot) { s->hists[slot].Clear(); })) {
    return;
  }
  s->hists[w % s->capacity].Observe(value);
}

uint64_t TimeSeries::Series::CountAt(uint64_t w) const {
  if (!any || is_hist || w < first || w > last) {
    return 0;
  }
  return counts[w % capacity];
}

const TimeSeries::WindowHist* TimeSeries::Series::HistAt(uint64_t w) const {
  if (!any || !is_hist || w < first || w > last) {
    return nullptr;
  }
  return &hists[w % capacity];
}

std::vector<TimeSeries::SliWindow> TimeSeries::Slis(
    const SliOptions& opt) const {
  const uint64_t wn = options_.window_ns;
  const auto match = [&opt](const MetricKey& k) {
    if (opt.memgest != kNoMemgest && k.memgest != opt.memgest) {
      return false;
    }
    return opt.op == OpKind::kNone || k.op == opt.op;
  };
  std::vector<const Series*> ok_series;
  std::vector<const Series*> err_series;
  std::vector<const Series*> lat_series;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (const auto& [key, s] : series_) {
    if (!s.any || !match(key)) {
      continue;
    }
    if (std::strcmp(key.name, kSliOpsOk) == 0) {
      ok_series.push_back(&s);
    } else if (std::strcmp(key.name, kSliOpErrors) == 0) {
      err_series.push_back(&s);
    } else if (std::strcmp(key.name, kSliOpLatencyNs) == 0) {
      lat_series.push_back(&s);
    } else {
      continue;
    }
    lo = std::min(lo, s.first);
    hi = std::max(hi, s.last);
  }
  if (ok_series.empty() && err_series.empty() && lat_series.empty()) {
    return {};
  }
  lo = std::max(lo, opt.from_ns / wn);
  if (opt.until_ns != UINT64_MAX) {
    hi = std::min(hi, opt.until_ns / wn);
  }
  if (hi < lo) {
    return {};
  }

  std::vector<SliWindow> out;
  out.reserve(hi - lo + 1);
  for (uint64_t w = lo; w <= hi; ++w) {
    SliWindow row;
    row.window = w;
    row.start_ns = w * wn;
    for (const Series* s : ok_series) {
      row.ops_ok += s->CountAt(w);
    }
    for (const Series* s : err_series) {
      row.ops_err += s->CountAt(w);
    }
    WindowHist merged;
    for (const Series* s : lat_series) {
      if (const WindowHist* h = s->HistAt(w)) {
        merged.MergeFrom(*h);
      }
    }
    row.p50_ns = merged.Percentile(50);
    row.p99_ns = merged.Percentile(99);
    row.goodput_per_sec =
        static_cast<double>(row.ops_ok) / (static_cast<double>(wn) * 1e-9);
    const uint64_t total = row.ops_ok + row.ops_err;
    row.error_rate =
        total == 0 ? 0.0
                   : static_cast<double>(row.ops_err) /
                         static_cast<double>(total);
    out.push_back(row);
  }

  // Availability: compare each window's acked-op count against a threshold
  // derived from the median non-empty window (or an absolute floor).
  uint64_t threshold = opt.min_ok_threshold;
  if (threshold == 0) {
    std::vector<uint64_t> active;
    for (const SliWindow& row : out) {
      if (row.ops_ok + row.ops_err > 0) {
        active.push_back(row.ops_ok);
      }
    }
    if (!active.empty()) {
      const size_t mid = active.size() / 2;
      std::nth_element(active.begin(), active.begin() + mid, active.end());
      const double scaled =
          opt.availability_fraction * static_cast<double>(active[mid]);
      threshold = std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
    }
  }
  if (threshold > 0) {
    for (SliWindow& row : out) {
      row.available = row.ops_ok >= threshold;
    }
  }
  return out;
}

void TimeSeries::Clear() {
  series_.clear();
  dropped_series_ = 0;
}

}  // namespace ring::obs
