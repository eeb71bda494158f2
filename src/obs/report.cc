#include "src/obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

namespace ring::obs {

std::string SliTable(const std::vector<TimeSeries::SliWindow>& rows) {
  std::ostringstream os;
  os << "      t_ms       ok      err    goodput/s    err%     p50_us     "
        "p99_us  avail\n";
  char line[160];
  for (const TimeSeries::SliWindow& row : rows) {
    std::snprintf(line, sizeof(line),
                  "  %8.1f %8" PRIu64 " %8" PRIu64
                  " %12.0f %6.1f%% %10.1f %10.1f  %s\n",
                  static_cast<double>(row.start_ns) / 1e6, row.ops_ok,
                  row.ops_err, row.goodput_per_sec, row.error_rate * 100.0,
                  static_cast<double>(row.p50_ns) / 1e3,
                  static_cast<double>(row.p99_ns) / 1e3,
                  row.available ? "ok" : "DIP");
    os << line;
  }
  return os.str();
}

std::vector<Dip> FindDips(const std::vector<TimeSeries::SliWindow>& rows,
                          uint64_t window_ns) {
  std::vector<Dip> dips;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].available) {
      continue;
    }
    Dip dip;
    dip.first_window = rows[i].window;
    dip.start_ns = rows[i].start_ns;
    size_t j = i;
    while (j + 1 < rows.size() && !rows[j + 1].available) {
      ++j;
    }
    dip.last_window = rows[j].window;
    dip.end_ns = rows[j].start_ns + window_ns;
    dip.recovered = j + 1 < rows.size();  // an available window follows
    dips.push_back(dip);
    i = j;
  }
  return dips;
}

std::string PostMortemReport(const TimeSeries& timeseries,
                             const FlightRecorder& recorder,
                             uint64_t until_ns) {
  constexpr size_t kDipContextEvents = 12;
  constexpr uint64_t kDipLookbackWindows = 2;
  std::ostringstream os;
  const uint64_t wn = timeseries.window_ns();
  char line[192];

  os << "== fault timeline ==\n";
  const std::vector<RecEvent> all =
      recorder.Between(0, UINT64_MAX);
  std::vector<RecEvent> faults;
  std::map<std::string, uint64_t> net_counts;
  for (const RecEvent& e : all) {
    if (e.kind == RecKind::kFault) {
      faults.push_back(e);
    } else if (e.kind == RecKind::kNet) {
      ++net_counts[e.name];
    }
  }
  if (faults.empty()) {
    os << "  (no fault events recorded)\n";
  } else {
    os << FlightRecorder::Format(faults);
  }
  if (!net_counts.empty()) {
    os << "  injected at the fabric:";
    for (const auto& [name, n] : net_counts) {
      os << " " << name << "=" << n;
    }
    os << "\n";
  }

  const std::vector<TimeSeries::SliWindow> rows = timeseries.Slis(until_ns);
  os << "\n== windowed SLIs (window " << wn / 1000 << "us) ==\n";
  if (rows.empty()) {
    os << "  (no SLI series recorded — enable the time-series layer and "
          "drive client traffic)\n";
  } else {
    os << SliTable(rows);
  }

  const std::vector<Dip> dips = FindDips(rows, wn);
  os << "\n== availability dips ==\n";
  if (dips.empty()) {
    os << "  (none: acked-op rate never fell below the threshold)\n";
  }
  for (size_t d = 0; d < dips.size(); ++d) {
    const Dip& dip = dips[d];
    std::snprintf(line, sizeof(line),
                  "  dip %zu: [%.1fms, %.1fms) duration %.1fms — %s\n", d + 1,
                  static_cast<double>(dip.start_ns) / 1e6,
                  static_cast<double>(dip.end_ns) / 1e6,
                  static_cast<double>(dip.end_ns - dip.start_ns) / 1e6,
                  dip.recovered ? "recovered" : "NOT recovered by end of run");
    os << line;
    const uint64_t lookback = kDipLookbackWindows * wn;
    const uint64_t from =
        dip.start_ns > lookback ? dip.start_ns - lookback : 0;
    std::vector<RecEvent> context = recorder.Between(from, dip.end_ns + wn);
    const size_t cap = kDipContextEvents;
    if (context.size() > cap) {
      std::snprintf(line, sizeof(line),
                    "  flight recorder (first %zu of %zu events around the "
                    "dip):\n",
                    cap, context.size());
      os << line;
      context.resize(cap);
    } else if (!context.empty()) {
      os << "  flight recorder (events around the dip):\n";
    } else {
      os << "  flight recorder: (no events in the dip window — recorder off "
            "or overwritten)\n";
    }
    os << FlightRecorder::Format(context);
  }

  uint64_t unavailable = 0;
  uint64_t longest_ns = 0;
  for (const Dip& dip : dips) {
    unavailable += dip.last_window - dip.first_window + 1;
    longest_ns = std::max(longest_ns, dip.end_ns - dip.start_ns);
  }
  os << "\n== summary ==\n";
  std::snprintf(line, sizeof(line),
                "  windows %zu, unavailable %" PRIu64
                " (%.1fms total, longest dip %.1fms)\n",
                rows.size(), unavailable,
                static_cast<double>(unavailable * wn) / 1e6,
                static_cast<double>(longest_ns) / 1e6);
  os << line;
  std::snprintf(line, sizeof(line),
                "  recorder: %" PRIu64 " events recorded, %zu retained%s\n",
                recorder.total_recorded(), recorder.size(),
                recorder.enabled() ? "" : " (recorder disabled)");
  os << line;
  if (timeseries.dropped_series() > 0) {
    std::snprintf(line, sizeof(line),
                  "  time-series: %" PRIu64
                  " series dropped at the max_series cap\n",
                  timeseries.dropped_series());
    os << line;
  }
  return os.str();
}

}  // namespace ring::obs
