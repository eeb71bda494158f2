// Post-mortem report: renders a chaos run as a human-readable timeline —
// injected faults (from the flight recorder's kFault events), the windowed
// SLIs around them, each availability dip with the recorder events that
// surround it, and a recovery summary. Built entirely from obs-layer state,
// so it needs no dependency on the fault injector itself.
#ifndef RING_SRC_OBS_REPORT_H_
#define RING_SRC_OBS_REPORT_H_

#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/timeseries.h"

namespace ring::obs {

// Fixed-width table of SLI rows: one line per window with goodput, error
// rate, p50/p99 and an ok/DIP availability column.
std::string SliTable(const std::vector<TimeSeries::SliWindow>& rows);

// A contiguous run of unavailable windows.
struct Dip {
  uint64_t first_window = 0;
  uint64_t last_window = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // exclusive end of the last unavailable window
  bool recovered = false;
};

std::vector<Dip> FindDips(const std::vector<TimeSeries::SliWindow>& rows,
                          uint64_t window_ns);

// The SLI rows end at the window holding `until_ns` (see TimeSeries::Slis).
// Each dip shows up to 12 flight-recorder events from two windows before
// its first window (the causing fault usually lands just before the SLI
// degrades) to one window past its end.
std::string PostMortemReport(const TimeSeries& timeseries,
                             const FlightRecorder& recorder,
                             uint64_t until_ns = UINT64_MAX);

}  // namespace ring::obs

#endif  // RING_SRC_OBS_REPORT_H_
