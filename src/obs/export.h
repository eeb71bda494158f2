// Export layer: machine-readable renderings of the metrics registry —
// Prometheus-style text exposition for scrape-shaped tooling, and JSON with
// a stable key schema {name, node, memgest, op} for scripts and CI (null for
// dimensions that do not apply).
#ifndef RING_SRC_OBS_EXPORT_H_
#define RING_SRC_OBS_EXPORT_H_

#include <string>

#include "src/obs/metrics.h"

namespace ring::obs {

// Prometheus text exposition (metric names sanitised to [a-zA-Z0-9_] and
// prefixed "ring_"; counters get a _total suffix, histograms the standard
// _bucket/_sum/_count triple with cumulative le labels).
std::string PrometheusText(const Metrics& metrics);

// {"counters":[{"name":...,"node":...,"memgest":...,"op":...,"value":...}],
//  "gauges":[...], "histograms":[... + count/sum/min/max/mean/p50/p99],
//  "link_bytes":[{"src":...,"dst":...,"bytes":...}]}
std::string StatsJson(const Metrics& metrics);

}  // namespace ring::obs

#endif  // RING_SRC_OBS_EXPORT_H_
