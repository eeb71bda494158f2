#include "src/obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace ring::obs {

namespace {

std::string PromName(const char* name) {
  std::string out = "ring_";
  for (const char* p = name; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    out += (std::isalnum(c) != 0) ? *p : '_';
  }
  return out;
}

// {node="7",memgest="1",op="put"} — only the dimensions that apply.
std::string PromLabels(const MetricKey& key, const char* extra = nullptr) {
  std::ostringstream os;
  bool open = false;
  auto sep = [&] {
    os << (open ? "," : "{");
    open = true;
  };
  if (key.node != kNoNode) {
    sep();
    os << "node=\"" << key.node << "\"";
  }
  if (key.memgest != kNoMemgest) {
    sep();
    os << "memgest=\"" << key.memgest << "\"";
  }
  if (key.op != OpKind::kNone) {
    sep();
    os << "op=\"" << OpKindName(key.op) << "\"";
  }
  if (extra != nullptr) {
    sep();
    os << extra;
  }
  if (open) {
    os << "}";
  }
  return os.str();
}

void PromType(std::ostringstream& os, std::string& last,
              const std::string& name, const char* type) {
  if (name != last) {
    os << "# TYPE " << name << " " << type << "\n";
    last = name;
  }
}

// JSON helpers: the key schema is stable — always all four dimensions, with
// null where a dimension does not apply.
void JsonKey(std::ostringstream& os, const MetricKey& key) {
  os << "\"name\":\"" << key.name << "\",\"node\":";
  if (key.node == kNoNode) {
    os << "null";
  } else {
    os << key.node;
  }
  os << ",\"memgest\":";
  if (key.memgest == kNoMemgest) {
    os << "null";
  } else {
    os << key.memgest;
  }
  os << ",\"op\":";
  if (key.op == OpKind::kNone) {
    os << "null";
  } else {
    os << "\"" << OpKindName(key.op) << "\"";
  }
}

std::string JsonDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string PrometheusText(const Metrics& metrics) {
  std::ostringstream os;
  std::string last;
  for (const auto& [key, value] : metrics.counters()) {
    const std::string name = PromName(key.name) + "_total";
    PromType(os, last, name, "counter");
    os << name << PromLabels(key) << " " << value << "\n";
  }
  for (const auto& [key, value] : metrics.gauges()) {
    const std::string name = PromName(key.name);
    PromType(os, last, name, "gauge");
    os << name << PromLabels(key) << " " << value << "\n";
  }
  for (const auto& [key, h] : metrics.histograms()) {
    const std::string name = PromName(key.name);
    PromType(os, last, name, "histogram");
    uint64_t cumulative = 0;
    int last_nonzero = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket(b) != 0) {
        last_nonzero = b;
      }
    }
    for (int b = 0; b <= last_nonzero; ++b) {
      cumulative += h.bucket(b);
      char le[64];
      // Inclusive upper bound of bucket b: 0, then 2^b - 1.
      std::snprintf(le, sizeof(le), "le=\"%" PRIu64 "\"",
                    b == 0 ? 0 : (Histogram::BucketLowerBound(b + 1) - 1));
      os << name << "_bucket" << PromLabels(key, le) << " " << cumulative
         << "\n";
    }
    os << name << "_bucket" << PromLabels(key, "le=\"+Inf\"") << " "
       << h.count() << "\n";
    os << name << "_sum" << PromLabels(key) << " " << h.sum() << "\n";
    os << name << "_count" << PromLabels(key) << " " << h.count() << "\n";
  }
  if (!metrics.link_bytes().empty()) {
    PromType(os, last, "ring_link_bytes_total", "counter");
    for (const auto& [link, bytes] : metrics.link_bytes()) {
      os << "ring_link_bytes_total{src=\"" << link.first << "\",dst=\""
         << link.second << "\"} " << bytes << "\n";
    }
  }
  return os.str();
}

std::string StatsJson(const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, value] : metrics.counters()) {
    os << (first ? "" : ",") << "{";
    JsonKey(os, key);
    os << ",\"value\":" << value << "}";
    first = false;
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [key, value] : metrics.gauges()) {
    os << (first ? "" : ",") << "{";
    JsonKey(os, key);
    os << ",\"value\":" << value << "}";
    first = false;
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [key, h] : metrics.histograms()) {
    os << (first ? "" : ",") << "{";
    JsonKey(os, key);
    os << ",\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max()
       << ",\"mean\":" << JsonDouble(h.Mean())
       << ",\"p50\":" << h.ApproxPercentile(50)
       << ",\"p99\":" << h.ApproxPercentile(99) << "}";
    first = false;
  }
  os << "],\"link_bytes\":[";
  first = true;
  for (const auto& [link, bytes] : metrics.link_bytes()) {
    os << (first ? "" : ",") << "{\"src\":" << link.first
       << ",\"dst\":" << link.second << ",\"bytes\":" << bytes << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace ring::obs
