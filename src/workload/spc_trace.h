// Storage Performance Council (SPC) I/O traces (paper §6.2, Fig. 10).
//
// The paper prices five public SPC traces: Financial1/2 (write-heavy OLTP at
// a large financial institution) and WebSearch1/2/3 (read-dominated search
// engine I/O). The original trace files are not redistributable, so this
// module synthesizes records in the SPC trace format
// ("ASU,LBA,Size,Opcode,Timestamp") whose aggregate op mix, sizes, and
// footprints match the published characteristics of those five traces —
// the Fig. 10 experiment depends only on these aggregates.
#ifndef RING_SRC_WORKLOAD_SPC_TRACE_H_
#define RING_SRC_WORKLOAD_SPC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ring::workload {

struct SpcRecord {
  uint32_t asu = 0;        // application storage unit
  uint64_t lba = 0;        // logical block address
  uint32_t size = 0;       // bytes
  char opcode = 'R';       // 'R' or 'W'
  double timestamp = 0.0;  // seconds
};

// What the pricing model consumes.
struct TraceAggregates {
  std::string name;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
  uint64_t footprint_bytes = 0;  // distinct bytes addressed (capacity)
  double duration_sec = 0.0;

  double write_fraction() const {
    const uint64_t total = reads + writes;
    return total == 0 ? 0.0 : static_cast<double>(writes) / total;
  }
};

// Aggregates any record stream (footprint = sum of distinct 4 KiB pages).
TraceAggregates Aggregate(const std::string& name,
                          const std::vector<SpcRecord>& records);

// The five paper traces, synthesized at `scale` ops (default small enough
// for tests; the pricing figure is scale-invariant because it normalizes).
// Profiles (public SPC characteristics):
//   Financial1: ~77% writes, ~3.5 KiB avg request, ~17 GiB footprint
//   Financial2: ~82% reads... (read-mostly OLTP cache-miss trace, small ops)
//   WebSearch1/2/3: ~99% reads, ~15 KiB avg request, tens of GiB footprint
std::vector<SpcRecord> SyntheticTrace(const std::string& name,
                                      uint64_t num_ops, uint64_t seed = 1);

// Aggregates of the five paper traces at a representative scale, in the
// paper's order: Financial1, Financial2, WebSearch1, WebSearch2, WebSearch3.
std::vector<TraceAggregates> PaperTraceAggregates();

}  // namespace ring::workload

#endif  // RING_SRC_WORKLOAD_SPC_TRACE_H_
