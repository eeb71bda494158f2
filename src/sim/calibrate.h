// Host calibration of the simulator's coding cost model.
//
// The seed SimParams bake in the scalar table-lookup substrate
// (gf_byte_ns = 1.0, ~1 GB/s) the way the paper's numbers bake in
// GF-Complete. With the vectorized kernels the real cost is several times
// lower; this module measures the kernels actually dispatched on this host
// (wall clock, randomized coefficients so the branch predictor and cache
// can't flatter a fixed row) and derives the per-byte constants.
//
// Calibration is strictly opt-in: default SimParams are untouched, so
// figure outputs stay byte-identical unless a caller asks for
// Calibrated(...) — `ringctl calibrate` prints the measurement and the
// constants derived from it.
#ifndef RING_SRC_SIM_CALIBRATE_H_
#define RING_SRC_SIM_CALIBRATE_H_

#include <cstddef>
#include <cstdint>

#include "src/gf/gf256.h"
#include "src/sim/params.h"

namespace ring::sim {

struct CodingCalibration {
  // Measured region-op throughputs, bytes per nanosecond (== GB/s).
  double add_bytes_per_ns = 0;     // AddRegion (XOR)
  double mulacc_bytes_per_ns = 0;  // MulAddRegion, random coefficients
  double fused_bytes_per_ns = 0;   // fused RS(3,2) encode, per source byte
  double decode_bytes_per_ns = 0;  // RS(3,2) RecoverData, per source byte
  gf::RegionImpl impl = gf::RegionImpl::kScalar;  // kernel tier measured
  size_t block_bytes = 0;                         // region size timed
};

// Times the active GF kernels and RS(3,2) encode/decode on this host.
// `block_bytes` is the region size (64 KiB matches the paper's block
// recovery unit); each kernel runs for at least `min_run_ns` of wall time.
CodingCalibration MeasureCodingThroughput(size_t block_bytes = 64 * 1024,
                                          uint64_t min_run_ns = 20'000'000);

// Returns `base` with gf_byte_ns set to the measured multiply-accumulate
// cost and decode_byte_ns scaled to keep base's decode/gf ratio (the ratio
// models decode's cache-hot rows + overlap with block collection, which the
// substrate swap does not change).
SimParams Calibrated(const SimParams& base, const CodingCalibration& cal);

}  // namespace ring::sim

#endif  // RING_SRC_SIM_CALIBRATE_H_
