// Markov reliability and availability models for RS and SRS codes
// (paper Appendix A, Figures 2 and 16).
//
// Both models are absorbing CTMCs over "number of failed nodes" states with
// a fail state FS. Reliability R(t) = 1 - P_FS(t); availability treats only
// the fully-healthy state 0 as available (App. A.3).
//
// One deliberate deviation from the paper's text: App. A.2 prints
// "µD = k/s µ" for the data-node recovery rate, but a data node stores k/s
// times the bytes of a parity node, so its rebuild is *faster*, not slower:
// µD = (s/k) µ. The paper's own §3.3 argument ("each data node of a
// stretched version stores less data ... faster recovery increases
// reliability", the SRS(3,2,6) > RS(3,2) example) requires the s/k form, so
// that is what we implement; the appendix formula appears to be a typo.
#ifndef RING_SRC_RELIABILITY_MODELS_H_
#define RING_SRC_RELIABILITY_MODELS_H_

#include <cstdint>
#include <vector>

#include "src/reliability/ctmc.h"
#include "src/srs/srs_code.h"

namespace ring::reliability {

// Failure/recovery environment shared by the models. Rates are per year.
struct Environment {
  // Per-node failure rate λ. Default: 10/year (MTTF ~36 days — aggressive,
  // typical for reliability studies of large clusters).
  double node_failure_rate = 10.0;
  // Total dataset size protected by the code.
  double dataset_bytes = 600.0 * (1ULL << 30);  // §3.3's 600 GiB example
  // Recovery network bandwidth B_N (Eqn. 6).
  double network_bandwidth = 5.0e9;  // 40 Gb/s
  // Erasure-coding compute bandwidth for Tcomp(C); the paper notes RS codes
  // are compute-bound rather than network-bound.
  double compute_bandwidth = 1.0e9;
};

inline constexpr double kSecondsPerYear = 365.25 * 24 * 3600;

// Reconstruction time (seconds) for `bytes` of lost data (paper Eqn. 6):
// Treconst = C / B_N + Tcomp(C).
double ReconstructionTimeSeconds(double bytes, const Environment& env);

// Rebuild rate µ (per year) for a node holding `bytes`.
double RebuildRate(double bytes, const Environment& env);

// Converts a probability to "number of nines": -log10(1 - p), capped at
// `cap` to keep plots finite when p rounds to 1.0.
double Nines(double p, double cap = 16.0);

// Reliability/availability model for RS(k,m) (App. A.1). States 0..m plus FS.
// ring-lint: ok(test-only-api) SrsModel on plain RS codes (s = k)
class RsModel {
 public:
  RsModel(uint32_t k, uint32_t m, const Environment& env);

  // Probability that no data is lost within t years.
  double Reliability(double t_years) const;
  // (1/t) * expected time fully available during [0, t].
  double IntervalAvailability(double t_years) const;

  // ring-lint: ok(test-only-api) the chain behind Reliability()
  const Ctmc& chain() const { return chain_; }

 private:
  uint32_t m_;
  Ctmc chain_;
};

// Reliability/availability model for SRS(k,m,s) (App. A.2). States 0..u plus
// FS, where u is the largest tolerable simultaneous failure count; survival
// branching uses the exact tolerance vector f from SrsCode, and recovery
// rates mix data-node and parity-node rebuild speeds hypergeometrically.
class SrsModel {
 public:
  SrsModel(const srs::SrsCode& code, const Environment& env);

  double Reliability(double t_years) const;
  double IntervalAvailability(double t_years) const;

  // ring-lint: ok(test-only-api) SrsModel's use of ToleranceVector
  uint32_t max_tolerated() const { return u_; }
  // ring-lint: ok(test-only-api) the chain behind Reliability()
  const Ctmc& chain() const { return chain_; }

 private:
  uint32_t u_;
  Ctmc chain_;
};

}  // namespace ring::reliability

#endif  // RING_SRC_RELIABILITY_MODELS_H_
