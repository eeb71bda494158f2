#include "src/reliability/models.h"

#include <cassert>
#include <cmath>

namespace ring::reliability {
namespace {

// Binomial coefficient as double (arguments are tiny).
double Choose(uint32_t n, uint32_t r) {
  if (r > n) {
    return 0.0;
  }
  double out = 1.0;
  for (uint32_t i = 0; i < r; ++i) {
    out *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return out;
}

}  // namespace

double ReconstructionTimeSeconds(double bytes, const Environment& env) {
  return bytes / env.network_bandwidth + bytes / env.compute_bandwidth;
}

double RebuildRate(double bytes, const Environment& env) {
  return kSecondsPerYear / ReconstructionTimeSeconds(bytes, env);
}

double Nines(double p, double cap) {
  if (p >= 1.0) {
    return cap;
  }
  if (p <= 0.0) {
    return 0.0;
  }
  return std::min(cap, -std::log10(1.0 - p));
}

// ---------------------------------------------------------------------------
// RsModel

RsModel::RsModel(uint32_t k, uint32_t m, const Environment& env)
    : m_(m), chain_([&] {
        // States 0..m: number of failed (not yet rebuilt) nodes; state m+1 =
        // FS. Failure i -> i+1 at (k+m-i)λ (i < m), m -> FS at kλ, rebuild
        // i -> i-1 at µ (one node at a time; every node holds C/k bytes).
        const size_t fs = m + 1;
        RealMatrix q(m + 2, m + 2);
        const double lambda = env.node_failure_rate;
        const double mu = RebuildRate(env.dataset_bytes / k, env);
        for (uint32_t i = 0; i <= m; ++i) {
          const double out_rate = static_cast<double>(k + m - i) * lambda;
          const size_t next = (i == m) ? fs : i + 1;
          q.Ref(i, next) += out_rate;
          q.Ref(i, i) -= out_rate;
          if (i >= 1) {
            q.Ref(i, i - 1) += mu;
            q.Ref(i, i) -= mu;
          }
        }
        return Ctmc(std::move(q));
      }()) {}

double RsModel::Reliability(double t_years) const {
  std::vector<double> p0(chain_.num_states(), 0.0);
  p0[0] = 1.0;
  const auto p = chain_.TransientDistribution(p0, t_years);
  return 1.0 - p[m_ + 1];
}

double RsModel::IntervalAvailability(double t_years) const {
  std::vector<double> p0(chain_.num_states(), 0.0);
  p0[0] = 1.0;
  const auto occ = chain_.CumulativeOccupancy(p0, t_years);
  return occ[0] / t_years;
}

// ---------------------------------------------------------------------------
// SrsModel

SrsModel::SrsModel(const srs::SrsCode& code, const Environment& env)
    : u_(0), chain_([&] {
        const uint32_t s = code.s();
        const uint32_t k = code.k();
        const uint32_t m = code.m();
        const std::vector<double> f = code.ToleranceVector();
        // u = argmin_i { f[i-1] != 0 and f[i] == 0 } - 1, i.e. the largest
        // failure count with nonzero survival probability.
        uint32_t u = 0;
        for (uint32_t i = 0; i < f.size(); ++i) {
          if (f[i] > 0.0) {
            u = i;
          } else {
            break;
          }
        }
        u_ = u;

        const double lambda = env.node_failure_rate;
        // Parity nodes hold C/k bytes (same as unstretched RS); data nodes
        // hold C/s bytes and therefore rebuild s/k times faster.
        const double mu_parity = RebuildRate(env.dataset_bytes / k, env);
        const double mu_data = mu_parity * static_cast<double>(s) / k;

        const size_t fs = u + 1;
        RealMatrix q(u + 2, u + 2);
        for (uint32_t i = 0; i <= u; ++i) {
          const double rate = static_cast<double>(s + m - i) * lambda;
          // Conditional survival probability p_i = f[i+1] / f[i].
          const double pi = (i + 1 < f.size() && f[i] > 0.0)
                                ? f[i + 1] / f[i]
                                : 0.0;
          if (pi > 0.0 && i < u) {
            q.Ref(i, i + 1) += rate * pi;
          }
          const double fatal = rate * (1.0 - ((i < u) ? pi : 0.0));
          q.Ref(i, fs) += fatal;
          q.Ref(i, i) -= rate;

          if (i >= 1) {
            // µ_i = sum_j µ_ij p_ij over j failed data nodes out of i failed
            // nodes; p_ij is hypergeometric restricted to i-j <= m.
            double mu_i = 0.0;
            double norm = 0.0;
            for (uint32_t j = 0; j <= i; ++j) {
              if (i - j > m || j > s) {
                continue;
              }
              const double pij = Choose(s, j) * Choose(m, i - j);
              const double mu_ij =
                  (static_cast<double>(j) / i) * mu_data +
                  (static_cast<double>(i - j) / i) * mu_parity;
              mu_i += pij * mu_ij;
              norm += pij;
            }
            if (norm > 0.0) {
              mu_i /= norm;
            }
            q.Ref(i, i - 1) += mu_i;
            q.Ref(i, i) -= mu_i;
          }
        }
        return Ctmc(std::move(q));
      }()) {}

double SrsModel::Reliability(double t_years) const {
  std::vector<double> p0(chain_.num_states(), 0.0);
  p0[0] = 1.0;
  const auto p = chain_.TransientDistribution(p0, t_years);
  return 1.0 - p[u_ + 1];
}

double SrsModel::IntervalAvailability(double t_years) const {
  std::vector<double> p0(chain_.num_states(), 0.0);
  p0[0] = 1.0;
  const auto occ = chain_.CumulativeOccupancy(p0, t_years);
  return occ[0] / t_years;
}

}  // namespace ring::reliability
