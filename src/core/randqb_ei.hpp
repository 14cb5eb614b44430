#pragma once
// Randomized QB factorization with efficient error indicator (RandQB_EI,
// Yu/Gu/Li 2018; Algorithm 1 of the paper). Fixed-precision: iterates
// k-column blocks until the exact Frobenius indicator (4) drops below
// tau * ||A||_F.

#include <cstdint>

#include "core/termination.hpp"
#include "obs/telemetry.hpp"
#include "sparse/csc.hpp"

namespace lra {

struct RandQbOptions {
  Index block_size = 32;  // k
  double tau = 1e-3;
  int power = 1;          // p in the power scheme (0..3)
  Index max_rank = -1;    // -1: min(m, n)
  std::uint64_t seed = 0x5eed;
};

struct RandQbResult {
  Status status = Status::kMaxIterations;
  Index rank = 0;
  Index iterations = 0;
  double anorm_f = 0.0;
  double indicator = 0.0;  // E_rand at exit (absolute)

  Matrix q;  // m x K, orthonormal columns
  Matrix b;  // K x n

  /// Per-iteration convergence telemetry — the series behind the
  /// runtime-vs-quality plots (Figs. 2 and 3). time_seconds is wall time
  /// since the call for randqb_ei, and the rank's cumulative virtual time
  /// for randqb_ei_dist.
  obs::TelemetrySeries telemetry;
};

/// Run RandQB_EI: the SPMD body of randqb_ei_dist, as the single rank of the
/// in-process context (par/simcomm.hpp), with the kernels on the pool.
RandQbResult randqb_ei(const CscMatrix& a, const RandQbOptions& opts);

/// Exact ||A - Q B||_F (dense verification for tests/small problems).
double randqb_exact_error(const CscMatrix& a, const RandQbResult& r);

/// ||Q^T Q - I||_inf (max row sum) — the orthogonality-loss diagnostic the
/// paper reports in Section VI-B. Costs a K x K Gram product, so no solve
/// computes it; call it on the factor.
double orth_loss(const Matrix& q);

}  // namespace lra
