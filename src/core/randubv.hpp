#pragma once
// RandUBV (Hallman 2021): fixed-precision low-rank approximation by block
// Lanczos bidiagonalization with a random start block. A ~= U B V^T with B
// block bidiagonal; the error indicator mirrors RandQB_EI's:
// ||A - U B V^T||_F^2 = ||A||_F^2 - ||B||_F^2. The paper evaluates RandUBV
// sequentially only (Section VI-B) and names a parallel version as future
// work. Here it is one SPMD body (core/randubv.cpp): randubv runs it as the
// single rank of the in-process context, randubv_dist on simulated ranks.

#include <cstdint>

#include "core/termination.hpp"
#include "obs/telemetry.hpp"
#include "sparse/csc.hpp"

namespace lra {

struct RandUbvOptions {
  Index block_size = 32;  // b
  double tau = 1e-3;
  Index max_rank = -1;
  std::uint64_t seed = 0x5eed;
};

struct RandUbvResult {
  Status status = Status::kMaxIterations;
  Index rank = 0;
  Index iterations = 0;
  double anorm_f = 0.0;
  double indicator = 0.0;

  Matrix u;  // m x K
  Matrix b;  // K x K block bidiagonal
  Matrix v;  // n x K

  /// Per-iteration convergence telemetry.
  obs::TelemetrySeries telemetry;
};

RandUbvResult randubv(const CscMatrix& a, const RandUbvOptions& opts);

/// Exact ||A - U B V^T||_F (dense verification).
double randubv_exact_error(const CscMatrix& a, const RandUbvResult& r);

}  // namespace lra
