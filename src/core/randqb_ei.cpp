#include "core/randqb_ei.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "core/metrics.hpp"
#include "sparse/ops.hpp"
#include "support/stopwatch.hpp"

namespace lra {
namespace {

// Y -= Q * M without forming temporaries (Q: m x K, M: K x k, Y: m x k).
void subtract_qm(Matrix& y, const Matrix& q, const Matrix& m) {
  if (q.cols() == 0) return;
  gemm(y, q, m, -1.0, 1.0);
}

}  // namespace

RandQbResult randqb_ei(const CscMatrix& a, const RandQbOptions& opts) {
  Stopwatch clock;
  RandQbResult res;
  const Index m = a.rows(), n = a.cols();
  const Index k = opts.block_size;
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  res.anorm_f = a.frobenius_norm();
  const bool spectral = opts.norm == ErrorNorm::kSpectral;
  const double anorm_2 =
      spectral ? spectral_norm_estimate(a, 2 * opts.spectral_power_its,
                                        opts.seed ^ 0x9e37)
               : 0.0;
  const double target =
      opts.tau * (spectral ? anorm_2 : res.anorm_f);

  res.q = Matrix(m, 0);
  res.b = Matrix(0, n);
  double e = res.anorm_f * res.anorm_f;  // E in Algorithm 1

  if (opts.tau < kRandQbIndicatorFloor) {
    // Theorem 3 of [Yu/Gu/Li]: the indicator cannot certify below this in
    // double precision; still run, but report the floor condition if we
    // "converge" only by indicator.
    // (The run proceeds; the status is set at exit.)
  }

  // Loop-carried kernel buffers: the `_into` kernels reshape them in place,
  // so after the first iteration the hot loop stops allocating (the arena
  // high-water mark and these capacities both plateau — asserted in
  // test_kernels_simd).
  Matrix y, z, w, bw, qtq, proj, bkt;

  while (res.rank < rank_budget) {
    const Index kk = std::min(k, rank_budget - res.rank);
    // Line 4: Gaussian test block (stream = iteration for reproducibility).
    const Matrix omega =
        Matrix::gaussian(n, kk, opts.seed, static_cast<std::uint64_t>(res.iterations));

    // Line 5: Q_k = orth(A Omega - Q_K (B_K Omega)).
    spmm_into(y, a, omega);
    if (res.rank > 0) {
      matmul_into(bw, res.b, omega);
      subtract_qm(y, res.q, bw);
    }
    Matrix qk = orth(y);

    // Lines 6-9: power scheme.
    for (int r = 0; r < opts.power; ++r) {
      spmm_t_into(z, a, qk);  // n x kk
      if (res.rank > 0) {
        // z -= B^T (Q^T qk)
        matmul_tn_into(qtq, res.q, qk);  // K x kk
        gemm(z, res.b, qtq, -1.0, 1.0, Trans::kYes, Trans::kNo);
      }
      const Matrix qhat = orth(z);
      spmm_into(w, a, qhat);  // m x kk
      if (res.rank > 0) {
        matmul_into(bw, res.b, qhat);
        subtract_qm(w, res.q, bw);
      }
      qk = orth(w);
    }

    // Line 10: re-orthogonalization against the accumulated basis.
    if (res.rank > 0) {
      matmul_tn_into(proj, res.q, qk);  // K x kk
      gemm(qk, res.q, proj, -1.0, 1.0);
      qk = orth(qk);
    }

    // Line 11: B_k = Q_k^T A.
    spmm_t_into(bkt, a, qk);            // n x kk
    const Matrix bk = bkt.transposed();  // kk x n

    // Line 12: grow the factorization.
    res.q.append_cols(qk);
    res.b.append_rows(bk);
    res.rank += kk;
    res.iterations += 1;

    // Lines 13-14: error indicator update — the exact Frobenius identity
    // (4), or a power-iteration estimate of the residual spectral norm when
    // the spectral-norm criterion was requested.
    e -= bk.frobenius_norm_sq();
    const double indicator =
        spectral ? residual_spectral_norm(a, res.q, res.b,
                                          opts.spectral_power_its,
                                          opts.seed ^ 0x79b9)
                 : std::sqrt(std::max(0.0, e));
    res.indicator = indicator;
    res.telemetry.push_back({.iteration = res.iterations,
                             .rank = res.rank,
                             .indicator_rel = indicator / res.anorm_f,
                             .tau = opts.tau,
                             .time_seconds = clock.seconds()});
    if (indicator < target) {
      res.status = opts.tau < kRandQbIndicatorFloor ? Status::kIndicatorFloor
                                                    : Status::kConverged;
      break;
    }
  }

  // Orthogonality-loss diagnostic ||Q^T Q - I||_inf (max row sum).
  if (res.rank > 0) {
    const Matrix g = matmul_tn(res.q, res.q);
    double loss = 0.0;
    for (Index i = 0; i < g.rows(); ++i) {
      double rowsum = 0.0;
      for (Index j = 0; j < g.cols(); ++j)
        rowsum += std::fabs(g(i, j) - (i == j ? 1.0 : 0.0));
      loss = std::max(loss, rowsum);
    }
    res.orth_loss = loss;
  }
  return res;
}

double randqb_exact_error(const CscMatrix& a, const RandQbResult& r) {
  return residual_fro(a, r.q, r.b);
}

}  // namespace lra
