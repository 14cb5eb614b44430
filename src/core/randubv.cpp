#include "core/randubv.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "sparse/ops.hpp"
#include "support/stopwatch.hpp"

namespace lra {

RandUbvResult randubv(const CscMatrix& a, const RandUbvOptions& opts) {
  Stopwatch clock;
  RandUbvResult res;
  const Index m = a.rows(), n = a.cols();
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const Index b = std::min(opts.block_size, rank_budget);
  res.anorm_f = a.frobenius_norm();
  const double target = opts.tau * res.anorm_f;

  res.u = Matrix(m, 0);
  res.v = Matrix(n, 0);
  // Block-bidiagonal coefficients; assembled into res.b at the end.
  std::vector<Matrix> diag_l;   // L_j (b x b, lower triangular)
  std::vector<Matrix> super_r;  // R_j (b x b, upper triangular)

  // V_1 = orth(Gaussian); U_1 L_1 = qr(A V_1).
  Matrix vj = orth(Matrix::gaussian(n, b, opts.seed, 0));
  Matrix z = spmm(a, vj);
  HouseholderQR fz(z);
  Matrix uj = fz.thin_q();
  Matrix lj = fz.r();  // b x b (upper triangular here; L in UBV notation)

  double e = res.anorm_f * res.anorm_f;

  // Loop-carried kernel buffers (reshaped in place by the `_into` kernels so
  // steady-state iterations reuse the same allocations).
  Matrix w, znext, proj;

  while (true) {
    res.v.append_cols(vj);
    res.u.append_cols(uj);
    diag_l.push_back(lj);
    res.rank += vj.cols();
    res.iterations += 1;
    e -= lj.frobenius_norm_sq();

    double indicator = std::sqrt(std::max(0.0, e));
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
    if (res.rank + b > rank_budget) break;

    // W = A^T U_j - V_j L_j^T, reorthogonalized against all previous V.
    spmm_t_into(w, a, uj);
    gemm(w, vj, lj, -1.0, 1.0, Trans::kNo, Trans::kYes);
    if (opts.full_reorth) {
      matmul_tn_into(proj, res.v, w);
      gemm(w, res.v, proj, -1.0, 1.0);
    }
    HouseholderQR fw(w);
    Matrix vnext = fw.thin_q();
    Matrix rj = fw.r();
    e -= rj.frobenius_norm_sq();
    super_r.push_back(rj);

    indicator = std::sqrt(std::max(0.0, e));
    res.indicator = indicator;
    if (indicator < target) {
      // The R block alone pushed us below tau: accept V-side expansion by
      // finishing the U-side for a consistent factorization.
    }

    // Z = A V_{j+1} - U_j R_j^T, reorthogonalized against all previous U.
    spmm_into(znext, a, vnext);
    gemm(znext, uj, rj, -1.0, 1.0, Trans::kNo, Trans::kYes);
    if (opts.full_reorth) {
      matmul_tn_into(proj, res.u, znext);
      gemm(znext, res.u, proj, -1.0, 1.0);
    }
    HouseholderQR fzn(znext);
    uj = fzn.thin_q();
    lj = fzn.r();
    vj = std::move(vnext);
  }

  // Assemble the block-bidiagonal B (K x K): L_j on the block diagonal,
  // R_j^T on the block *sub*diagonal of V-blocks... in the UBV convention,
  // A V = U B with B having L_j blocks on the diagonal and R_j blocks on the
  // superdiagonal of B^T; equivalently A ~= U B V^T with
  // B = [L_1 R_1^T; L_2 R_2^T; ...] block lower bidiagonal.
  res.b = Matrix(res.rank, res.rank);
  Index off = 0;
  for (std::size_t j = 0; j < diag_l.size(); ++j) {
    res.b.set_block(off, off, diag_l[j]);
    if (j < super_r.size() && off + b < res.rank) {
      // R_j couples U block j with V block j+1: B(j, j+1) = R_j^T.
      res.b.set_block(off, off + b, super_r[j].transposed());
    }
    off += diag_l[j].rows();
  }
  return res;
}

double randubv_exact_error(const CscMatrix& a, const RandUbvResult& r) {
  // ||A - U B V^T||_F via H = U B, W = V^T.
  const Matrix h = matmul(r.u, r.b);
  const Matrix w = r.v.transposed();
  return residual_fro(a, h, w);
}

}  // namespace lra
