#include "dense/qr.hpp"

#include <cmath>

#include "dense/blas.hpp"
#include "dense/tsqr.hpp"

namespace lra {

double make_reflector(Index n, double* x, double& tau) {
  if (n <= 1) {
    tau = 0.0;
    return n == 1 ? x[0] : 0.0;
  }
  const double alpha = x[0];
  const double xnorm = nrm2(n - 1, x + 1);
  if (xnorm == 0.0) {
    tau = 0.0;
    return alpha;
  }
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (Index i = 1; i < n; ++i) x[i] *= inv;
  return beta;
}

void apply_reflector(const double* v, Index len, double tau, Matrix& a,
                     Index r0, Index j0, Index j1) {
  // Four columns per sweep over v: the four independent dot chains hide the
  // add latency that a single chain is bound by, and each keeps its own
  // in-order chain, so the bits match a column-at-a-time update.
  Index j = j0;
  for (; j + 4 <= j1; j += 4) {
    double* c0 = a.col(j) + r0;
    double* c1 = a.col(j + 1) + r0;
    double* c2 = a.col(j + 2) + r0;
    double* c3 = a.col(j + 3) + r0;
    double s0 = c0[0], s1 = c1[0], s2 = c2[0], s3 = c3[0];
    for (Index i = 1; i < len; ++i) {
      const double vi = v[i];
      s0 += vi * c0[i];
      s1 += vi * c1[i];
      s2 += vi * c2[i];
      s3 += vi * c3[i];
    }
    s0 *= tau;
    s1 *= tau;
    s2 *= tau;
    s3 *= tau;
    c0[0] -= s0;
    c1[0] -= s1;
    c2[0] -= s2;
    c3[0] -= s3;
    for (Index i = 1; i < len; ++i) {
      const double vi = v[i];
      c0[i] -= s0 * vi;
      c1[i] -= s1 * vi;
      c2[i] -= s2 * vi;
      c3[i] -= s3 * vi;
    }
  }
  for (; j < j1; ++j) {
    double* cj = a.col(j) + r0;
    double s = cj[0];
    for (Index i = 1; i < len; ++i) s += v[i] * cj[i];
    s *= tau;
    cj[0] -= s;
    for (Index i = 1; i < len; ++i) cj[i] -= s * v[i];
  }
}

HouseholderQR::HouseholderQR(Matrix a) : qr_(std::move(a)) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax = std::min(m, n);
  tau_.assign(static_cast<std::size_t>(kmax), 0.0);
  for (Index k = 0; k < kmax; ++k) {
    double* ck = qr_.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau_[k]);
    if (tau_[k] != 0.0) apply_reflector(ck, m - k, tau_[k], qr_, k, k + 1, n);
    qr_(k, k) = beta;
  }
}

Matrix HouseholderQR::thin_q() const {
  const Index m = qr_.rows();
  const Index k = std::min(m, qr_.cols());
  Matrix q(m, k);
  for (Index j = 0; j < k; ++j) q(j, j) = 1.0;
  // Accumulate reflectors back to front.
  for (Index p = k - 1; p >= 0; --p) {
    if (tau_[p] != 0.0)
      apply_reflector(qr_.col(p) + p, m - p, tau_[p], q, p, p, k);
  }
  return q;
}

Matrix HouseholderQR::r() const {
  const Index k = std::min(qr_.rows(), qr_.cols());
  Matrix r(k, qr_.cols());
  for (Index j = 0; j < qr_.cols(); ++j)
    for (Index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = qr_(i, j);
  return r;
}

PanelQR::PanelQR(Matrix a) {
  // Tall-skinny panels (the randomized solvers' hot path) go through TSQR so
  // the stage-1 block factorizations run on the thread pool. Short or
  // near-square panels keep the one-shot Householder path (no parallelism to
  // win there, and other callers rely on its exact bits for small panels).
  constexpr Index kTsqrBlocks = 16;
  if (a.cols() > 0 && a.rows() >= 8 * a.cols() && a.rows() >= 2048) {
    const Index block_rows =
        std::max(a.cols(), (a.rows() + kTsqrBlocks - 1) / kTsqrBlocks);
    TsqrResult f = tsqr(a, block_rows);
    q_ = std::move(f.q);
    r_ = std::move(f.r);
  } else {
    one_shot_.emplace(std::move(a));
    r_ = one_shot_->r();
  }
}

Matrix PanelQR::take_q() {
  return one_shot_ ? one_shot_->thin_q() : std::move(q_);
}

Matrix orth(const Matrix& a) {
  if (a.empty()) return Matrix(a.rows(), 0);
  return PanelQR(a).take_q();
}

}  // namespace lra
