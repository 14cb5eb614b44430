#include "dense/qr.hpp"

#include <cassert>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/tsqr.hpp"

namespace lra {
namespace {

// Compute the Householder reflector for x (length n): returns beta such that
// (I - tau v v^T) x = (beta, 0, ..., 0)^T, with v(0)=1 stored in x(1:).
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

}  // namespace

HouseholderQR::HouseholderQR(Matrix a) : qr_(std::move(a)) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax = std::min(m, n);
  tau_.assign(static_cast<std::size_t>(kmax), 0.0);
  std::vector<double> w(static_cast<std::size_t>(n));
  for (Index k = 0; k < kmax; ++k) {
    double* ck = qr_.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau_[k]);
    if (tau_[k] != 0.0) {
      // Apply (I - tau v v^T) to the trailing columns.
      for (Index j = k + 1; j < n; ++j) {
        double* cj = qr_.col(j) + k;
        double s = cj[0];
        for (Index i = 1; i < m - k; ++i) s += ck[i] * cj[i];
        s *= tau_[k];
        cj[0] -= s;
        for (Index i = 1; i < m - k; ++i) cj[i] -= s * ck[i];
      }
    }
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
    if (tau_[p] == 0.0) continue;
    const double* v = qr_.col(p) + p;
    for (Index j = p; j < k; ++j) {
      double* cj = q.col(j) + p;
      double s = cj[0];
      for (Index i = 1; i < m - p; ++i) s += v[i] * cj[i];
      s *= tau_[p];
      cj[0] -= s;
      for (Index i = 1; i < m - p; ++i) cj[i] -= s * v[i];
    }
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

void HouseholderQR::apply_qt(Matrix& b) const {
  const Index m = qr_.rows();
  assert(b.rows() == m);
  const Index k = static_cast<Index>(tau_.size());
  for (Index p = 0; p < k; ++p) {
    if (tau_[p] == 0.0) continue;
    const double* v = qr_.col(p) + p;
    for (Index j = 0; j < b.cols(); ++j) {
      double* cj = b.col(j) + p;
      double s = cj[0];
      for (Index i = 1; i < m - p; ++i) s += v[i] * cj[i];
      s *= tau_[p];
      cj[0] -= s;
      for (Index i = 1; i < m - p; ++i) cj[i] -= s * v[i];
    }
  }
}

void HouseholderQR::apply_q(Matrix& b) const {
  const Index m = qr_.rows();
  assert(b.rows() == m);
  const Index k = static_cast<Index>(tau_.size());
  for (Index p = k - 1; p >= 0; --p) {
    if (tau_[p] == 0.0) continue;
    const double* v = qr_.col(p) + p;
    for (Index j = 0; j < b.cols(); ++j) {
      double* cj = b.col(j) + p;
      double s = cj[0];
      for (Index i = 1; i < m - p; ++i) s += v[i] * cj[i];
      s *= tau_[p];
      cj[0] -= s;
      for (Index i = 1; i < m - p; ++i) cj[i] -= s * v[i];
    }
  }
}

Matrix HouseholderQR::solve(const Matrix& b) const {
  const Index n = qr_.cols();
  assert(qr_.rows() >= n);
  Matrix y = b;
  apply_qt(y);
  Matrix x(n, b.cols());
  for (Index j = 0; j < b.cols(); ++j) {
    for (Index i = n - 1; i >= 0; --i) {
      double s = y(i, j);
      for (Index p = i + 1; p < n; ++p) s -= qr_(i, p) * x(p, j);
      x(i, j) = s / qr_(i, i);
    }
  }
  return x;
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
