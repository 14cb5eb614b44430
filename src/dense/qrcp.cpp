#include "dense/qrcp.hpp"

#include <cmath>

#include "dense/blas.hpp"
#include "dense/qr.hpp"

namespace lra {

QRCP::QRCP(Matrix a, Index max_steps) : qr_(std::move(a)) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax =
      max_steps < 0 ? std::min(m, n) : std::min<Index>(max_steps, std::min(m, n));
  tau_.assign(static_cast<std::size_t>(kmax), 0.0);
  perm_.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) perm_[j] = j;

  // Trailing column norms, with the classical downdate + recompute safeguard
  // (recompute when the downdated value may have lost all accuracy).
  std::vector<double> cnorm(static_cast<std::size_t>(n));
  std::vector<double> cnorm_ref(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j)
    cnorm_ref[j] = cnorm[j] = nrm2(m, qr_.col(j));
  const double tol3z = std::sqrt(2.220446049250313e-16);

  for (Index k = 0; k < kmax; ++k) {
    // Pivot: column with the largest trailing norm.
    Index piv = k;
    for (Index j = k + 1; j < n; ++j)
      if (cnorm[j] > cnorm[piv]) piv = j;
    if (piv != k) {
      for (Index i = 0; i < m; ++i) std::swap(qr_(i, k), qr_(i, piv));
      std::swap(cnorm[k], cnorm[piv]);
      std::swap(cnorm_ref[k], cnorm_ref[piv]);
      std::swap(perm_[k], perm_[piv]);
    }

    double* ck = qr_.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau_[k]);
    if (tau_[k] != 0.0) apply_reflector(ck, m - k, tau_[k], qr_, k, k + 1, n);
    qr_(k, k) = beta;

    // Downdate trailing norms.
    for (Index j = k + 1; j < n; ++j) {
      if (cnorm[j] == 0.0) continue;
      double t = std::fabs(qr_(k, j)) / cnorm[j];
      t = std::max(0.0, (1.0 + t) * (1.0 - t));
      const double ratio = cnorm[j] / cnorm_ref[j];
      if (t * ratio * ratio <= tol3z) {
        cnorm[j] = nrm2(m - k - 1, qr_.col(j) + k + 1);
        cnorm_ref[j] = cnorm[j];
      } else {
        cnorm[j] *= std::sqrt(t);
      }
    }
    ++steps_;
  }
}

Matrix QRCP::r() const {
  Matrix r(steps_, qr_.cols());
  for (Index j = 0; j < qr_.cols(); ++j)
    for (Index i = 0; i <= std::min(j, steps_ - 1); ++i) r(i, j) = qr_(i, j);
  return r;
}

Matrix QRCP::thin_q() const {
  const Index m = qr_.rows();
  Matrix q(m, steps_);
  for (Index j = 0; j < steps_; ++j) q(j, j) = 1.0;
  for (Index p = steps_ - 1; p >= 0; --p) {
    if (tau_[p] != 0.0)
      apply_reflector(qr_.col(p) + p, m - p, tau_[p], q, p, p, steps_);
  }
  return q;
}

Index QRCP::rank(double tol) const {
  if (steps_ == 0) return 0;
  const double r00 = std::fabs(qr_(0, 0));
  if (r00 == 0.0) return 0;
  for (Index j = 0; j < steps_; ++j)
    if (std::fabs(qr_(j, j)) <= tol * r00) return j;
  return steps_;
}

}  // namespace lra
