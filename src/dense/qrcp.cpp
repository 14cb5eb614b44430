#include "dense/qrcp.hpp"

#include <cassert>
#include <cmath>

#include "dense/blas.hpp"

namespace lra {
namespace {

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
    if (tau_[k] != 0.0) {
      // Apply the reflector to four trailing columns per sweep over ck. Each
      // column keeps its own in-order dot-product chain, so the bits match a
      // column-at-a-time update; the four independent chains hide the add
      // latency that a single chain is bound by.
      const Index len = m - k;
      const double t = tau_[k];
      Index j = k + 1;
      for (; j + 4 <= n; j += 4) {
        double* c0 = qr_.col(j) + k;
        double* c1 = qr_.col(j + 1) + k;
        double* c2 = qr_.col(j + 2) + k;
        double* c3 = qr_.col(j + 3) + k;
        double s0 = c0[0], s1 = c1[0], s2 = c2[0], s3 = c3[0];
        for (Index i = 1; i < len; ++i) {
          const double v = ck[i];
          s0 += v * c0[i];
          s1 += v * c1[i];
          s2 += v * c2[i];
          s3 += v * c3[i];
        }
        s0 *= t;
        s1 *= t;
        s2 *= t;
        s3 *= t;
        c0[0] -= s0;
        c1[0] -= s1;
        c2[0] -= s2;
        c3[0] -= s3;
        for (Index i = 1; i < len; ++i) {
          const double v = ck[i];
          c0[i] -= s0 * v;
          c1[i] -= s1 * v;
          c2[i] -= s2 * v;
          c3[i] -= s3 * v;
        }
      }
      for (; j < n; ++j) {
        double* cj = qr_.col(j) + k;
        double s = cj[0];
        for (Index i = 1; i < len; ++i) s += ck[i] * cj[i];
        s *= t;
        cj[0] -= s;
        for (Index i = 1; i < len; ++i) cj[i] -= s * ck[i];
      }
    }
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
    if (tau_[p] == 0.0) continue;
    const double* v = qr_.col(p) + p;
    for (Index j = p; j < steps_; ++j) {
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

Index QRCP::rank(double tol) const {
  if (steps_ == 0) return 0;
  const double r00 = std::fabs(qr_(0, 0));
  if (r00 == 0.0) return 0;
  for (Index j = 0; j < steps_; ++j)
    if (std::fabs(qr_(j, j)) <= tol * r00) return j;
  return steps_;
}

}  // namespace lra
