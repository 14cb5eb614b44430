#include "dense/bidiag.hpp"

#include "dense/qr.hpp"

namespace lra {
namespace {

// Applies (I - tau v v^T) from the right to rows [i0, m) of A(:, c0 : c0+len)
// (v(0) = 1 implicit; v(1:) read from v + 1). Four rows per sweep: they are
// adjacent in column-major storage, so one pass over v serves all four, and
// each row keeps its own in-order dot chain, so the bits equal a
// row-at-a-time update.
void apply_reflector_right(const double* v, Index len, double tau, Matrix& a,
                           Index i0, Index c0) {
  const Index m = a.rows();
  Index i = i0;
  for (; i + 4 <= m; i += 4) {
    double* r = a.col(c0) + i;
    double s0 = r[0], s1 = r[1], s2 = r[2], s3 = r[3];
    for (Index j = 1; j < len; ++j) {
      const double vj = v[j];
      const double* cj = a.col(c0 + j) + i;
      s0 += vj * cj[0];
      s1 += vj * cj[1];
      s2 += vj * cj[2];
      s3 += vj * cj[3];
    }
    s0 *= tau;
    s1 *= tau;
    s2 *= tau;
    s3 *= tau;
    r[0] -= s0;
    r[1] -= s1;
    r[2] -= s2;
    r[3] -= s3;
    for (Index j = 1; j < len; ++j) {
      const double vj = v[j];
      double* cj = a.col(c0 + j) + i;
      cj[0] -= s0 * vj;
      cj[1] -= s1 * vj;
      cj[2] -= s2 * vj;
      cj[3] -= s3 * vj;
    }
  }
  for (; i < m; ++i) {
    double s = a(i, c0);
    for (Index j = 1; j < len; ++j) s += v[j] * a(i, c0 + j);
    s *= tau;
    a(i, c0) -= s;
    for (Index j = 1; j < len; ++j) a(i, c0 + j) -= s * v[j];
  }
}

}  // namespace

Bidiagonal bidiagonalize(const Matrix& a_in) {
  Matrix a = a_in.rows() >= a_in.cols() ? a_in : a_in.transposed();
  const Index m = a.rows(), n = a.cols();
  Bidiagonal bd;
  bd.d.assign(static_cast<std::size_t>(n), 0.0);
  if (n > 1) bd.e.assign(static_cast<std::size_t>(n - 1), 0.0);

  std::vector<double> rowbuf(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    // Left reflector annihilates A(k+1:m, k).
    double tau = 0.0;
    double* ck = a.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau);
    if (tau != 0.0) apply_reflector(ck, m - k, tau, a, k, k + 1, n);
    bd.d[k] = beta;

    if (k >= n - 1) continue;
    // Right reflector annihilates A(k, k+2:n) (acts on row k).
    const Index len = n - k - 1;
    for (Index j = 0; j < len; ++j) rowbuf[j] = a(k, k + 1 + j);
    double tau_r = 0.0;
    const double beta_r = make_reflector(len, rowbuf.data(), tau_r);
    if (tau_r != 0.0)
      apply_reflector_right(rowbuf.data(), len, tau_r, a, k + 1, k + 1);
    bd.e[k] = beta_r;
    a(k, k + 1) = beta_r;
    for (Index j = 1; j < len; ++j) a(k, k + 1 + j) = 0.0;
  }
  return bd;
}

}  // namespace lra
