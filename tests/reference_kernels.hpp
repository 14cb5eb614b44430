#pragma once
// Reference kernels: the seed GEMM / SpMM / SpMM^T loops that the library's
// `simd` kernels are checked against, scalar emulations of the `simd` GEMM,
// SpMM and SpMM^T chains that pin those kernels exactly, the
// one-column-at-a-time Householder loops (QR, QRCP, bidiagonalization) that
// the library's swept reflector kernels must reproduce bit for bit, and the
// sorting SpGEMM / Schur-update loops (a marked sparse accumulator per pool
// slice, a comparison sort of every column's rows, per-column buffers
// stitched at the end) that the library's slice-assembled kernels must
// reproduce bit for bit.
// Header-only and outside the library on purpose — only the kernel tests and
// bench/bench_kernels.cpp include it, so no solver can run it.
//
// The contracts they anchor (dense/blas.hpp, sparse/ops.hpp):
//   * simd stays within 4 * k_eff * eps * (the seed loop on |inputs|) per
//     element;
//   * simd is bitwise identical (memcmp) to simd_chain_gemm,
//     simd_chain_spmm and simd_chain_spmm_t on every input, at every thread
//     count.
//
// The loops and the pool forks are the seed kernels' own: j-k-i rank-1
// updates cache-blocked over 256 x 256 panels for A*B, whole-k dots then one
// scaled accumulate for A^T*B, one output column per fork index for the
// sparse drivers. Fork grains follow the library's thresholds, so small
// problems run inline exactly as the library kernels do.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dense/bidiag.hpp"
#include "dense/blas.hpp"
#include "dense/matrix.hpp"
#include "par/pool.hpp"
#include "sparse/csc.hpp"
#include "support/simd.hpp"

namespace lra::ref {

namespace detail {

// Below this many multiply-adds the fork-join overhead beats the speedup
// (dense / sparse thresholds, as in dense/blas.cpp and sparse/ops.cpp).
inline constexpr Index kGemmForkWork = Index{1} << 16;
inline constexpr Index kSparseForkWork = Index{1} << 15;

// Panel sizes chosen so one (MC x KC) block of A fits comfortably in L2.
inline constexpr Index kPanelMc = 256;
inline constexpr Index kPanelKc = 256;

inline Index gemm_grain(Index m, Index k, Index n) {
  return m * k * n < kGemmForkWork ? n + 1 : 1;
}

// C(mxn) += A(mxk) * B(kxn), all column-major, no transposes.
inline void gemm_nn(Matrix& c, const Matrix& a, const Matrix& b,
                    double alpha) {
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  ThreadPool::global().parallel_for(
      Index{0}, n, "gemm",
      [&](Index j) {
        double* cj = c.col(j);
        const double* bj = b.col(j);
        for (Index k0 = 0; k0 < k; k0 += kPanelKc) {
          const Index k1 = std::min(k0 + kPanelKc, k);
          for (Index i0 = 0; i0 < m; i0 += kPanelMc) {
            const Index i1 = std::min(i0 + kPanelMc, m);
            for (Index p = k0; p < k1; ++p) {
              const double w = alpha * bj[p];
              if (w == 0.0) continue;
              const double* ap = a.col(p);
              for (Index i = i0; i < i1; ++i) cj[i] += w * ap[i];
            }
          }
        }
      },
      gemm_grain(m, k, n));
}

// C(mxn) += A^T(mxk as k x m stored) * B(kxn): A is (k x m), result row i of C
// is dot of A column i with B column j -> use dot products (contiguous).
inline void gemm_tn(Matrix& c, const Matrix& a, const Matrix& b,
                    double alpha) {
  const Index m = a.cols(), k = a.rows(), n = b.cols();
  ThreadPool::global().parallel_for(
      Index{0}, n, "gemm",
      [&](Index j) {
        const double* bj = b.col(j);
        double* cj = c.col(j);
        for (Index i = 0; i < m; ++i) {
          cj[i] += alpha * dot(k, a.col(i), bj);
        }
      },
      gemm_grain(m, k, n));
}

// C(mxn) += A(mxk) * B^T (B is n x k).
inline void gemm_nt(Matrix& c, const Matrix& a, const Matrix& b,
                    double alpha) {
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  ThreadPool::global().parallel_for(
      Index{0}, n, "gemm",
      [&](Index j) {
        double* cj = c.col(j);
        for (Index p = 0; p < k; ++p) {
          const double w = alpha * b(j, p);
          if (w == 0.0) continue;
          const double* ap = a.col(p);
          for (Index i = 0; i < m; ++i) cj[i] += w * ap[i];
        }
      },
      gemm_grain(m, k, n));
}

inline void zero_fill(Matrix& c) {
  std::fill(c.data(), c.data() + c.size(), 0.0);
}

// One term of a `simd` kernel chain: std::fma where the library's kernels
// fuse (`fused` = simd::simd_has_fma()), else the two-rounding chain.
inline double chain_madd(bool fused, double x, double y, double z) {
  return fused ? std::fma(x, y, z) : x * y + z;
}

// Columns per pass of the library's SpMM quads (kSpmmNb in sparse/ops.cpp).
inline constexpr Index kSpmmNb = 4;

// One output column of A * B: scan A once, scatter-accumulate into cc.
inline void spmm_col(const CscMatrix& a, const double* bc, double* cc) {
  for (Index j = 0; j < a.cols(); ++j) {
    const double w = bc[j];
    if (w == 0.0) continue;
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p) cc[rows[p]] += vals[p] * w;
  }
}

// One output column of A^T * B: one dot per A column.
inline void spmm_t_col(const CscMatrix& a, const double* bc, double* cc) {
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    double s = 0.0;
    for (std::size_t p = 0; p < rows.size(); ++p) s += vals[p] * bc[rows[p]];
    cc[j] = s;
  }
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C, as lra::gemm, for the three
/// transpose cases the library vectorizes (A^T * B^T is a single shared loop
/// in the library and has no reference here).
inline void gemm(Matrix& c, const Matrix& a, const Matrix& b,
                 double alpha = 1.0, double beta = 0.0, Trans ta = Trans::kNo,
                 Trans tb = Trans::kNo) {
  assert(!(ta == Trans::kYes && tb == Trans::kYes));
  const Index ka = (ta == Trans::kNo) ? a.cols() : a.rows();
  if (beta == 0.0) {
    for (Index j = 0; j < c.cols(); ++j) {
      double* cj = c.col(j);
      for (Index i = 0; i < c.rows(); ++i) cj[i] = 0.0;
    }
  } else if (beta != 1.0) {
    c.scale(beta);
  }
  if (alpha == 0.0 || ka == 0) return;
  if (ta == Trans::kYes) {
    detail::gemm_tn(c, a, b, alpha);
  } else if (tb == Trans::kYes) {
    detail::gemm_nt(c, a, b, alpha);
  } else {
    detail::gemm_nn(c, a, b, alpha);
  }
}

/// The `simd` GEMM chains, one element at a time in scalar code: the width
/// is simd::simd_width(), and each multiply-add is std::fma exactly when
/// simd::simd_has_fma() (else the two-rounding chain). C is
/// scaled by beta as lra::gemm scales it; then
///   * nn / nt: one multiply-add per term in ascending k, starting from C,
///     with the B term pre-multiplied by alpha: c = fma(a_ip, alpha * b_pj, c);
///   * tn: W lane chains from 0.0, lane l taking p = l mod W over the first
///     k - k mod W terms, the ordered lane sum ((l0 + l1) + l2) + l3, a
///     multiply-add scalar tail over the rest, then one c += alpha * s.
/// The library kernels must reproduce this bit for bit at every tile, slab
/// and thread count.
inline void simd_chain_gemm(Matrix& c, const Matrix& a, const Matrix& b,
                            double alpha, double beta, Trans ta, Trans tb) {
  assert(!(ta == Trans::kYes && tb == Trans::kYes));
  const Index w = simd::simd_width();
  const bool fused = simd::simd_has_fma();
  if (beta == 0.0) {
    detail::zero_fill(c);
  } else if (beta != 1.0) {
    c.scale(beta);
  }
  const Index k = (ta == Trans::kNo) ? a.cols() : a.rows();
  if (alpha == 0.0 || k == 0) return;
  const Index kv = k - k % w;
  std::vector<double> lane(static_cast<std::size_t>(w));
  for (Index j = 0; j < c.cols(); ++j) {
    for (Index i = 0; i < c.rows(); ++i) {
      if (ta == Trans::kYes) {
        std::fill(lane.begin(), lane.end(), 0.0);
        for (Index p = 0; p < kv; ++p) {
          double& l = lane[static_cast<std::size_t>(p % w)];
          l = detail::chain_madd(fused, a(p, i), b(p, j), l);
        }
        double s = lane[0];
        for (Index l = 1; l < w; ++l) s += lane[static_cast<std::size_t>(l)];
        for (Index p = kv; p < k; ++p)
          s = detail::chain_madd(fused, a(p, i), b(p, j), s);
        c(i, j) += alpha * s;
      } else {
        double s = c(i, j);
        for (Index p = 0; p < k; ++p)
          s = detail::chain_madd(
              fused, a(i, p), alpha * (tb == Trans::kNo ? b(p, j) : b(j, p)),
              s);
        c(i, j) = s;
      }
    }
  }
}

/// The `simd` SpMM chains, one column at a time in scalar code: C = A * B
/// from zero. Each full block of kSpmmNb columns runs one multiply-add per
/// term, c_iq = fma(a_ij, b_jq, c_iq) over A's columns and their stored
/// entries in order, with no zero skip (std::fma exactly when
/// simd::simd_has_fma()); the n mod kSpmmNb leftover columns run the seed
/// per-column loop, skip included.
inline Matrix simd_chain_spmm(const CscMatrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  const bool fused = simd::simd_has_fma();
  const Index n = b.cols(), nq = n - n % detail::kSpmmNb;
  Matrix c(a.rows(), n);
  for (Index q = 0; q < nq; ++q) {
    double* cq = c.col(q);
    for (Index j = 0; j < a.cols(); ++j) {
      const double w = b(j, q);
      const auto rows = a.col_rows(j);
      const auto vals = a.col_values(j);
      for (std::size_t p = 0; p < rows.size(); ++p)
        cq[rows[p]] = detail::chain_madd(fused, vals[p], w, cq[rows[p]]);
    }
  }
  for (Index q = nq; q < n; ++q) detail::spmm_col(a, b.col(q), c.col(q));
  return c;
}

/// The `simd` SpMM^T chains in scalar code: C = A^T * B. In each full block
/// of kSpmmNb columns, C(j, q) is one multiply-add per stored entry of A's
/// column j, in order, from 0.0 (std::fma exactly when
/// simd::simd_has_fma()); the leftover columns run the seed dot loop.
inline Matrix simd_chain_spmm_t(const CscMatrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  const bool fused = simd::simd_has_fma();
  const Index n = b.cols(), nq = n - n % detail::kSpmmNb;
  Matrix c(a.cols(), n);
  for (Index q = 0; q < nq; ++q) {
    const double* bq = b.col(q);
    for (Index j = 0; j < a.cols(); ++j) {
      const auto rows = a.col_rows(j);
      const auto vals = a.col_values(j);
      double s = 0.0;
      for (std::size_t p = 0; p < rows.size(); ++p)
        s = detail::chain_madd(fused, vals[p], bq[rows[p]], s);
      c(j, q) = s;
    }
  }
  for (Index q = nq; q < n; ++q) detail::spmm_t_col(a, b.col(q), c.col(q));
  return c;
}

/// C = A * B into a caller-owned buffer (reshaped to m x n), as
/// lra::spmm_into.
inline void spmm_into(Matrix& c, const CscMatrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  c.reshape(a.rows(), b.cols());
  detail::zero_fill(c);
  const Index n = b.cols();
  const Index grain = a.nnz() * n < detail::kSparseForkWork ? n + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, n, "spmm",
      [&](Index col) { detail::spmm_col(a, b.col(col), c.col(col)); }, grain);
}

/// C = A^T * B into a caller-owned buffer (reshaped to p x n), as
/// lra::spmm_t_into.
inline void spmm_t_into(Matrix& c, const CscMatrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  c.reshape(a.cols(), b.cols());
  const Index n = b.cols();
  const Index grain = a.nnz() * n < detail::kSparseForkWork ? n + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, n, "spmm_t",
      [&](Index col) { detail::spmm_t_col(a, b.col(col), c.col(col)); },
      grain);
}

/// Value-returning wrappers.
inline Matrix spmm(const CscMatrix& a, const Matrix& b) {
  Matrix c;
  spmm_into(c, a, b);
  return c;
}

inline Matrix spmm_t(const CscMatrix& a, const Matrix& b) {
  Matrix c;
  spmm_t_into(c, a, b);
  return c;
}

// --- Householder: one reflector application per column ----------------------

namespace detail {

// Householder reflector for x (length n), as lra::make_reflector: v(1:)
// overwrites x(1:), returns beta.
inline double reflector(Index n, double* x, double& tau) {
  tau = 0.0;
  if (n <= 0) return 0.0;
  double beta = x[0];
  const double xnorm = n > 1 ? nrm2(n - 1, x + 1) : 0.0;
  if (xnorm != 0.0) {
    beta = -std::copysign(std::hypot(x[0], xnorm), x[0]);
    tau = (beta - x[0]) / beta;
    const double inv = 1.0 / (x[0] - beta);
    for (Index i = 1; i < n; ++i) x[i] *= inv;
  }
  return beta;
}

// c -= tau v (v^T c) for one column c of length len (v(0) = 1 implicit).
inline void reflect_column(const double* v, Index len, double tau, double* c) {
  double s = c[0];
  for (Index i = 1; i < len; ++i) s += v[i] * c[i];
  s *= tau;
  c[0] -= s;
  for (Index i = 1; i < len; ++i) c[i] -= s * v[i];
}

}  // namespace detail

/// Householder QR (as lra::HouseholderQR), the textbook loop order: R
/// (min(m, n) x n) and the thin Q (m x min(m, n)), reflectors accumulated
/// back to front.
inline void householder_qr(Matrix qr, Matrix* r_out, Matrix* q_out) {
  const Index m = qr.rows(), n = qr.cols(), kmax = std::min(m, n);
  std::vector<double> tau(static_cast<std::size_t>(kmax), 0.0);
  for (Index k = 0; k < kmax; ++k) {
    double* ck = qr.col(k) + k;
    const double beta = detail::reflector(m - k, ck, tau[k]);
    if (tau[k] != 0.0)
      for (Index j = k + 1; j < n; ++j)
        detail::reflect_column(ck, m - k, tau[k], qr.col(j) + k);
    qr(k, k) = beta;
  }
  *r_out = Matrix(kmax, n);
  for (Index j = 0; j < n; ++j)
    for (Index i = 0; i <= std::min(j, kmax - 1); ++i)
      (*r_out)(i, j) = qr(i, j);
  Matrix q(m, kmax);
  for (Index j = 0; j < kmax; ++j) q(j, j) = 1.0;
  for (Index p = kmax - 1; p >= 0; --p) {
    if (tau[p] == 0.0) continue;
    for (Index j = p; j < kmax; ++j)
      detail::reflect_column(qr.col(p) + p, m - p, tau[p], q.col(j) + p);
  }
  *q_out = std::move(q);
}

/// QRCP (as lra::QRCP) for kmax steps: largest trailing norm pivoting with
/// the downdate + recompute safeguard; R (kmax x n) and the column order.
inline void qrcp(Matrix qr, Index kmax, Matrix* r_out,
                 std::vector<Index>* perm) {
  const Index m = qr.rows(), n = qr.cols();
  perm->resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) (*perm)[j] = j;
  std::vector<double> cnorm(static_cast<std::size_t>(n));
  std::vector<double> cnorm_ref(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) cnorm_ref[j] = cnorm[j] = nrm2(m, qr.col(j));
  const double tol3z = std::sqrt(2.220446049250313e-16);
  for (Index k = 0; k < kmax; ++k) {
    Index piv = k;
    for (Index j = k + 1; j < n; ++j)
      if (cnorm[j] > cnorm[piv]) piv = j;
    if (piv != k) {
      for (Index i = 0; i < m; ++i) std::swap(qr(i, k), qr(i, piv));
      std::swap(cnorm[k], cnorm[piv]);
      std::swap(cnorm_ref[k], cnorm_ref[piv]);
      std::swap((*perm)[k], (*perm)[piv]);
    }
    double* ck = qr.col(k) + k;
    double tau = 0.0;
    const double beta = detail::reflector(m - k, ck, tau);
    if (tau != 0.0)
      for (Index j = k + 1; j < n; ++j)
        detail::reflect_column(ck, m - k, tau, qr.col(j) + k);
    qr(k, k) = beta;
    for (Index j = k + 1; j < n; ++j) {
      if (cnorm[j] == 0.0) continue;
      double t = std::fabs(qr(k, j)) / cnorm[j];
      t = std::max(0.0, (1.0 + t) * (1.0 - t));
      const double ratio = cnorm[j] / cnorm_ref[j];
      if (t * ratio * ratio <= tol3z) {
        cnorm[j] = nrm2(m - k - 1, qr.col(j) + k + 1);
        cnorm_ref[j] = cnorm[j];
      } else {
        cnorm[j] *= std::sqrt(t);
      }
    }
  }
  *r_out = Matrix(kmax, n);
  for (Index j = 0; j < n; ++j)
    for (Index i = 0; i <= std::min(j, kmax - 1); ++i)
      (*r_out)(i, j) = qr(i, j);
}

/// Golub-Kahan bidiagonalization (as lra::bidiagonalize): left reflectors
/// one column at a time, right reflectors one row at a time.
inline Bidiagonal bidiagonalize(const Matrix& a_in) {
  Matrix a = a_in.rows() >= a_in.cols() ? a_in : a_in.transposed();
  const Index m = a.rows(), n = a.cols();
  Bidiagonal bd;
  bd.d.assign(static_cast<std::size_t>(n), 0.0);
  if (n > 1) bd.e.assign(static_cast<std::size_t>(n - 1), 0.0);
  std::vector<double> rowbuf(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    double tau = 0.0;
    double* ck = a.col(k) + k;
    bd.d[k] = detail::reflector(m - k, ck, tau);
    if (tau != 0.0)
      for (Index j = k + 1; j < n; ++j)
        detail::reflect_column(ck, m - k, tau, a.col(j) + k);
    if (k >= n - 1) continue;
    const Index len = n - k - 1;
    for (Index j = 0; j < len; ++j) rowbuf[j] = a(k, k + 1 + j);
    double tau_r = 0.0;
    const double beta_r = detail::reflector(len, rowbuf.data(), tau_r);
    if (tau_r != 0.0) {
      for (Index i = k + 1; i < m; ++i) {
        double s = a(i, k + 1);
        for (Index j = 1; j < len; ++j) s += rowbuf[j] * a(i, k + 1 + j);
        s *= tau_r;
        a(i, k + 1) -= s;
        for (Index j = 1; j < len; ++j) a(i, k + 1 + j) -= s * rowbuf[j];
      }
    }
    bd.e[k] = beta_r;
    a(k, k + 1) = beta_r;
    for (Index j = 1; j < len; ++j) a(k, k + 1 + j) = 0.0;
  }
  return bd;
}

// --- SpGEMM and the Schur update: sort every column, stitch at the end ------

namespace detail {

// Sparse accumulator (SPA) over m rows: dense value array + occupancy list.
class Spa {
 public:
  explicit Spa(Index m)
      : val_(static_cast<std::size_t>(m), 0.0),
        mark_(static_cast<std::size_t>(m), 0) {}

  void scatter(Index i, double v) {
    if (!mark_[i]) {
      mark_[i] = 1;
      nz_.push_back(i);
      val_[i] = v;
    } else {
      val_[i] += v;
    }
  }

  /// Flush the accumulated column into (rowind, values), sorted by row, then
  /// reset. With `keep_cancelled`, entries that cancelled to exactly zero are
  /// kept (they are real fill-in positions); without it, only entries with
  /// |value| > 0 are stored, so zeros and NaN are dropped.
  void gather(std::vector<Index>& rowind, std::vector<double>& values,
              bool keep_cancelled) {
    std::sort(nz_.begin(), nz_.end());
    for (Index i : nz_) {
      if (keep_cancelled || std::fabs(val_[i]) > 0.0) {
        rowind.push_back(i);
        values.push_back(val_[i]);
      }
      val_[i] = 0.0;
      mark_[i] = 0;
    }
    nz_.clear();
  }

 private:
  std::vector<double> val_;
  std::vector<char> mark_;
  std::vector<Index> nz_;
};

// Stitch per-column (rows, values) buffers into one CSC matrix.
inline CscMatrix stitch_columns(Index m, Index n,
                                std::vector<std::vector<Index>>& col_rows,
                                std::vector<std::vector<double>>& col_vals) {
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j)
    colptr[j + 1] = colptr[j] + static_cast<Index>(col_rows[j].size());
  std::vector<Index> rowind(static_cast<std::size_t>(colptr[n]));
  std::vector<double> values(static_cast<std::size_t>(colptr[n]));
  for (Index j = 0; j < n; ++j) {
    std::copy(col_rows[j].begin(), col_rows[j].end(),
              rowind.begin() + colptr[j]);
    std::copy(col_vals[j].begin(), col_vals[j].end(),
              values.begin() + colptr[j]);
  }
  return CscMatrix(m, n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace detail

/// C = A * B (as lra::spgemm), cancellations stored.
inline CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b) {
  assert(a.cols() == b.rows());
  const Index m = a.rows(), n = b.cols();
  std::vector<std::vector<Index>> col_rows_out(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> col_vals_out(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "spgemm", /*grain=*/16, [&](Index j0, Index j1, int) {
        detail::Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
          const auto brows = b.col_rows(j);
          const auto bvals = b.col_values(j);
          for (std::size_t p = 0; p < brows.size(); ++p) {
            const Index k = brows[p];
            const double w = bvals[p];
            const auto arows = a.col_rows(k);
            const auto avals = a.col_values(k);
            for (std::size_t q = 0; q < arows.size(); ++q)
              spa.scatter(arows[q], avals[q] * w);
          }
          spa.gather(col_rows_out[j], col_vals_out[j], /*keep_cancelled=*/true);
        }
      });
  return detail::stitch_columns(m, n, col_rows_out, col_vals_out);
}

/// S = A - L U (as lra::schur_update): A's entries first, then
/// -L(:, k) U(k, j) for U's nonzeros in row order; only |value| > 0 stored.
inline CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                              const CscMatrix& u) {
  assert(a.rows() == l.rows() && a.cols() == u.cols() && l.cols() == u.rows());
  const Index m = a.rows(), n = a.cols();
  std::vector<std::vector<Index>> col_rows_out(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> col_vals_out(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "schur", /*grain=*/16, [&](Index j0, Index j1, int) {
        detail::Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
          const auto ar = a.col_rows(j);
          const auto av = a.col_values(j);
          for (std::size_t p = 0; p < ar.size(); ++p) spa.scatter(ar[p], av[p]);
          const auto ur = u.col_rows(j);
          const auto uv = u.col_values(j);
          for (std::size_t p = 0; p < ur.size(); ++p) {
            const Index k = ur[p];
            const double w = -uv[p];
            const auto lr = l.col_rows(k);
            const auto lv = l.col_values(k);
            for (std::size_t q = 0; q < lr.size(); ++q)
              spa.scatter(lr[q], lv[q] * w);
          }
          spa.gather(col_rows_out[j], col_vals_out[j],
                     /*keep_cancelled=*/false);
        }
      });
  return detail::stitch_columns(m, n, col_rows_out, col_vals_out);
}

}  // namespace lra::ref
