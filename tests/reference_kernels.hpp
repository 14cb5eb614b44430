#pragma once
// Reference kernels: the seed GEMM / SpMM / SpMM^T / dense x CSC loops that
// the library's two kernel families are checked against. Header-only and
// outside the library on purpose — only the kernel tests and
// bench/bench_kernels.cpp include it, so no solver can run it.
//
// The contracts they anchor (support/kernel_variant.hpp):
//   * simd-strict is bitwise identical to these loops (memcmp) — on every
//     input for the sparse kernels and A^T*B, and on inputs free of exact
//     zeros / non-finite values for A*B and A*B^T, where these loops skip
//     terms whose dense multiplier is exactly 0.0;
//   * simd stays within 4 * k_eff * eps * (the same loop on |inputs|) per
//     element.
//
// The loops and the pool forks are the seed kernels' own: j-k-i rank-1
// updates cache-blocked over 256 x 256 panels for A*B, whole-k dots then one
// scaled accumulate for A^T*B, one output column per fork index for the
// sparse drivers. Fork grains follow the library's thresholds, so small
// problems run inline exactly as the library kernels do.

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "dense/blas.hpp"
#include "dense/matrix.hpp"
#include "par/pool.hpp"
#include "sparse/csc.hpp"

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

// Column j of B * A: one axpy of a B column per nonzero of A's column j.
inline void dtc_col(const Matrix& b, const CscMatrix& a, Index j, double* cj) {
  const auto rows = a.col_rows(j);
  const auto vals = a.col_values(j);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    const double w = vals[p];
    const double* bk = b.col(rows[p]);
    for (Index i = 0; i < b.rows(); ++i) cj[i] += w * bk[i];
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

/// C = B * A into a caller-owned buffer (reshaped to m x n), as
/// lra::dense_times_csc_into.
inline void dense_times_csc_into(Matrix& c, const Matrix& b,
                                 const CscMatrix& a) {
  assert(b.cols() == a.rows());
  c.reshape(b.rows(), a.cols());
  detail::zero_fill(c);
  const Index grain =
      a.nnz() * b.rows() < detail::kSparseForkWork ? a.cols() + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, a.cols(), "spmm",
      [&](Index j) { detail::dtc_col(b, a, j, c.col(j)); }, grain);
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

inline Matrix dense_times_csc(const Matrix& b, const CscMatrix& a) {
  Matrix c;
  dense_times_csc_into(c, b, a);
  return c;
}

}  // namespace lra::ref
