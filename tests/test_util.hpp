#pragma once
// Shared helpers for the test suite.

#include <gtest/gtest.h>

#include <cmath>

#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randubv.hpp"
#include "core/termination.hpp"
#include "dense/blas.hpp"
#include "dense/matrix.hpp"
#include "sim/oracle.hpp"
#include "sparse/csc.hpp"

namespace lra::testing {

/// Triple-loop GEMM (one plain dot per element) for tolerance checks of
/// lra::gemm; the bitwise references live in reference_kernels.hpp.
inline Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (Index p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  return c;
}

inline void expect_near_matrix(const Matrix& a, const Matrix& b, double tol,
                               const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(max_abs_diff(a, b), tol) << what;
}

/// ||Q^T Q - I||_max.
inline double orthogonality_defect(const Matrix& q) {
  const Matrix g = matmul_tn(q, q);
  double d = 0.0;
  for (Index i = 0; i < g.rows(); ++i)
    for (Index j = 0; j < g.cols(); ++j)
      d = std::max(d, std::fabs(g(i, j) - (i == j ? 1.0 : 0.0)));
  return d;
}

/// Random dense matrix with controlled seed.
inline Matrix random_matrix(Index m, Index n, std::uint64_t seed) {
  return Matrix::gaussian(m, n, seed);
}

/// Shared honesty assertion: a result that claims kConverged must have a
/// dense exact error within sim::honest_error_bound of its own indicator.
/// Non-converged results are exempt — honesty only constrains what the
/// solver *claims*, and kConverged is the only claim.
inline void ExpectHonestBound(Status status, double exact_error, double tau,
                              double anorm_f, double indicator,
                              const char* what = "") {
  if (status != Status::kConverged) return;
  EXPECT_LT(exact_error, sim::honest_error_bound(tau, anorm_f, indicator))
      << what << " (tau " << tau << ", anorm_f " << anorm_f << ", indicator "
      << indicator << ")";
}

/// Convenience overloads computing the dense exact error per solver.
inline void ExpectHonestBound(const CscMatrix& a, const LuCrtpResult& r,
                              double tau, const char* what = "") {
  if (r.status == Status::kConverged)
    ExpectHonestBound(r.status, lu_crtp_exact_error(a, r), tau, r.anorm_f,
                      r.indicator, what);
}
inline void ExpectHonestBound(const CscMatrix& a, const RandQbResult& r,
                              double tau, const char* what = "") {
  if (r.status == Status::kConverged)
    ExpectHonestBound(r.status, randqb_exact_error(a, r), tau, r.anorm_f,
                      r.indicator, what);
}
inline void ExpectHonestBound(const CscMatrix& a, const RandUbvResult& r,
                              double tau, const char* what = "") {
  if (r.status == Status::kConverged)
    ExpectHonestBound(r.status, randubv_exact_error(a, r), tau, r.anorm_f,
                      r.indicator, what);
}

}  // namespace lra::testing
