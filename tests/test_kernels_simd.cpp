// The `simd` kernel contract against the reference loops. The spmv and
// workspace-arena tests are in test_kernels_blocked.cpp.
//
// `simd` uses hardware FMA where compiled in: same terms, same order, single
// rounding per term. It is gated against the reference by the documented ULP
// bound
//   |simd - ref| <= 4 * k_eff * eps * (ref on |inputs|)
// where k_eff is the reduction length actually feeding an element, must
// itself be deterministic — same bits at every pool width — and must match
// the scalar emulation of its chains (ref::simd_chain_gemm,
// ref::simd_chain_spmm, ref::simd_chain_spmm_t) bit for bit (memcmp,
// stricter than operator==, which treats -0.0 == +0.0) on remainder-heavy
// shapes straddling the vector width and every tile edge, at pool widths 1,
// 2 and 8.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dense/blas.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "par/pool.hpp"
#include "reference_kernels.hpp"
#include "sparse/ops.hpp"
#include "support/autotune.hpp"
#include "support/simd.hpp"

namespace lra {
namespace {

class PoolGuard {
 public:
  PoolGuard() : saved_(ThreadPool::global().num_threads()) {}
  ~PoolGuard() { ThreadPool::global().set_num_threads(saved_); }

 private:
  int saved_;
};

const int kWidths[] = {1, 2, 8};

bool bits_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(),
                      static_cast<std::size_t>(x.size()) * sizeof(double)) ==
              0);
}

Matrix abs_matrix(const Matrix& m) {
  Matrix out = m;
  for (Index i = 0; i < out.size(); ++i)
    out.data()[i] = std::fabs(out.data()[i]);
  return out;
}

CscMatrix abs_csc(const CscMatrix& a) {
  CscMatrix out = a;
  for (double& v : out.values()) v = std::fabs(v);
  return out;
}

Index max_col_nnz(const CscMatrix& a) {
  Index mx = 0;
  for (Index j = 0; j < a.cols(); ++j) mx = std::max(mx, a.col_nnz(j));
  return mx;
}

Index max_row_nnz(const CscMatrix& a) {
  std::vector<Index> cnt(static_cast<std::size_t>(a.rows()), 0);
  for (Index r : a.rowind()) ++cnt[static_cast<std::size_t>(r)];
  Index mx = 0;
  for (Index c : cnt) mx = std::max(mx, c);
  return mx;
}

// |got - ref| <= 4 * keff * eps * absref, elementwise. absref is the same
// kernel run on |inputs| — an upper bound on the magnitude of every partial
// sum, so the bound covers cancellation-heavy elements too.
void expect_ulp_close(const Matrix& ref, const Matrix& absref,
                      const Matrix& got, Index keff, const char* what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  const double tol = 4.0 * static_cast<double>(keff) * DBL_EPSILON;
  for (Index i = 0; i < ref.size(); ++i) {
    const double d = std::fabs(got.data()[i] - ref.data()[i]);
    EXPECT_TRUE(d <= tol * absref.data()[i])
        << what << " element " << i << ": ref=" << ref.data()[i]
        << " got=" << got.data()[i] << " |d|=" << d
        << " bound=" << tol * absref.data()[i];
  }
}

CscMatrix sparse_matrix(Index n = 600, std::uint64_t seed = 7) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.93),
                      {.left_passes = 3, .right_passes = 3, .bandwidth = 0,
                       .seed = seed});
}

// One gemm case on gaussian operands: op(A) * op(B).
Matrix run_gemm(Index m, Index n, Index k, Trans ta, Trans tb) {
  const Matrix a = ta == Trans::kNo ? Matrix::gaussian(m, k, 11)
                                    : Matrix::gaussian(k, m, 11);
  const Matrix b = tb == Trans::kNo ? Matrix::gaussian(k, n, 12)
                                    : Matrix::gaussian(n, k, 12);
  Matrix c(m, n);
  gemm(c, a, b, 1.0, 0.0, ta, tb);
  return c;
}

struct TransCase {
  Trans ta, tb;
  const char* name;
};
const TransCase kTransCases[] = {{Trans::kNo, Trans::kNo, "nn"},
                                 {Trans::kYes, Trans::kNo, "tn"},
                                 {Trans::kNo, Trans::kYes, "nt"}};

// Tall narrow products (n <= 256, the randomized solvers' m x K times K x k
// blocks) split over runs of row strips instead of columns, and tn walks A's
// columns in its outer loop. The shapes span several mc panels with a
// partial last one, two kc slabs, and for tn an A column count that is not a
// multiple of 4, at column counts below and around one 32-column block.
const Index kNarrowNs[] = {1, 3, 32, 33};

struct NarrowShape {
  Index m, k;
};

NarrowShape narrow_shape() {
  const KernelConfig& cfg = kernel_config();
  return {.m = 4 * cfg.mc + 13, .k = cfg.kc + 9};
}

// --- simd: ULP-bounded against the reference, deterministic in itself -------

TEST(KernelsSimdTest, SimdGemmWithinUlpBoundOfReference) {
  PoolGuard pool;
  const Index shapes[][3] = {{7, 9, 8}, {33, 17, 64}, {64, 64, 64},
                             {261, 33, 129}};
  for (const auto& s : shapes) {
    const Index m = s[0], n = s[1], k = s[2];
    for (const TransCase& t : kTransCases) {
      const Matrix a = t.ta == Trans::kNo ? Matrix::gaussian(m, k, 11)
                                          : Matrix::gaussian(k, m, 11);
      const Matrix b = t.tb == Trans::kNo ? Matrix::gaussian(k, n, 12)
                                          : Matrix::gaussian(n, k, 12);
      Matrix want(m, n);
      ref::gemm(want, a, b, 1.0, 0.0, t.ta, t.tb);
      Matrix absref(m, n);
      ref::gemm(absref, abs_matrix(a), abs_matrix(b), 1.0, 0.0, t.ta, t.tb);
      ThreadPool::global().set_num_threads(2);
      Matrix got(m, n);
      gemm(got, a, b, 1.0, 0.0, t.ta, t.tb);
      expect_ulp_close(want, absref, got, k, t.name);
    }
  }
}

// The exact chains: `simd` gemm against the scalar emulation of its chains
// (ref::simd_chain_gemm), memcmp. The shapes straddle every tile edge: m mod
// 12 (the AVX2 strip of mv = 3 vectors) from 1 to 11 across the mc = 120
// panel edge, n with n mod 4 and n mod 3 both nonzero (the nn/nt micro-tile
// and the tn tile widths), k on both sides of the tn slab (256) and the kc
// slab (384), a one-strip m (column split) and an n past one B panel; every
// small m x n x k below one vector, straddling the vector width and the
// micro-tile strip; 261 on each side of a panel; 17 x 19 x 23, coprime to
// every lane count; and the tall narrow shapes.
TEST(KernelsSimdTest, SimdGemmMatchesChainEmulationBitwise) {
  PoolGuard pool;
  const Index ks[] = {3, 255, 256, 257, 383, 384, 385, 769};
  const double alphas[] = {0.75, -1.0};
  const double betas[] = {0.0, 1.0, 0.5};
  struct Shape {
    Index m, n, k;
  };
  std::vector<Shape> shapes;
  for (Index r = 1; r <= 11; ++r)
    for (Index k : ks) shapes.push_back({120 + r, r % 2 ? 7 : 14, k});
  for (Index k : {Index{3}, Index{385}}) {
    shapes.push_back({5, 7, k});
    shapes.push_back({13, 263, k});
  }
  const Index small[] = {1, 3, 7, 8, 9};
  for (Index m : {1, 3, 7, 8, 9, 11, 12, 13})
    for (Index n : small)
      for (Index k : small) shapes.push_back({m, n, k});
  shapes.push_back({261, 261, 261});
  shapes.push_back({261, 9, 8});
  shapes.push_back({8, 261, 3});
  shapes.push_back({3, 7, 261});
  shapes.push_back({17, 19, 23});
  const NarrowShape narrow = narrow_shape();
  for (Index n : kNarrowNs) shapes.push_back({narrow.m, n, narrow.k});

  struct Case {
    Shape s;
    const TransCase* t;
    Matrix a, b, c0;
    std::vector<Matrix> wants;  // per (alpha, beta), in loop order
  };
  std::vector<Case> cases;
  for (const Shape& s : shapes) {
    for (const TransCase& t : kTransCases) {
      Case c{s, &t,
             t.ta == Trans::kNo ? Matrix::gaussian(s.m, s.k, 11)
                                : Matrix::gaussian(s.k, s.m, 11),
             t.tb == Trans::kNo ? Matrix::gaussian(s.k, s.n, 12)
                                : Matrix::gaussian(s.n, s.k, 12),
             Matrix::gaussian(s.m, s.n, 13), {}};
      for (double alpha : alphas) {
        for (double beta : betas) {
          c.wants.push_back(c.c0);
          ref::simd_chain_gemm(c.wants.back(), c.a, c.b, alpha, beta, t.ta,
                               t.tb);
        }
      }
      cases.push_back(std::move(c));
    }
  }
  // The width loop is outermost: every resize restarts the pool's threads,
  // and after some 30,000 thread starts in one process LeakSanitizer reports
  // the live workers' thread-local destructor records as leaks.
  for (int w : kWidths) {
    ThreadPool::global().set_num_threads(w);
    for (const Case& c : cases) {
      const Matrix* want = c.wants.data();
      for (double alpha : alphas) {
        for (double beta : betas) {
          Matrix got = c.c0;
          gemm(got, c.a, c.b, alpha, beta, c.t->ta, c.t->tb);
          EXPECT_TRUE(bits_equal(*want++, got))
              << "simd " << c.t->name << " m=" << c.s.m << " n=" << c.s.n
              << " k=" << c.s.k << " alpha=" << alpha << " beta=" << beta
              << " width=" << w;
        }
      }
    }
  }
}

// The exact sparse chains: spmm and spmm_t against ref::simd_chain_spmm /
// simd_chain_spmm_t, memcmp, at column counts below, at and around the
// 4-column quad (leftover columns take the per-column loops), on a B with
// explicit zeros (the quads multiply through them, the leftover loops skip
// them) and a NaN.
TEST(KernelsSimdTest, SimdSparseKernelsMatchChainEmulationBitwise) {
  PoolGuard pool;
  const CscMatrix a = sparse_matrix();
  struct Case {
    Index cols;
    Matrix b, bt, want_mm, want_tm;
  };
  std::vector<Case> cases;
  for (Index cols : {3, 4, 5, 8, 9}) {
    Case c{cols, Matrix::gaussian(a.cols(), cols, 21),
           Matrix::gaussian(a.rows(), cols, 22), {}, {}};
    for (Matrix* b : {&c.b, &c.bt}) {
      (*b)(0, 0) = 0.0;
      (*b)(1, 1) = 0.0;
      (*b)(5, 2) = 0.0;
      (*b)(2, cols - 1) = std::numeric_limits<double>::quiet_NaN();
    }
    c.want_mm = ref::simd_chain_spmm(a, c.b);
    c.want_tm = ref::simd_chain_spmm_t(a, c.bt);
    cases.push_back(std::move(c));
  }
  for (int w : kWidths) {
    ThreadPool::global().set_num_threads(w);
    for (const Case& c : cases) {
      EXPECT_TRUE(bits_equal(c.want_mm, spmm(a, c.b)))
          << "spmm cols=" << c.cols << " width=" << w;
      EXPECT_TRUE(bits_equal(c.want_tm, spmm_t(a, c.bt)))
          << "spmm_t cols=" << c.cols << " width=" << w;
    }
  }
}

TEST(KernelsSimdTest, SimdSparseKernelsWithinUlpBoundOfReference) {
  PoolGuard pool;
  const CscMatrix a = sparse_matrix(400, 9);
  const CscMatrix aa = abs_csc(a);
  const Matrix b = Matrix::gaussian(a.cols(), 8, 21);
  const Matrix bt = Matrix::gaussian(a.rows(), 8, 22);

  const Matrix ref_mm = ref::spmm(a, b);
  const Matrix ref_tm = ref::spmm_t(a, bt);
  const Matrix abs_mm = ref::spmm(aa, abs_matrix(b));
  const Matrix abs_tm = ref::spmm_t(aa, abs_matrix(bt));

  ThreadPool::global().set_num_threads(2);
  // Reduction lengths per element: spmm sums over a row's nonzeros, spmm_t
  // over a column's.
  expect_ulp_close(ref_mm, abs_mm, spmm(a, b), max_row_nnz(a), "spmm");
  expect_ulp_close(ref_tm, abs_tm, spmm_t(a, bt), max_col_nnz(a), "spmm_t");
}

TEST(KernelsSimdTest, SimdGemmPropagatesNanAndInf) {
  // The fmadd chain must propagate non-finite inputs exactly like IEEE
  // arithmetic: a NaN in row i of A poisons row i of C (dense B), an Inf
  // produces Inf/NaN, and no other row is disturbed.
  PoolGuard pool;
  const Index m = 13, n = 9, k = 21;
  Matrix a = Matrix::gaussian(m, k, 31);
  const Matrix b = Matrix::gaussian(k, n, 32);
  a(3, 5) = std::numeric_limits<double>::quiet_NaN();
  a(7, 0) = std::numeric_limits<double>::infinity();
  Matrix c(m, n);
  gemm(c, a, b);
  for (Index j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isnan(c(3, j))) << "NaN row, col " << j;
    EXPECT_FALSE(std::isfinite(c(7, j))) << "Inf row, col " << j;
    EXPECT_TRUE(std::isfinite(c(0, j))) << "clean row, col " << j;
  }
}

TEST(KernelsSimdTest, SimdBitsInvariantAcrossWidths) {
  PoolGuard pool;
  const Index m = 67, n = 33, k = 129;
  const Matrix a = Matrix::gaussian(m, k, 41);
  const Matrix b = Matrix::gaussian(k, n, 42);

  ThreadPool::global().set_num_threads(1);
  Matrix c_ref(m, n);
  gemm(c_ref, a, b);

  // Pool width must not change bits (edge tiles run the interior tiles'
  // vector chain on a padded copy, so work slicing is invisible).
  for (int w : kWidths) {
    ThreadPool::global().set_num_threads(w);
    Matrix c(m, n);
    gemm(c, a, b);
    EXPECT_TRUE(bits_equal(c_ref, c)) << "gemm width=" << w;
  }
}

TEST(KernelsSimdTest, SimdBitsInvariantAcrossWidthsOnTallNarrowShapes) {
  PoolGuard pool;
  const NarrowShape s = narrow_shape();
  for (Index n : kNarrowNs) {
    for (const TransCase& t : kTransCases) {
      ThreadPool::global().set_num_threads(1);
      const Matrix want = run_gemm(s.m, n, s.k, t.ta, t.tb);
      for (int w : kWidths) {
        ThreadPool::global().set_num_threads(w);
        const Matrix got = run_gemm(s.m, n, s.k, t.ta, t.tb);
        EXPECT_TRUE(bits_equal(want, got))
            << "simd " << t.name << " m=" << s.m << " n=" << n << " k=" << s.k
            << " width=" << w;
      }
      // And the split stays inside the documented ULP bound.
      const Matrix a = t.ta == Trans::kNo ? Matrix::gaussian(s.m, s.k, 11)
                                          : Matrix::gaussian(s.k, s.m, 11);
      const Matrix b = t.tb == Trans::kNo ? Matrix::gaussian(s.k, n, 12)
                                          : Matrix::gaussian(n, s.k, 12);
      Matrix ref(s.m, n), absref(s.m, n);
      ref::gemm(ref, a, b, 1.0, 0.0, t.ta, t.tb);
      ref::gemm(absref, abs_matrix(a), abs_matrix(b), 1.0, 0.0, t.ta, t.tb);
      expect_ulp_close(ref, absref, want, s.k, t.name);
    }
  }
}

TEST(KernelsSimdTest, RuntimeIsaQueriesAreConsistent) {
  const std::string isa = simd::simd_isa_name();
  const int width = simd::simd_width();
  if (isa == "avx2") {
    EXPECT_EQ(width, 4);
    EXPECT_TRUE(simd::simd_has_fma());
  } else if (isa == "sse2") {
    EXPECT_EQ(width, 2);
    EXPECT_FALSE(simd::simd_has_fma());
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(width, 1);
    EXPECT_FALSE(simd::simd_has_fma());
  }
  EXPECT_NO_THROW(simd::verify_simd_isa());  // we are running on this CPU
  EXPECT_STRNE(simd::cpu_model_name(), "");
}

}  // namespace
}  // namespace lra
