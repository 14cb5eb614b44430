// The two kernel contracts against the reference loops. The variant-free
// spmv and workspace-arena tests are in test_kernels_blocked.cpp.
//
// `simd-strict` builds every accumulation from madd() — the reference
// kernels' two-rounding chain, lane-sequential in k — so its output must be
// bitwise identical (memcmp, stricter than operator==, which treats -0.0 ==
// +0.0) to the reference kernels in reference_kernels.hpp for every driver,
// on remainder-heavy shapes straddling the vector width and panel edges, at
// pool widths 1, 2, and 8.
//
// `simd` uses hardware FMA where compiled in: same terms, same order, single
// rounding per term. It is gated against the reference by the documented ULP
// bound
//   |simd - ref| <= 4 * k_eff * eps * (ref on |inputs|)
// where k_eff is the reduction length actually feeding an element, must
// itself be deterministic — same bits at every pool width — and its GEMM
// must match the scalar emulation of its chains (ref::simd_chain_gemm)
// bit for bit.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dense/blas.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "par/pool.hpp"
#include "reference_kernels.hpp"
#include "sparse/ops.hpp"
#include "support/autotune.hpp"
#include "support/kernel_variant.hpp"
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

class VariantGuard {
 public:
  VariantGuard() : saved_(kernel_variant()) {}
  ~VariantGuard() { set_kernel_variant(saved_); }

 private:
  KernelVariant saved_;
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

// One gemm case: gaussian operands (zero-free, so the reference kernels'
// skip never fires), C seeded gaussian so beta != 0 paths are exercised too.
// `reference` runs ref::gemm instead of the active library variant.
Matrix run_gemm(bool reference, Index m, Index n, Index k, Trans ta, Trans tb,
                double alpha, double beta) {
  const Matrix a = ta == Trans::kNo ? Matrix::gaussian(m, k, 11)
                                    : Matrix::gaussian(k, m, 11);
  const Matrix b = tb == Trans::kNo ? Matrix::gaussian(k, n, 12)
                                    : Matrix::gaussian(n, k, 12);
  Matrix c = Matrix::gaussian(m, n, 13);
  if (reference) {
    ref::gemm(c, a, b, alpha, beta, ta, tb);
  } else {
    gemm(c, a, b, alpha, beta, ta, tb);
  }
  return c;
}

struct TransCase {
  Trans ta, tb;
  const char* name;
};
const TransCase kTransCases[] = {{Trans::kNo, Trans::kNo, "nn"},
                                 {Trans::kYes, Trans::kNo, "tn"},
                                 {Trans::kNo, Trans::kYes, "nt"}};

// --- simd-strict: bitwise identical to the reference -----------------------

void check_strict_gemm_shape(Index m, Index n, Index k) {
  for (const TransCase& t : kTransCases) {
    for (const auto& [alpha, beta] :
         std::vector<std::pair<double, double>>{{1.0, 0.0}, {1.25, 0.75}}) {
      const Matrix want = run_gemm(true, m, n, k, t.ta, t.tb, alpha, beta);
      set_kernel_variant(KernelVariant::kSimdStrict);
      for (int w : kWidths) {
        ThreadPool::global().set_num_threads(w);
        const Matrix got = run_gemm(false, m, n, k, t.ta, t.tb, alpha, beta);
        EXPECT_TRUE(bits_equal(want, got))
            << "strict " << t.name << " m=" << m << " n=" << n << " k=" << k
            << " alpha=" << alpha << " beta=" << beta << " width=" << w;
      }
    }
  }
}

TEST(KernelsSimdTest, StrictGemmBitwiseIdenticalOnRemainderShapes) {
  PoolGuard pool;
  VariantGuard variant;
  // Below one vector, straddling the vector width, straddling the micro-tile
  // strip (mr = mv * width, 12 on AVX2; m only), and straddling the mc/kc
  // panel edges.
  const Index small[] = {1, 3, 7, 8, 9};
  for (Index m : {1, 3, 7, 8, 9, 11, 12, 13})
    for (Index n : small)
      for (Index k : small) check_strict_gemm_shape(m, n, k);
  check_strict_gemm_shape(261, 261, 261);
  check_strict_gemm_shape(261, 9, 8);
  check_strict_gemm_shape(8, 261, 3);
  check_strict_gemm_shape(3, 7, 261);
  check_strict_gemm_shape(17, 19, 23);  // coprime to every lane count
}

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

TEST(KernelsSimdTest, StrictGemmBitwiseIdenticalOnTallNarrowShapes) {
  PoolGuard pool;
  VariantGuard variant;
  const NarrowShape s = narrow_shape();
  for (Index n : kNarrowNs) check_strict_gemm_shape(s.m, n, s.k);
}

TEST(KernelsSimdTest, StrictSparseKernelsBitwiseIdenticalAcrossWidths) {
  PoolGuard pool;
  VariantGuard variant;
  const CscMatrix a = sparse_matrix();
  for (Index cols : {3, 4, 5, 8, 9}) {
    const Matrix b = Matrix::gaussian(a.cols(), cols, 21);
    const Matrix bt = Matrix::gaussian(a.rows(), cols, 22);

    const Matrix ref_mm = ref::spmm(a, b);
    const Matrix ref_tm = ref::spmm_t(a, bt);

    set_kernel_variant(KernelVariant::kSimdStrict);
    for (int w : kWidths) {
      ThreadPool::global().set_num_threads(w);
      EXPECT_TRUE(bits_equal(ref_mm, spmm(a, b)))
          << "strict spmm cols=" << cols << " width=" << w;
      EXPECT_TRUE(bits_equal(ref_tm, spmm_t(a, bt)))
          << "strict spmm_t cols=" << cols << " width=" << w;
    }
  }
}

TEST(KernelsSimdTest, StrictSparsePreservesZeroSkipOnExplicitZeros) {
  // The reference sparse kernels skip explicit zero B entries; the strict quads
  // fall back per-lane when a quad holds a zero so they must still match
  // bitwise — including on inputs where the skipped term would be NaN * 0.
  PoolGuard pool;
  VariantGuard variant;
  const CscMatrix a = sparse_matrix(200, 17);
  Matrix b = Matrix::gaussian(a.cols(), 6, 24);
  b(0, 0) = 0.0;
  b(1, 1) = 0.0;
  b(5, 2) = 0.0;
  b(2, 3) = std::numeric_limits<double>::quiet_NaN();
  const Matrix want = ref::spmm(a, b);
  set_kernel_variant(KernelVariant::kSimdStrict);
  for (int w : kWidths) {
    ThreadPool::global().set_num_threads(w);
    EXPECT_TRUE(bits_equal(want, spmm(a, b))) << "width=" << w;
  }
}

// --- simd: ULP-bounded against the reference, deterministic in itself -------

TEST(KernelsSimdTest, SimdGemmWithinUlpBoundOfReference) {
  PoolGuard pool;
  VariantGuard variant;
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
      set_kernel_variant(KernelVariant::kSimd);
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
// slab (384), a one-strip m (column split) and an n past one B panel.
TEST(KernelsSimdTest, SimdGemmMatchesChainEmulationBitwise) {
  PoolGuard pool;
  VariantGuard variant;
  set_kernel_variant(KernelVariant::kSimd);
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
  for (const Shape& s : shapes) {
    for (const TransCase& t : kTransCases) {
      const Matrix a = t.ta == Trans::kNo ? Matrix::gaussian(s.m, s.k, 11)
                                          : Matrix::gaussian(s.k, s.m, 11);
      const Matrix b = t.tb == Trans::kNo ? Matrix::gaussian(s.k, s.n, 12)
                                          : Matrix::gaussian(s.n, s.k, 12);
      const Matrix c0 = Matrix::gaussian(s.m, s.n, 13);
      std::vector<Matrix> wants;
      for (double alpha : alphas) {
        for (double beta : betas) {
          wants.push_back(c0);
          ref::simd_chain_gemm(wants.back(), a, b, alpha, beta, t.ta, t.tb);
        }
      }
      // Widths outside the (alpha, beta) loop: each resize starts threads,
      // and after some 30,000 thread starts in one process LeakSanitizer
      // reports the live workers' thread-local destructor records as leaks.
      for (int w : kWidths) {
        ThreadPool::global().set_num_threads(w);
        const Matrix* want = wants.data();
        for (double alpha : alphas) {
          for (double beta : betas) {
            Matrix got = c0;
            gemm(got, a, b, alpha, beta, t.ta, t.tb);
            EXPECT_TRUE(bits_equal(*want++, got))
                << "simd " << t.name << " m=" << s.m << " n=" << s.n
                << " k=" << s.k << " alpha=" << alpha << " beta=" << beta
                << " width=" << w;
          }
        }
      }
    }
  }
}

TEST(KernelsSimdTest, SimdSparseKernelsWithinUlpBoundOfReference) {
  PoolGuard pool;
  VariantGuard variant;
  const CscMatrix a = sparse_matrix(400, 9);
  const CscMatrix aa = abs_csc(a);
  const Matrix b = Matrix::gaussian(a.cols(), 8, 21);
  const Matrix bt = Matrix::gaussian(a.rows(), 8, 22);

  const Matrix ref_mm = ref::spmm(a, b);
  const Matrix ref_tm = ref::spmm_t(a, bt);
  const Matrix abs_mm = ref::spmm(aa, abs_matrix(b));
  const Matrix abs_tm = ref::spmm_t(aa, abs_matrix(bt));

  set_kernel_variant(KernelVariant::kSimd);
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
  VariantGuard variant;
  set_kernel_variant(KernelVariant::kSimd);
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
  VariantGuard variant;
  set_kernel_variant(KernelVariant::kSimd);
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
  VariantGuard variant;
  set_kernel_variant(KernelVariant::kSimd);
  const NarrowShape s = narrow_shape();
  for (Index n : kNarrowNs) {
    for (const TransCase& t : kTransCases) {
      ThreadPool::global().set_num_threads(1);
      const Matrix want = run_gemm(false, s.m, n, s.k, t.ta, t.tb, 1.0, 0.0);
      for (int w : kWidths) {
        ThreadPool::global().set_num_threads(w);
        const Matrix got = run_gemm(false, s.m, n, s.k, t.ta, t.tb, 1.0, 0.0);
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
