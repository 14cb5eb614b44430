// The two kernel contracts against the reference loops, and the autotune
// cache. The variant-free spmv and workspace-arena tests are in
// test_kernels_blocked.cpp.
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
// where k_eff is the reduction length actually feeding an element, and must
// itself be deterministic — same bits at every pool width and under every
// valid tile geometry (the autotune config is a pure perf knob).
//
// The autotune cache tests pin the resolution contract: round-trip through
// save/load preserves the geometry, corrupted / wrong-schema / wrong-ISA
// files are rejected (loader returns false, config untouched), and only a
// cache $LRA_AUTOTUNE_CACHE names is ever read.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
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

// Restores the default autotune resolution on exit so config experiments
// cannot leak into other tests.
class ConfigGuard {
 public:
  ~ConfigGuard() { reset_kernel_config(); }
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
  // strip (mr = mv * width, up to 16), and straddling the mc/kc panel edges.
  const Index small[] = {1, 3, 7, 8, 9};
  for (Index m : small)
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
  return {.m = 4 * cfg.gemm.mc + 13, .k = cfg.gemm.kc + 9};
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
    const Matrix left = Matrix::gaussian(cols, a.rows(), 23);

    const Matrix ref_mm = ref::spmm(a, b);
    const Matrix ref_tm = ref::spmm_t(a, bt);
    const Matrix ref_dc = ref::dense_times_csc(left, a);

    set_kernel_variant(KernelVariant::kSimdStrict);
    for (int w : kWidths) {
      ThreadPool::global().set_num_threads(w);
      EXPECT_TRUE(bits_equal(ref_mm, spmm(a, b)))
          << "strict spmm cols=" << cols << " width=" << w;
      EXPECT_TRUE(bits_equal(ref_tm, spmm_t(a, bt)))
          << "strict spmm_t cols=" << cols << " width=" << w;
      EXPECT_TRUE(bits_equal(ref_dc, dense_times_csc(left, a)))
          << "strict dense_times_csc cols=" << cols << " width=" << w;
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

TEST(KernelsSimdTest, SimdSparseKernelsWithinUlpBoundOfReference) {
  PoolGuard pool;
  VariantGuard variant;
  const CscMatrix a = sparse_matrix(400, 9);
  const CscMatrix aa = abs_csc(a);
  const Matrix b = Matrix::gaussian(a.cols(), 8, 21);
  const Matrix bt = Matrix::gaussian(a.rows(), 8, 22);
  const Matrix left = Matrix::gaussian(8, a.rows(), 23);

  const Matrix ref_mm = ref::spmm(a, b);
  const Matrix ref_tm = ref::spmm_t(a, bt);
  const Matrix ref_dc = ref::dense_times_csc(left, a);
  const Matrix abs_mm = ref::spmm(aa, abs_matrix(b));
  const Matrix abs_tm = ref::spmm_t(aa, abs_matrix(bt));
  const Matrix abs_dc = ref::dense_times_csc(abs_matrix(left), aa);

  set_kernel_variant(KernelVariant::kSimd);
  ThreadPool::global().set_num_threads(2);
  // Reduction lengths per element: spmm sums over a row's nonzeros, spmm_t
  // and dense_times_csc over a column's.
  expect_ulp_close(ref_mm, abs_mm, spmm(a, b), max_row_nnz(a), "spmm");
  expect_ulp_close(ref_tm, abs_tm, spmm_t(a, bt), max_col_nnz(a), "spmm_t");
  expect_ulp_close(ref_dc, abs_dc, dense_times_csc(left, a), max_col_nnz(a),
                   "dense_times_csc");
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

TEST(KernelsSimdTest, SimdBitsInvariantAcrossWidthsAndTileConfigs) {
  PoolGuard pool;
  VariantGuard variant;
  ConfigGuard config;
  set_kernel_variant(KernelVariant::kSimd);
  const Index m = 67, n = 33, k = 129;
  const Matrix a = Matrix::gaussian(m, k, 41);
  const Matrix b = Matrix::gaussian(k, n, 42);
  const CscMatrix sa = sparse_matrix(300, 43);
  const Matrix left = Matrix::gaussian(16, sa.rows(), 44);

  ThreadPool::global().set_num_threads(1);
  Matrix c_ref(m, n);
  gemm(c_ref, a, b);
  const Matrix d_ref = dense_times_csc(left, sa);

  // Pool width must not change bits (edge tiles use the same scalar fma
  // chain as interior vectors, so work slicing is invisible).
  for (int w : kWidths) {
    ThreadPool::global().set_num_threads(w);
    Matrix c(m, n);
    gemm(c, a, b);
    EXPECT_TRUE(bits_equal(c_ref, c)) << "gemm width=" << w;
    EXPECT_TRUE(bits_equal(d_ref, dense_times_csc(left, sa)))
        << "dtc width=" << w;
  }

  // Nor must the tile geometry: every valid config sums the same terms in
  // the same per-element order.
  const int width = simd::simd_width();
  struct Cand {
    int mc, kc, mv, nr, ib;
  };
  const Cand cands[] = {{64, 128, 1, 4, 2 * width},
                        {128, 64, 2, 6, 4 * width},
                        {256, 384, 4, 4, 8 * width},
                        {32, 8, 1, 8, 1}};
  for (const Cand& cd : cands) {
    KernelConfig cfg = default_kernel_config();
    cfg.gemm.mc = cd.mc;
    cfg.gemm.kc = cd.kc;
    cfg.gemm.mv = cd.mv;
    cfg.gemm.nr = cd.nr;
    cfg.dtc.ib = cd.ib;
    std::string err;
    ASSERT_TRUE(set_kernel_config(cfg, &err)) << err;
    Matrix c(m, n);
    gemm(c, a, b);
    EXPECT_TRUE(bits_equal(c_ref, c))
        << "gemm mc=" << cd.mc << " kc=" << cd.kc << " mv=" << cd.mv
        << " nr=" << cd.nr;
    EXPECT_TRUE(bits_equal(d_ref, dense_times_csc(left, sa)))
        << "dtc ib=" << cd.ib;
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

TEST(KernelsSimdTest, DtcPanelRemainders) {
  // Dense-operand row counts around every panel boundary the packed kernel
  // can hit: below one vector, straddling vectors, straddling the default
  // panel height (8 * width, up to 32) and beyond it.
  PoolGuard pool;
  VariantGuard variant;
  const CscMatrix a = sparse_matrix(300, 51);
  const CscMatrix aa = abs_csc(a);
  const Index keff = max_col_nnz(a);
  for (Index m : {1, 5, 8, 31, 32, 33, 67}) {
    const Matrix left = Matrix::gaussian(m, a.rows(), 52);
    const Matrix want = ref::dense_times_csc(left, a);
    const Matrix absref = ref::dense_times_csc(abs_matrix(left), aa);
    set_kernel_variant(KernelVariant::kSimdStrict);
    EXPECT_TRUE(bits_equal(want, dense_times_csc(left, a)))
        << "strict dtc m=" << m;
    set_kernel_variant(KernelVariant::kSimd);
    expect_ulp_close(want, absref, dense_times_csc(left, a), keff, "dtc");
  }
}

// --- autotune cache --------------------------------------------------------

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(KernelsSimdTest, AutotuneCacheRoundTrips) {
  ConfigGuard config;
  const std::string path = temp_path("lra_autotune_rt.json");
  KernelConfig cfg = default_kernel_config();
  cfg.gemm.mc = 64;
  cfg.gemm.kc = 128;
  cfg.gemm.mv = 1;
  cfg.gemm.nr = 8;
  cfg.dtc.ib = 2 * simd::simd_width();
  std::string err;
  ASSERT_TRUE(save_kernel_config_file(path, cfg, &err)) << err;
  KernelConfig back;
  ASSERT_TRUE(load_kernel_config_file(path, &back, &err)) << err;
  EXPECT_EQ(back.gemm.mc, cfg.gemm.mc);
  EXPECT_EQ(back.gemm.kc, cfg.gemm.kc);
  EXPECT_EQ(back.gemm.mv, cfg.gemm.mv);
  EXPECT_EQ(back.gemm.nr, cfg.gemm.nr);
  EXPECT_EQ(back.dtc.ib, cfg.dtc.ib);
  EXPECT_EQ(back.source, path);  // loaded configs carry their origin
  std::remove(path.c_str());
}

TEST(KernelsSimdTest, AutotuneCacheInWorkingDirectoryIsNotRead) {
  // `lra_cli tune` writes lra_autotune.json into the working directory by
  // default; without $LRA_AUTOTUNE_CACHE naming it, a valid cache there must
  // not change the geometry of a later run.
  ConfigGuard config;
  const char* env = std::getenv(kAutotuneEnvVar);
  const std::string saved_env = env != nullptr ? env : "";
  unsetenv(kAutotuneEnvVar);
  const std::filesystem::path saved_cwd = std::filesystem::current_path();
  const std::filesystem::path dir = temp_path("lra_autotune_cwd");
  std::filesystem::create_directories(dir);
  std::filesystem::current_path(dir);

  KernelConfig cfg = default_kernel_config();
  cfg.gemm.mc = 64;
  cfg.gemm.kc = 128;
  cfg.gemm.mv = 1;
  cfg.gemm.nr = 8;
  std::string err;
  ASSERT_TRUE(save_kernel_config_file(kAutotuneDefaultFile, cfg, &err)) << err;
  KernelConfig back;
  ASSERT_TRUE(load_kernel_config_file(kAutotuneDefaultFile, &back, &err))
      << err;  // a cache the environment could name
  reset_kernel_config();
  const KernelConfig active = kernel_config();

  std::filesystem::current_path(saved_cwd);
  std::filesystem::remove_all(dir);
  if (env != nullptr) setenv(kAutotuneEnvVar, saved_env.c_str(), 1);

  const KernelConfig defaults = default_kernel_config();
  EXPECT_EQ(active.source, "defaults");
  EXPECT_EQ(active.gemm.mc, defaults.gemm.mc);
  EXPECT_EQ(active.gemm.kc, defaults.gemm.kc);
  EXPECT_EQ(active.gemm.mv, defaults.gemm.mv);
  EXPECT_EQ(active.gemm.nr, defaults.gemm.nr);
}

TEST(KernelsSimdTest, AutotuneCacheRejectsCorruptAndForeignFiles) {
  ConfigGuard config;
  std::string err;
  KernelConfig out;

  const std::string garbled = temp_path("lra_autotune_bad.json");
  std::ofstream(garbled) << "{\"schema\": \"lra_autotune/v1\", \"gemm\": {";
  EXPECT_FALSE(load_kernel_config_file(garbled, &out, &err));
  EXPECT_FALSE(err.empty());

  const std::string wrong_schema = temp_path("lra_autotune_schema.json");
  std::ofstream(wrong_schema)
      << "{\"schema\": \"lra_autotune/v999\", \"isa\": \""
      << simd::simd_isa_name()
      << "\", \"gemm\": {\"mc\": 128, \"kc\": 256, \"mv\": 2, \"nr\": 4}, "
         "\"dtc\": {\"ib\": 8}}";
  EXPECT_FALSE(load_kernel_config_file(wrong_schema, &out, &err));

  // A cache tuned on another ISA must be rejected, not silently applied.
  const std::string wrong_isa = temp_path("lra_autotune_isa.json");
  std::ofstream(wrong_isa)
      << "{\"schema\": \"lra_autotune/v1\", \"isa\": \"not-this-isa\", "
         "\"gemm\": {\"mc\": 128, \"kc\": 256, \"mv\": 2, \"nr\": 4}, "
         "\"dtc\": {\"ib\": 8}}";
  EXPECT_FALSE(load_kernel_config_file(wrong_isa, &out, &err));

  // Geometry outside the validated ranges fails validation on load.
  const std::string bad_geom = temp_path("lra_autotune_geom.json");
  std::ofstream(bad_geom)
      << "{\"schema\": \"lra_autotune/v1\", \"isa\": \""
      << simd::simd_isa_name()
      << "\", \"gemm\": {\"mc\": 128, \"kc\": 256, \"mv\": 9, \"nr\": 4}, "
         "\"dtc\": {\"ib\": 8}}";
  EXPECT_FALSE(load_kernel_config_file(bad_geom, &out, &err));

  const std::string missing = temp_path("lra_autotune_missing.json");
  EXPECT_FALSE(load_kernel_config_file(missing, &out, &err));

  for (const std::string& p : {garbled, wrong_schema, wrong_isa, bad_geom})
    std::remove(p.c_str());
}

TEST(KernelsSimdTest, AutotuneCacheRejectsDuplicateKeysAndFieldsBeyondInt) {
  ConfigGuard config;
  std::string err;
  KernelConfig out;
  const std::string path = temp_path("lra_autotune_strict.json");
  const auto write = [&](const std::string& gemm) {
    std::ofstream(path) << "{\"schema\": \"lra_autotune/v1\", \"isa\": \""
                        << simd::simd_isa_name() << "\", \"gemm\": {" << gemm
                        << "}, \"dtc\": {\"ib\": 8}}";
  };
  write("\"mc\": 128, \"kc\": 256, \"mv\": 2, \"nr\": 4");
  EXPECT_TRUE(load_kernel_config_file(path, &out, &err)) << err;
  // 2^32 + 128 would wrap to a valid 128 through a cast to int.
  write("\"mc\": 4294967424, \"kc\": 256, \"mv\": 2, \"nr\": 4");
  EXPECT_FALSE(load_kernel_config_file(path, &out, &err));
  EXPECT_NE(err.find("gemm.mc"), std::string::npos) << err;
  write("\"mc\": 128, \"kc\": 256, \"kc\": 128, \"mv\": 2, \"nr\": 4");
  EXPECT_FALSE(load_kernel_config_file(path, &out, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  write("\"mc\": 128.5, \"kc\": 256, \"mv\": 2, \"nr\": 4");
  EXPECT_FALSE(load_kernel_config_file(path, &out, &err));
  std::remove(path.c_str());
}

TEST(KernelsSimdTest, SetKernelConfigRejectsInvalidGeometry) {
  ConfigGuard config;
  const KernelConfig before = kernel_config();
  KernelConfig bad = default_kernel_config();
  bad.gemm.mv = 0;
  std::string err;
  EXPECT_FALSE(set_kernel_config(bad, &err));
  EXPECT_FALSE(err.empty());
  bad = default_kernel_config();
  bad.gemm.mc = 0;
  EXPECT_FALSE(set_kernel_config(bad, &err));
  bad = default_kernel_config();
  bad.gemm.mv = 4;
  bad.gemm.nr = 8;  // mv * nr over the register-pressure cap
  EXPECT_FALSE(set_kernel_config(bad, &err));
  // Rejection leaves the active config untouched.
  EXPECT_EQ(kernel_config().gemm.mc, before.gemm.mc);
  EXPECT_EQ(kernel_config().gemm.nr, before.gemm.nr);
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
