// Kernel guarantees outside the GEMM/SpMM contract: spmv and the workspace
// arenas.
//
// spmv / spmv_t run a fixed chunk grid with a serial fold, so their output is
// the same at every pool width and matches the reference SpMM on a single
// column.
//
// The arena tests pin down the workspace contract the solver hot loops rely
// on: nested Scope allocations never alias, freed scratch is reused, and a
// steady-state RandQB_EI iteration stops growing the arenas (the
// zero-allocation witness: high-water mark and block count stable across
// repeat solves while the allocation count keeps advancing).
//
// The file name dates from when it also compared the former `blocked` kernel
// variant against the naive one; the `simd` kernel contract is checked
// against the reference kernels in test_kernels_simd.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "core/randqb_ei.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "par/pool.hpp"
#include "reference_kernels.hpp"
#include "sparse/ops.hpp"
#include "support/workspace.hpp"

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

CscMatrix sparse_matrix(Index n = 600, std::uint64_t seed = 7) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.93),
                      {.left_passes = 3, .right_passes = 3, .bandwidth = 0,
                       .seed = seed});
}

TEST(KernelsBlockedTest, SpmvMatchesReferenceAndIsWidthInvariant) {
  PoolGuard pool;
  // Large enough that spmv's parallel chunk path engages (nnz above the fork
  // threshold), plus a small matrix that takes the serial seed path.
  for (Index n : {Index{300}, Index{9000}}) {
    const CscMatrix a = sparse_matrix(n, 31);
    const Matrix x = Matrix::gaussian(n, 1, 32);
    const Matrix xr = Matrix::gaussian(n, 1, 33);

    const Matrix y_ref = ref::spmm(a, x);
    const Matrix yt_ref = ref::spmm_t(a, xr);

    std::vector<std::vector<double>> ys, yts;
    for (int w : kWidths) {
      ThreadPool::global().set_num_threads(w);
      std::vector<double> y(n), yt(n);
      spmv(a, x.data(), y.data());
      spmv_t(a, xr.data(), yt.data());
      ys.push_back(std::move(y));
      yts.push_back(std::move(yt));
    }
    for (std::size_t i = 1; i < ys.size(); ++i) {
      EXPECT_EQ(ys[i], ys[0]) << "spmv differs at width " << kWidths[i];
      EXPECT_EQ(yts[i], yts[0]) << "spmv_t differs at width " << kWidths[i];
    }
    const double scale = a.frobenius_norm();
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(ys[0][static_cast<std::size_t>(i)], y_ref(i, 0),
                  1e-12 * scale);
      EXPECT_NEAR(yts[0][static_cast<std::size_t>(i)], yt_ref(i, 0),
                  1e-12 * scale);
    }
  }
}

TEST(KernelsBlockedTest, ArenaScopesNeverAliasAndReuseFreedScratch) {
  double* outer_lo = nullptr;
  double* inner_first = nullptr;
  {
    Workspace::Scope outer;
    outer_lo = outer.doubles(1000);
    double* outer_hi = outer_lo + 1000;
    {
      Workspace::Scope inner;
      // Live outer buffer must not be handed out again by a nested scope.
      for (int i = 0; i < 8; ++i) {
        double* p = inner.doubles(200);
        if (i == 0) inner_first = p;
        EXPECT_TRUE(p + 200 <= outer_lo || p >= outer_hi)
            << "nested allocation aliases a live buffer";
        p[0] = 1.0;
        p[199] = 2.0;  // touch both ends
      }
    }
    {
      Workspace::Scope inner2;
      // inner's scratch was released on scope exit; the bump mark rewound, so
      // the same bytes come back.
      EXPECT_EQ(inner2.doubles(200), inner_first);
    }
  }
  {
    Workspace::Scope again;
    EXPECT_EQ(again.doubles(1000), outer_lo) << "freed scratch not reused";
  }
}

TEST(KernelsBlockedTest, SolverSteadyStateStopsGrowingArenas) {
  PoolGuard pool;
  ThreadPool::global().set_num_threads(4);  // fresh workers => fresh arenas
  const CscMatrix a = sparse_matrix();
  RandQbOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-4;
  opts.max_rank = 128;

  randqb_ei(a, opts);  // warm-up: grows every arena to working-set size
  const WorkspaceStats s1 = Workspace::aggregate();
  const RandQbResult r2 = randqb_ei(a, opts);
  const WorkspaceStats s2 = Workspace::aggregate();
  const RandQbResult r3 = randqb_ei(a, opts);
  const WorkspaceStats s3 = Workspace::aggregate();

  EXPECT_EQ(r2.q, r3.q);  // sanity: same work both runs
  EXPECT_GT(s1.high_water, 0u);
  EXPECT_EQ(s2.high_water, s1.high_water) << "warm run raised the high-water";
  EXPECT_EQ(s3.high_water, s2.high_water);
  EXPECT_EQ(s2.grows, s1.grows) << "warm run reserved new arena blocks";
  EXPECT_EQ(s3.grows, s2.grows);
  EXPECT_GT(s3.allocs, s2.allocs);  // scopes kept serving from warm blocks
}

}  // namespace
}  // namespace lra
