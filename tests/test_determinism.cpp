// Bitwise determinism of the solvers across pool thread counts: RandQB_EI,
// RandUBV and LU_CRTP must produce *identical* factors (not just close) with
// 1, 2, and 8 pool workers on the `simd` kernels every solve runs, and the
// distributed engines must produce identical telemetry structure
// (per-iteration indicator/rank series) because simulated ranks never fork
// onto the pool.

#include <gtest/gtest.h>

#include <vector>

#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "par/pool.hpp"

namespace lra {
namespace {

class PoolGuard {
 public:
  PoolGuard() : saved_(ThreadPool::global().num_threads()) {}
  ~PoolGuard() { ThreadPool::global().set_num_threads(saved_); }

 private:
  int saved_;
};

// Large enough that the SpMM/GEMM/Schur regions actually fork (they run
// inline below their work thresholds, which would make the test vacuous).
CscMatrix test_matrix(Index n = 600, std::uint64_t seed = 7) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.93),
                      {.left_passes = 3, .right_passes = 3, .bandwidth = 0,
                       .seed = seed});
}

void expect_same_csc(const CscMatrix& a, const CscMatrix& b,
                     const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(a.colptr(), b.colptr()) << what;
  EXPECT_EQ(a.rowind(), b.rowind()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;  // bitwise: operator== on double
}

const int kThreadCounts[] = {1, 2, 8};

TEST(DeterminismTest, RandQbEiFactorsIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const CscMatrix a = test_matrix();
  RandQbOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-4;
  opts.max_rank = 128;

  std::vector<RandQbResult> runs;
  for (int nt : kThreadCounts) {
    ThreadPool::global().set_num_threads(nt);
    runs.push_back(randqb_ei(a, opts));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].rank, runs[0].rank);
    EXPECT_EQ(runs[i].iterations, runs[0].iterations);
    EXPECT_EQ(runs[i].indicator, runs[0].indicator);  // bitwise
    EXPECT_EQ(runs[i].q, runs[0].q) << "Q differs at nt=" << kThreadCounts[i];
    EXPECT_EQ(runs[i].b, runs[0].b) << "B differs at nt=" << kThreadCounts[i];
  }
}

TEST(DeterminismTest, LuCrtpFactorsIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const CscMatrix a = test_matrix();
  LuCrtpOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-4;
  opts.max_rank = 128;

  std::vector<LuCrtpResult> runs;
  for (int nt : kThreadCounts) {
    ThreadPool::global().set_num_threads(nt);
    ThreadPool::global().reset_stats();
    runs.push_back(lu_crtp(a, opts));
  }
  // The last run (8 workers) must have forked the QR_TP tournament trees,
  // or the comparison below would not cover them.
  const auto stats = ThreadPool::global().kernel_stats();
  ASSERT_TRUE(stats.count("qr_tp"));
  EXPECT_GT(stats.at("qr_tp").calls, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].rank, runs[0].rank);
    EXPECT_EQ(runs[i].iterations, runs[0].iterations);
    EXPECT_EQ(runs[i].indicator, runs[0].indicator);  // bitwise
    EXPECT_EQ(runs[i].row_perm, runs[0].row_perm);
    EXPECT_EQ(runs[i].col_perm, runs[0].col_perm);
    expect_same_csc(runs[i].l, runs[0].l, "L");
    expect_same_csc(runs[i].u, runs[0].u, "U");
  }
}

// An input with more than 2,048 rows: the orthonormalizations take the pool
// TSQR and each Gaussian sketch is drawn in several pool chunks.
TEST(DeterminismTest, RandQbEiPoolTsqrFactorsIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const CscMatrix a = test_matrix(2100, 13);
  RandQbOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-4;
  opts.max_rank = 96;

  std::vector<RandQbResult> runs;
  for (int nt : kThreadCounts) {
    ThreadPool::global().set_num_threads(nt);
    ThreadPool::global().reset_stats();
    runs.push_back(randqb_ei(a, opts));
  }
  // The 8-worker run forked the pool TSQR and the sketch.
  const auto stats = ThreadPool::global().kernel_stats();
  ASSERT_TRUE(stats.count("tsqr"));
  ASSERT_TRUE(stats.count("gaussian"));
  EXPECT_GT(stats.at("gaussian").threads, 1);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].rank, runs[0].rank);
    EXPECT_EQ(runs[i].iterations, runs[0].iterations);
    EXPECT_EQ(runs[i].indicator, runs[0].indicator);  // bitwise
    EXPECT_EQ(runs[i].q, runs[0].q) << "Q differs at nt=" << kThreadCounts[i];
    EXPECT_EQ(runs[i].b, runs[0].b) << "B differs at nt=" << kThreadCounts[i];
  }
}

TEST(DeterminismTest, RandUbvPoolTsqrFactorsIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const CscMatrix a = test_matrix(2100, 17);
  RandUbvOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-4;
  opts.max_rank = 96;

  std::vector<RandUbvResult> runs;
  for (int nt : kThreadCounts) {
    ThreadPool::global().set_num_threads(nt);
    runs.push_back(randubv(a, opts));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].rank, runs[0].rank);
    EXPECT_EQ(runs[i].iterations, runs[0].iterations);
    EXPECT_EQ(runs[i].indicator, runs[0].indicator);  // bitwise
    EXPECT_EQ(runs[i].u, runs[0].u) << "U differs at nt=" << kThreadCounts[i];
    EXPECT_EQ(runs[i].b, runs[0].b) << "B differs at nt=" << kThreadCounts[i];
    EXPECT_EQ(runs[i].v, runs[0].v) << "V differs at nt=" << kThreadCounts[i];
  }
}

// Simulated ranks carry a ScopedSerial guard, so the distributed engine's
// numerics — and with them the whole virtual-time *report structure* (which
// iterations happened, at which rank, with which indicator) — are unaffected
// by the pool size. Virtual seconds themselves are measured CPU time and
// legitimately jitter; they are not compared.
TEST(DeterminismTest, DistTelemetryStructureIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const CscMatrix a = test_matrix(400, 11);
  RandQbOptions opts;
  opts.block_size = 16;
  opts.tau = 1e-3;
  opts.max_rank = 96;
  const int np = 4;

  std::vector<DistRandQbResult> runs;
  for (int nt : kThreadCounts) {
    ThreadPool::global().set_num_threads(nt);
    runs.push_back(randqb_ei_dist(a, opts, np));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].result.rank, runs[0].result.rank);
    EXPECT_EQ(runs[i].result.iterations, runs[0].result.iterations);
    EXPECT_EQ(runs[i].result.q, runs[0].result.q);
    EXPECT_EQ(runs[i].result.b, runs[0].result.b);
    // Same telemetry structure: iteration, rank and indicator (bitwise) per
    // point; the virtual clock values are not compared.
    const obs::TelemetrySeries& t = runs[i].result.telemetry;
    const obs::TelemetrySeries& t0 = runs[0].result.telemetry;
    ASSERT_EQ(t.size(), t0.size());
    for (std::size_t j = 0; j < t.size(); ++j) {
      EXPECT_EQ(t[j].iteration, t0[j].iteration);
      EXPECT_EQ(t[j].rank, t0[j].rank);
      EXPECT_EQ(t[j].indicator_rel, t0[j].indicator_rel);  // bitwise
    }
  }
}

}  // namespace
}  // namespace lra
