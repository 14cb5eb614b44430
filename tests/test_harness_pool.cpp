// Pool-width sweep of the differential oracle (ctest -L harness): the PR-2
// thread pool promises bitwise reproducibility at any worker count, and the
// fault layer promises schedule-independent decisions — so every solver
// digest (sequential and fault-plan distributed) must be bit-identical when
// the process-wide pool runs 1 worker vs 8.

#include <gtest/gtest.h>

#include "par/pool.hpp"
#include "sim/oracle.hpp"
#include "sim/repro.hpp"

namespace lra::sim {
namespace {

void expect_same_decisions(const SolverDigest& a, const SolverDigest& b,
                           const char* what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.indicator, b.indicator) << what;  // exact doubles
  EXPECT_EQ(a.anorm_f, b.anorm_f) << what;
}

class PoolWidthSweep : public ::testing::TestWithParam<Method> {};

TEST_P(PoolWidthSweep, DigestsBitwiseEqualAtOneAndEightWorkers) {
  ReproConfig c;
  c.method = GetParam();
  c.matrix = "M2";
  c.scale = 0.25;
  c.tau = 1e-2;
  c.block_size = 8;
  c.power = 1;
  c.solver_seed = 0x5eed;
  c.nranks = 4;
  c.faults = "seed=5;delay=0.4:8;dup=0.25;straggle=1:4";
  const CscMatrix a = build_matrix(c);
  const FaultPlan plan = c.fault_plan();

  ThreadPool::global().set_num_threads(1);
  const SolverDigest seq1 = run_sequential(a, c);
  const SolverDigest dist1 = run_distributed(a, c, plan);
  ThreadPool::global().set_num_threads(8);
  const SolverDigest seq8 = run_sequential(a, c);
  const SolverDigest dist8 = run_distributed(a, c, plan);
  ThreadPool::global().set_num_threads(1);

  expect_same_decisions(seq1, seq8, "sequential");
  expect_same_decisions(dist1, dist8, "distributed+faults");
  // Fault decisions are schedule-independent, so the event counts agree too.
  EXPECT_EQ(dist1.comm.total_fault_events(), dist8.comm.total_fault_events());
  EXPECT_EQ(dist1.comm.total_bytes(), dist8.comm.total_bytes());
  EXPECT_GT(dist1.comm.total_fault_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, PoolWidthSweep,
                         ::testing::Values(Method::kRandQbEi, Method::kLuCrtp,
                                           Method::kIlutCrtp,
                                           Method::kRandUbv));

}  // namespace
}  // namespace lra::sim
