#include "sparse/drop.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix graded_matrix() {
  Matrix d(4, 4);
  d(0, 0) = 1.0;
  d(1, 1) = 1e-2;
  d(2, 2) = 1e-4;
  d(3, 3) = 1e-6;
  d(0, 1) = 5e-3;
  return CscMatrix::from_dense(d);
}

// What lu_crtp does once the threshold control accepts a drop.
void prune_at(CscMatrix& a, const DropResult& r) {
  if (r.dropped > 0) a.prune(r.cutoff);
}

TEST(DropBelow, RemovesExactlyEntriesBelowMu) {
  CscMatrix a = graded_matrix();
  const DropResult r = drop_below(a, 1e-3);
  prune_at(a, r);
  EXPECT_EQ(r.dropped, 2);  // 1e-4 and 1e-6
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.coeff(2, 2), 0.0);
  EXPECT_EQ(a.coeff(0, 1), 5e-3);
}

TEST(DropBelow, AccountsFrobeniusMassExactly) {
  CscMatrix a = graded_matrix();
  const double before_sq = a.frobenius_norm_sq();
  const DropResult r = drop_below(a, 1e-3);
  prune_at(a, r);
  EXPECT_NEAR(before_sq, a.frobenius_norm_sq() + r.fro_sq, 1e-18);
  EXPECT_NEAR(r.fro_sq, 1e-8 + 1e-12, 1e-15);
}

TEST(DropBelow, MuZeroIsNoop) {
  CscMatrix a = graded_matrix();
  const DropResult r = drop_below(a, 0.0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(a.nnz(), 5);
}

TEST(DropBelow, MuLargerThanAllDropsEverything) {
  CscMatrix a = graded_matrix();
  const DropResult r = drop_below(a, 10.0);
  prune_at(a, r);
  EXPECT_EQ(r.dropped, 5);
  EXPECT_EQ(a.nnz(), 0);
}

TEST(DropBelow, StructureStaysValid) {
  CscMatrix a = CscMatrix::from_dense(testing::random_matrix(20, 20, 141));
  prune_at(a, drop_below(a, 0.5));
  EXPECT_TRUE(a.structurally_valid());
}

TEST(DropBudgeted, RespectsBudget) {
  CscMatrix a = graded_matrix();
  const double phi = 2e-4;  // budget^2 = 4e-8: only 1e-6 and 1e-4 fit partially
  const DropResult r = drop_budgeted(a, phi, 0.0);
  EXPECT_LT(std::sqrt(r.fro_sq), phi);
  EXPECT_GE(r.dropped, 1);  // at least the 1e-6 entry
}

TEST(DropBudgeted, DropsSmallestFirst) {
  CscMatrix a = graded_matrix();
  prune_at(a, drop_budgeted(a, 2e-4, 0.0));
  EXPECT_EQ(a.coeff(3, 3), 0.0);    // smallest gone
  EXPECT_NE(a.coeff(0, 0), 0.0);    // largest intact
}

TEST(DropBudgeted, UsedBudgetReducesCapacity) {
  CscMatrix a1 = graded_matrix();
  const DropResult r1 = drop_budgeted(a1, 2e-4, 0.0);
  CscMatrix a2 = graded_matrix();
  const DropResult r2 = drop_budgeted(a2, 2e-4, 3.9e-8);  // nearly spent
  EXPECT_LE(r2.dropped, r1.dropped);
}

TEST(DropBudgeted, ExhaustedBudgetIsNoop) {
  CscMatrix a = graded_matrix();
  const DropResult r = drop_budgeted(a, 1e-4, 1e-8);  // budget^2 == used
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(a.nnz(), 5);
}

// The kernels only measure: the Schur complement is pruned, at the returned
// cutoff, only after the threshold control accepts the drop.
TEST(Drop, KernelsLeaveTheirInputUntouched) {
  const CscMatrix a = CscMatrix::from_dense(testing::random_matrix(30, 30, 142));
  const CscMatrix before = a;
  EXPECT_GT(drop_below(a, 0.5).dropped, 0);
  EXPECT_GT(drop_budgeted(a, 1.0, 0.0).dropped, 0);
  EXPECT_EQ(a.colptr(), before.colptr());
  EXPECT_EQ(a.rowind(), before.rowind());
  EXPECT_EQ(a.values(), before.values());
}

TEST(Drop, PruneAtCutoffRemovesExactlyTheCountedEntries) {
  Matrix d = testing::random_matrix(25, 25, 143);
  // Repeated magnitudes (either sign) around where the budget runs out.
  for (Index j = 0; j < 25; ++j) d(j, j) = (j % 2 ? -1.0 : 1.0) * 1e-3;
  const CscMatrix a = CscMatrix::from_dense(d);
  double fro_sq = 0.0;
  for (double v : a.values()) fro_sq += v * v;
  const DropResult results[] = {drop_below(a, 0.3), drop_below(a, 2e-3),
                                drop_budgeted(a, 3e-3, 0.0),
                                drop_budgeted(a, 0.5, 0.0)};
  for (const DropResult& r : results) {
    ASSERT_GT(r.dropped, 0);
    CscMatrix b = a;
    b.prune(r.cutoff);
    EXPECT_EQ(b.nnz(), a.nnz() - r.dropped) << "cutoff " << r.cutoff;
    double kept_sq = 0.0;
    for (double v : b.values()) kept_sq += v * v;
    EXPECT_NEAR(kept_sq + r.fro_sq, fro_sq, 1e-12 * fro_sq);
  }
}

}  // namespace
}  // namespace lra
