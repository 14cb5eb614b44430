#include "qrtp/tournament.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "dense/qr.hpp"
#include "dense/qrcp.hpp"
#include "dense/svd.hpp"
#include "par/pool.hpp"
#include "qrtp/panel.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

// Smallest singular value of the m x k matrix formed by `cols` of `a`.
double sigma_min_of_columns(const CscMatrix& a, const std::vector<Index>& cols) {
  const CscMatrix sel = a.select_columns(cols);
  const auto sv = singular_values(sel.to_dense());
  return sv.back();
}

CscMatrix graded_random(Index m, Index n, std::uint64_t seed) {
  Matrix d = testing::random_matrix(m, n, seed);
  for (Index j = 0; j < n; ++j) {
    const double w = std::pow(10.0, -3.0 * static_cast<double>(j) / static_cast<double>(n));
    for (Index i = 0; i < m; ++i) d(i, j) *= w;
  }
  return CscMatrix::from_dense(d, 1e-4);
}

TEST(Panel, SelectKReturnsDistinctGlobalIds) {
  const CscMatrix a = graded_random(30, 20, 151);
  std::vector<Index> ids(20);
  std::iota(ids.begin(), ids.end(), Index{0});
  const auto win = select_k(a, ids, 6);
  ASSERT_EQ(win.size(), 6u);
  EXPECT_EQ(std::set<Index>(win.begin(), win.end()).size(), 6u);
}

TEST(Panel, FewerCandidatesThanKReturnsAll) {
  const CscMatrix a = graded_random(10, 3, 152);
  std::vector<Index> ids = {0, 1, 2};
  EXPECT_EQ(select_k(a, ids, 8).size(), 3u);
}

TEST(Panel, AllZeroCandidatesStillReturnsK) {
  CscMatrix a(12, 6);
  std::vector<Index> ids = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(select_k(a, ids, 4).size(), 4u);
}

TEST(Panel, NodeMatchesQrcpOfTheCopiedPanel) {
  // A node fills its panel straight from the working matrix; the winners
  // must be those of QRCP on the copied candidate columns over their
  // nonempty rows (stored zeros included), on matrices of different row
  // counts one after another (the row map is reused across nodes).
  // The last matrix's columns tie up to rounding (the same values on
  // rotated rows, so each column's norm and dots differ only by summation
  // order), so its winners also pin the panel's row order.
  std::vector<CscMatrix> inputs;
  for (const Index m : {40, 300, 25}) {
    CscMatrix a = graded_random(m, 48, 160 + m);
    for (std::size_t p = 0; p < a.values().size(); p += 7) a.values()[p] = 0.0;
    inputs.push_back(a);
  }
  {
    const Index m = 61;
    const Matrix base = testing::random_matrix(m, 1, 170);
    Matrix t(m, 48);
    for (Index j = 0; j < 48; ++j)
      for (Index i = 0; i < m / 2; ++i)
        t((i + 11 * j) % m, j) = 1.0 + 0.25 * base(i, 0);
    inputs.push_back(CscMatrix::from_dense(t));
  }
  for (const CscMatrix& a : inputs) {
    std::vector<Index> ids;
    for (Index j = 47; j >= 0; j -= 3) ids.push_back(j);
    for (const Index k : {2, 5, 8}) {
      const CscMatrix sel = a.select_columns(ids);
      const QRCP f(dense_row_subset(sel, sel.nonempty_rows()), k);
      std::vector<Index> want;
      for (Index j = 0; j < k; ++j) want.push_back(ids[f.perm()[j]]);
      EXPECT_EQ(select_k(a, ids, k), want)
          << "m = " << a.rows() << ", k = " << k;
    }
  }
}

TEST(Panel, PackUnpackRoundtrip) {
  const CscMatrix a = graded_random(15, 8, 153);
  std::vector<Index> ids = {1, 3, 5};
  const CandidateColumns cand{ids, a.select_columns(ids)};
  const CandidateColumns back = unpack_candidates(pack_candidates(cand));
  EXPECT_EQ(back.global_index, cand.global_index);
  EXPECT_EQ(back.cols.rows(), cand.cols.rows());
  testing::expect_near_matrix(back.cols.to_dense(), cand.cols.to_dense(), 0.0);
}

TEST(Panel, MergeConcatenates) {
  const CscMatrix a = graded_random(10, 6, 154);
  const CandidateColumns c1{{0, 1}, a.select_columns(std::vector<Index>{0, 1})};
  const CandidateColumns c2{{4, 5}, a.select_columns(std::vector<Index>{4, 5})};
  const CandidateColumns m = merge(c1, c2);
  EXPECT_EQ(m.global_index, (std::vector<Index>{0, 1, 4, 5}));
  EXPECT_EQ(m.cols.cols(), 4);
}

class TournamentK : public ::testing::TestWithParam<int> {};

TEST_P(TournamentK, WinnersAreDistinctValidColumns) {
  const Index k = GetParam();
  const CscMatrix a = graded_random(60, 40, 155);
  const auto win = qr_tp_select(a, k);
  ASSERT_EQ(static_cast<Index>(win.size()), std::min<Index>(k, 40));
  std::set<Index> s(win.begin(), win.end());
  EXPECT_EQ(s.size(), win.size());
  for (Index j : win) {
    EXPECT_GE(j, 0);
    EXPECT_LT(j, 40);
  }
}

TEST_P(TournamentK, SelectionIsWellConditionedVsRandom) {
  // Tournament winners should have a much larger sigma_min than the first k
  // columns of a graded matrix (rank-revealing property).
  const Index k = GetParam();
  const CscMatrix a = graded_random(60, 40, 156);
  const auto win = qr_tp_select(a, k);
  std::vector<Index> naive(static_cast<std::size_t>(k));
  std::iota(naive.begin(), naive.end(), Index{20});  // weak columns
  EXPECT_GT(sigma_min_of_columns(a, win),
            sigma_min_of_columns(a, naive));
}

INSTANTIATE_TEST_SUITE_P(Ks, TournamentK, ::testing::Values(2, 4, 8, 16));

TEST(Tournament, MatchesQrcpQualityOnSmallMatrix) {
  // Tournament selection is provably within a polynomial factor of QRCP;
  // empirically sigma_min(selected) should be within ~10x here.
  const Index k = 5;
  const CscMatrix a = graded_random(40, 24, 157);
  const auto win = qr_tp_select(a, k);
  QRCP f(a.to_dense(), k);
  std::vector<Index> qrcp_cols(f.perm().begin(), f.perm().begin() + k);
  const double s_tp = sigma_min_of_columns(a, win);
  const double s_qrcp = sigma_min_of_columns(a, qrcp_cols);
  EXPECT_GT(s_tp, 0.05 * s_qrcp);
}

TEST(Tournament, RestrictedCandidateSet) {
  const CscMatrix a = graded_random(30, 20, 158);
  const std::vector<Index> active = {10, 11, 12, 13, 14, 15};
  const auto win = qr_tp_select(a, active, 3);
  for (Index j : win)
    EXPECT_TRUE(std::find(active.begin(), active.end(), j) != active.end());
}

TEST(RowTournament, SelectsIndependentRows) {
  // Q: orthonormal 20x4; any 4 selected rows must form a nonsingular block.
  const Matrix q = orth(testing::random_matrix(20, 4, 159));
  std::vector<Index> ids(20);
  std::iota(ids.begin(), ids.end(), Index{0});
  const auto rows = qr_tp_select_rows(q, ids, 4);
  ASSERT_EQ(rows.size(), 4u);
  Matrix block(4, 4);
  for (Index i = 0; i < 4; ++i)
    for (Index j = 0; j < 4; ++j) block(i, j) = q(rows[i], j);
  const auto sv = singular_values(block);
  EXPECT_GT(sv.back(), 0.05);  // far from singular
}

TEST(RowTournament, GlobalIdsAreReturned) {
  const Matrix q = orth(testing::random_matrix(12, 3, 160));
  std::vector<Index> ids(12);
  for (Index i = 0; i < 12; ++i) ids[i] = 100 + i;
  const auto rows = qr_tp_select_rows(q, ids, 3);
  for (Index r : rows) {
    EXPECT_GE(r, 100);
    EXPECT_LT(r, 112);
  }
}

// The tournament trees run each level as a parallel_for over nodes once the
// input is large enough (ncand * k >= 8192); the winners must not depend on
// the pool width.
class PoolWidth {
 public:
  PoolWidth() : saved_(ThreadPool::global().num_threads()) {}
  ~PoolWidth() { ThreadPool::global().set_num_threads(saved_); }

 private:
  int saved_;
};

// Runs `select` at pool widths 1, 2 and 8 and expects identical winners,
// with the qr_tp region forked at every width above 1.
template <typename Select>
void expect_width_invariant(Index k, Select select) {
  PoolWidth guard;
  std::vector<std::vector<Index>> wins;
  for (int nt : {1, 2, 8}) {
    ThreadPool::global().set_num_threads(nt);
    ThreadPool::global().reset_stats();
    wins.push_back(select());
    if (nt > 1) {
      EXPECT_TRUE(ThreadPool::global().kernel_stats().count("qr_tp"))
          << "no qr_tp region at nt=" << nt;
    }
  }
  ASSERT_EQ(static_cast<Index>(wins[0].size()), k);
  EXPECT_EQ(wins[1], wins[0]) << "nt=2";
  EXPECT_EQ(wins[2], wins[0]) << "nt=8";
}

TEST(Tournament, WinnersIdenticalAcrossPoolWidths) {
  const CscMatrix a = graded_random(80, 600, 161);  // 600 * 16 >= 8192
  expect_width_invariant(16, [&] { return qr_tp_select(a, 16); });
}

TEST(RowTournament, WinnersIdenticalAcrossPoolWidths) {
  const Matrix q = orth(testing::random_matrix(1200, 8, 162));  // 1200 * 8
  std::vector<Index> ids(1200);
  std::iota(ids.begin(), ids.end(), Index{5});
  expect_width_invariant(8, [&] { return qr_tp_select_rows(q, ids, 8); });
}

TEST(Tournament, SmallTournamentStaysInline) {
  PoolWidth guard;
  ThreadPool::global().set_num_threads(8);
  ThreadPool::global().reset_stats();
  const CscMatrix a = graded_random(60, 240, 163);  // 240 * 8 < 8192
  EXPECT_EQ(qr_tp_select(a, 8).size(), 8u);
  EXPECT_FALSE(ThreadPool::global().kernel_stats().count("qr_tp"));
}

}  // namespace
}  // namespace lra
