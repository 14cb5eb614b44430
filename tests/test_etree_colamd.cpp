#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "gen/families.hpp"
#include "gen/presets.hpp"
#include "gen/suite.hpp"
#include "sparse/colamd.hpp"
#include "sparse/etree.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

// Reference ordering: the original COLAMD-style elimination, which recomputes
// every pivot column's score from scratch and keeps a lazy-deletion priority
// queue. colamd_order() maintains the same scores incrementally in an indexed
// heap and must reproduce this order exactly.
struct HeapEntry {
  Index score;
  Index col;
  Index stamp;  // invalidates stale heap entries
  bool operator>(const HeapEntry& o) const {
    if (score != o.score) return score > o.score;
    return col > o.col;  // deterministic tie-break
  }
};

Perm reference_colamd_order(const CscMatrix& a) {
  const Index n = a.cols();
  // Row and column adjacency, mutable during elimination. Pivot rows created
  // by elimination are appended after the original rows.
  std::vector<std::vector<Index>> row2col(static_cast<std::size_t>(a.rows()));
  std::vector<std::vector<Index>> col2row(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j)
    for (Index r : a.col_rows(j)) {
      row2col[r].push_back(j);
      col2row[j].push_back(r);
    }
  std::vector<char> row_alive(row2col.size(), 1);
  std::vector<char> col_done(static_cast<std::size_t>(n), 0);
  std::vector<Index> stamp(static_cast<std::size_t>(n), 0);

  // Approximate external degree: sum over alive rows of (row length - 1).
  // This is COLAMD's upper bound on |Adj(j)| in the quotient graph.
  auto score_of = [&](Index j) {
    Index s = 0;
    auto& rows = col2row[j];
    std::size_t w = 0;
    for (Index r : rows) {
      if (!row_alive[r]) continue;
      rows[w++] = r;
      s += static_cast<Index>(row2col[r].size()) - 1;
    }
    rows.resize(w);
    return s;
  };

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  for (Index j = 0; j < n; ++j) heap.push({score_of(j), j, 0});

  Perm order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> in_pivot(static_cast<std::size_t>(n), 0);

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const Index j = top.col;
    if (col_done[j] || top.stamp != stamp[j]) continue;
    col_done[j] = 1;
    order.push_back(j);

    // Form the pivot row: union of the columns of all rows incident to j,
    // excluding eliminated columns; absorb (kill) those rows.
    std::vector<Index> pivot_cols;
    for (Index r : col2row[j]) {
      if (!row_alive[r]) continue;
      row_alive[r] = 0;
      for (Index c : row2col[r]) {
        if (col_done[c] || in_pivot[c]) continue;
        in_pivot[c] = 1;
        pivot_cols.push_back(c);
      }
      row2col[r].clear();
      row2col[r].shrink_to_fit();
    }
    col2row[j].clear();
    col2row[j].shrink_to_fit();
    if (pivot_cols.empty()) continue;

    const Index pr = static_cast<Index>(row2col.size());
    row2col.push_back(pivot_cols);
    row_alive.push_back(1);
    for (Index c : pivot_cols) {
      in_pivot[c] = 0;
      col2row[c].push_back(pr);
      ++stamp[c];
      heap.push({score_of(c), c, stamp[c]});
    }
  }
  return order;
}

TEST(Etree, DiagonalMatrixIsForestOfRoots) {
  const CscMatrix a = CscMatrix::from_dense(Matrix::identity(4));
  const auto parent = column_etree(a);
  for (Index v : parent) EXPECT_EQ(v, -1);
}

TEST(Etree, DenseMatrixIsChain) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(5, 5, 131));
  const auto parent = column_etree(a);
  for (Index j = 0; j < 4; ++j) EXPECT_EQ(parent[j], j + 1);
  EXPECT_EQ(parent[4], -1);
}

TEST(Etree, ParentsAreLarger) {
  const CscMatrix a = circuit_like(40, 3, 1, 7);
  const auto parent = column_etree(a);
  for (std::size_t j = 0; j < parent.size(); ++j)
    if (parent[j] != -1) EXPECT_GT(parent[j], static_cast<Index>(j));
}

TEST(Postorder, IsValidPermutationWithChildrenFirst) {
  const CscMatrix a = circuit_like(30, 3, 1, 9);
  const auto parent = column_etree(a);
  const Perm post = etree_postorder(parent);
  EXPECT_TRUE(is_permutation(post));
  // Position of each node must be after all of its descendants: check the
  // direct-child relation.
  Perm pos = invert(post);
  for (std::size_t v = 0; v < parent.size(); ++v)
    if (parent[v] != -1) EXPECT_LT(pos[v], pos[parent[v]]);
}

TEST(Colamd, ProducesValidPermutation) {
  const CscMatrix a = circuit_like(60, 4, 2, 11);
  EXPECT_TRUE(is_permutation(colamd_order(a)));
  EXPECT_TRUE(is_permutation(colamd_postordered(a)));
}

TEST(Colamd, HandlesEmptyColumns) {
  CscMatrix a(5, 4);  // all-zero
  EXPECT_TRUE(is_permutation(colamd_order(a)));
  EXPECT_EQ(colamd_order(a), reference_colamd_order(a));
}

TEST(Colamd, ReducesCholeskyFillOnArrowMatrix) {
  // Arrow matrix with the dense row/col FIRST: natural order fills A^T A
  // completely; AMD-style ordering must push the dense column last.
  const Index n = 30;
  Matrix d(n, n);
  for (Index i = 0; i < n; ++i) {
    d(i, i) = 2.0;
    d(i, 0) = 1.0;
    d(0, i) = 1.0;
  }
  const CscMatrix a = CscMatrix::from_dense(d);
  const Perm ord = colamd_order(a);
  EXPECT_EQ(ord, reference_colamd_order(a));
  // The hub column 0 must not be eliminated early.
  Index pos0 = -1;
  for (std::size_t j = 0; j < ord.size(); ++j)
    if (ord[j] == 0) pos0 = static_cast<Index>(j);
  EXPECT_GT(pos0, n / 2);
}

TEST(Colamd, OrderingIsDeterministic) {
  const CscMatrix a = circuit_like(50, 4, 1, 13);
  EXPECT_EQ(colamd_order(a), colamd_order(a));
}

TEST(Colamd, MatchesReferenceOnPresets) {
  for (const std::string& label : preset_labels()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CscMatrix a = make_preset(label, 0.15, seed).a;
      EXPECT_EQ(colamd_order(a), reference_colamd_order(a))
          << label << " seed " << seed;
    }
  }
}

TEST(Colamd, MatchesReferenceOnSuiteSlice) {
  SuiteOptions opts;
  opts.per_family = 3;
  for (const SuiteMatrix& m : make_suite(opts)) {
    EXPECT_EQ(colamd_order(m.a), reference_colamd_order(m.a)) << m.name;
  }
}

TEST(Colamd, MatchesReferenceWithEmptyRowsAndColumns) {
  // Empty rows and columns interleaved with a band: empty columns score 0
  // and must leave in column order, exactly as the reference does.
  Matrix d(12, 10);
  for (Index i = 0; i < 12; i += 2)
    for (Index j = 0; j < 10; ++j)
      if (j % 3 != 1 && std::abs(i / 2 - j) <= 2) d(i, j) = 1.0 + i + j;
  const CscMatrix a = CscMatrix::from_dense(d);
  EXPECT_EQ(colamd_order(a), reference_colamd_order(a));
  EXPECT_EQ(colamd_order(a.transposed()), reference_colamd_order(a.transposed()));
}

}  // namespace
}  // namespace lra
