#include "sparse/spgemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dense/blas.hpp"
#include "par/pool.hpp"
#include "reference_kernels.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix random_csc(Index m, Index n, double drop, std::uint64_t seed) {
  return CscMatrix::from_dense(testing::random_matrix(m, n, seed), drop);
}

class SpgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpgemmShapes, MatchesDenseProduct) {
  const auto [m, k, n, drop] = GetParam();
  const CscMatrix a = random_csc(m, k, drop, 111);
  const CscMatrix b = random_csc(k, n, drop, 112);
  const CscMatrix c = spgemm(a, b);
  EXPECT_TRUE(c.structurally_valid());
  testing::expect_near_matrix(c.to_dense(),
                              matmul(a.to_dense(), b.to_dense()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpgemmShapes,
    ::testing::Values(std::tuple{5, 5, 5, 0.0}, std::tuple{12, 7, 9, 0.8},
                      std::tuple{30, 30, 30, 1.5}, std::tuple{1, 8, 1, 0.5},
                      std::tuple{20, 1, 20, 0.0}));

TEST(Spadd, LinearCombination) {
  const CscMatrix a = random_csc(8, 8, 0.7, 113);
  const CscMatrix b = random_csc(8, 8, 0.7, 114);
  const CscMatrix c = spadd(a, b, 2.0, -0.5);
  Matrix ref = a.to_dense();
  ref.scale(2.0);
  Matrix bd = b.to_dense();
  bd.scale(-0.5);
  gemm(ref, bd, Matrix::identity(8), 1.0, 1.0);
  testing::expect_near_matrix(c.to_dense(), ref, 1e-12);
  EXPECT_TRUE(c.structurally_valid());
}

TEST(Spadd, DisjointPatternsUnion) {
  Matrix da(3, 3), db(3, 3);
  da(0, 0) = 1.0;
  db(2, 2) = 2.0;
  const CscMatrix c =
      spadd(CscMatrix::from_dense(da), CscMatrix::from_dense(db));
  EXPECT_EQ(c.nnz(), 2);
}

TEST(SchurUpdate, MatchesComposedOps) {
  const CscMatrix a = random_csc(15, 12, 0.9, 115);
  const CscMatrix l = random_csc(15, 4, 0.6, 116);
  const CscMatrix u = random_csc(4, 12, 0.6, 117);
  const CscMatrix s1 = schur_update(a, l, u);
  const CscMatrix s2 = spadd(a, spgemm(l, u), 1.0, -1.0);
  testing::expect_near_matrix(s1.to_dense(), s2.to_dense(), 1e-12);
}

TEST(SchurUpdate, StoresNoExactCancellation) {
  // L U = [6 2; 3 1] cancels A's first column exactly; spgemm-style
  // accumulation would store two explicit zeros there.
  Matrix da(2, 2), dl(2, 1), du(1, 2);
  da(0, 0) = 6.0;
  da(1, 0) = 3.0;
  da(0, 1) = 5.0;
  da(1, 1) = 4.0;
  dl(0, 0) = 2.0;
  dl(1, 0) = 1.0;
  du(0, 0) = 3.0;
  du(0, 1) = 1.0;
  const CscMatrix l = CscMatrix::from_dense(dl);
  const CscMatrix u = CscMatrix::from_dense(du);
  const CscMatrix s = schur_update(CscMatrix::from_dense(da), l, u);
  EXPECT_TRUE(s.structurally_valid());
  EXPECT_EQ(s.col_nnz(0), 0);
  EXPECT_EQ(s.col_nnz(1), 2);
  EXPECT_EQ(s.coeff(0, 1), 3.0);
  EXPECT_EQ(s.coeff(1, 1), 3.0);
  // spgemm keeps its cancellations: they are structural fill-in positions.
  EXPECT_EQ(spgemm(l, u).nnz(), 4);
  EXPECT_EQ(spadd(CscMatrix::from_dense(da), spgemm(l, u), 1.0, -1.0).nnz(), 4);

  // inf - inf is NaN, which is dropped as prune(0.0) would drop it.
  Matrix inf(1, 1);
  inf(0, 0) = std::numeric_limits<double>::infinity();
  Matrix one(1, 1);
  one(0, 0) = 1.0;
  const CscMatrix nan = schur_update(CscMatrix::from_dense(inf),
                                     CscMatrix::from_dense(one),
                                     CscMatrix::from_dense(inf));
  EXPECT_EQ(nan.nnz(), 0);
}

TEST(SchurUpdate, EmptyFactorsReturnA) {
  const CscMatrix a = random_csc(6, 6, 0.5, 118);
  const CscMatrix l(6, 0);
  const CscMatrix u(0, 6);
  testing::expect_near_matrix(schur_update(a, l, u).to_dense(), a.to_dense(),
                              0.0);
}

// --- Bitwise identity with the sorting reference ---------------------------

class PoolGuard {
 public:
  PoolGuard() : saved_(ThreadPool::global().num_threads()) {}
  ~PoolGuard() { ThreadPool::global().set_num_threads(saved_); }

 private:
  int saved_;
};

// An m x n matrix whose column j holds counts[j] distinct random rows with
// Gaussian values (all stored, none exactly zero).
CscMatrix with_counts(Index m, const std::vector<Index>& counts,
                      std::uint64_t seed) {
  CounterRng rng(seed);
  std::vector<Index> colptr{0}, rowind, pool(static_cast<std::size_t>(m));
  std::vector<double> values;
  for (const Index c : counts) {
    for (Index i = 0; i < m; ++i) pool[i] = i;
    for (Index t = 0; t < c; ++t)  // partial Fisher-Yates
      std::swap(pool[t], pool[t + static_cast<Index>(rng.uniform_int(
                                      static_cast<std::uint64_t>(m - t)))]);
    std::vector<Index> rows(pool.begin(), pool.begin() + c);
    std::sort(rows.begin(), rows.end());
    for (const Index r : rows) {
      rowind.push_back(r);
      values.push_back(rng.gaussian());
    }
    colptr.push_back(static_cast<Index>(rowind.size()));
  }
  return CscMatrix(m, static_cast<Index>(counts.size()), std::move(colptr),
                   std::move(rowind), std::move(values));
}

// The same structure with every value replaced by f(position).
template <typename F>
CscMatrix with_values(const CscMatrix& s, F&& f) {
  std::vector<double> v(s.values().size());
  for (std::size_t p = 0; p < v.size(); ++p) v[p] = f(p, s.values()[p]);
  return CscMatrix(s.rows(), s.cols(), s.colptr(), s.rowind(), std::move(v));
}

// memcmp of two arrays (empty ones hold no pointer to compare).
template <typename T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

void expect_bitwise(const CscMatrix& got, const CscMatrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_EQ(got.nnz(), want.nnz()) << what;
  EXPECT_TRUE(same_bytes(got.colptr(), want.colptr())) << what << ": colptr";
  EXPECT_TRUE(same_bytes(got.rowind(), want.rowind())) << what << ": rowind";
  EXPECT_TRUE(same_bytes(got.values(), want.values())) << what << ": values";
}

struct SchurCase {
  std::string name;
  CscMatrix a, l, u;
};

// Inputs that reach both of schur_update's accumulation modes: a column is
// accumulated without marks when its bound nnz A(:, j) + sum nnz L(:, k)
// over U(:, j) exceeds m / 8; an L column with more than m / 4 nonzeros
// enters such a column by a dense axpy unless its U entry is not finite.
std::vector<SchurCase> schur_cases() {
  std::vector<SchurCase> cases;
  // Not a multiple of any vector width; m/8 = 25, m/4 = 50.
  const Index m = 203;
  const double inf = std::numeric_limits<double>::infinity();
  {
    // All-sparse columns: bounds at most 5 + 3 * 4 = 17.
    std::vector<Index> ac, lc(12), uc;
    for (Index j = 0; j < 300; ++j) ac.push_back(j % 6);
    for (Index k = 0; k < 12; ++k) lc[k] = 1 + k % 4;
    for (Index j = 0; j < 300; ++j) uc.push_back(j % 4);
    cases.push_back({"all sparse", with_counts(m, ac, 1), with_counts(m, lc, 2),
                     with_counts(12, uc, 3)});
  }
  {
    // Bounds 24, 25 (marked) and 26, 27 (dense): U(:, j) = {0}, nnz L(:, 0)
    // = 20, nnz A(:, j) = 4 + j % 4; the other columns mix every L column.
    std::vector<Index> ac, uc;
    for (Index j = 0; j < 160; ++j) ac.push_back(4 + j % 4);
    const std::vector<Index> lc = {20, 50, 51, 3, 120, 7, 0, 203};
    const CscMatrix l = with_counts(m, lc, 5);
    std::vector<Index> colptr{0}, rowind;
    std::vector<double> values;
    CounterRng rng(6);
    for (Index j = 0; j < 160; ++j) {
      if (j < 80) {
        rowind.push_back(0);
      } else {
        for (Index k = 0; k < 8; ++k)
          if (rng.uniform() < 0.5) rowind.push_back(k);
      }
      while (values.size() < rowind.size()) values.push_back(rng.gaussian());
      colptr.push_back(static_cast<Index>(rowind.size()));
    }
    const CscMatrix u(8, 160, std::move(colptr), std::move(rowind),
                      std::move(values));
    cases.push_back({"either side of the dense bound and of m/4",
                     with_counts(m, ac, 4), l, u});
    // Exact cancellations: A(:, j) = 2 L(:, c) with c = 0 (bound 40, dense)
    // for even j and c = 3 (bound 6, marked) for odd j, against U(c, j) = 2:
    // the single-term columns cancel to zero, the mixed ones partly.
    std::vector<Index> colptr_a{0}, rowind_a, colptr_u{0}, rowind_u;
    std::vector<double> values_a, values_u;
    for (Index j = 0; j < 160; ++j) {
      const Index c = j % 2 ? 3 : 0;
      for (std::size_t q = 0; q < l.col_rows(c).size(); ++q) {
        rowind_a.push_back(l.col_rows(c)[q]);
        values_a.push_back(2.0 * l.col_values(c)[q]);
      }
      colptr_a.push_back(static_cast<Index>(rowind_a.size()));
      for (Index k = 0; k < 8; ++k)
        if (k == c || (j >= 80 && rng.uniform() < 0.5)) {
          rowind_u.push_back(k);
          values_u.push_back(k == c ? 2.0 : rng.gaussian());
        }
      colptr_u.push_back(static_cast<Index>(rowind_u.size()));
    }
    const CscMatrix a2(m, 160, std::move(colptr_a), std::move(rowind_a),
                       std::move(values_a));
    const CscMatrix u2(8, 160, std::move(colptr_u), std::move(rowind_u),
                       std::move(values_u));
    cases.push_back({"exact cancellations", a2, l, u2});
    // Explicit zeros in A (every third stored value).
    cases.push_back(
        {"explicit zeros in A",
         with_values(with_counts(m, ac, 7),
                     [](std::size_t p, double v) { return p % 3 ? v : 0.0; }),
         l, u});
    // Non-finite A and L entries with finite U: NaN in A and inf - inf
    // reach both modes and must be dropped by both.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    cases.push_back({"non-finite A and L",
                     with_values(with_counts(m, ac, 20),
                                 [&](std::size_t p, double v) {
                                   return p % 29 == 3 ? nan
                                          : p % 31 == 4 ? inf
                                                        : v;
                                 }),
                     with_values(l,
                                 [&](std::size_t p, double v) {
                                   return p % 50 == 1 ? -inf : v;
                                 }),
                     u});
    // Non-finite U entries in dense columns (and one NaN in a sparse one):
    // the axpy would turn the rows a heavy L column does not reach into NaN,
    // so those terms must be scattered.
    cases.push_back({"non-finite U", with_counts(m, ac, 8), l,
                     with_values(u, [&](std::size_t p, double v) {
                       if (p == 0) return nan;
                       if (p % 37 == 5) return inf;
                       if (p % 41 == 7) return -inf;
                       return v;
                     })});
  }
  {
    // Dense-ish everything, long enough for eight slices.
    std::vector<Index> ac, lc, uc;
    for (Index j = 0; j < 400; ++j) ac.push_back((j * 7) % 40);
    for (Index k = 0; k < 32; ++k) lc.push_back((k * 13) % 90);
    for (Index j = 0; j < 400; ++j) uc.push_back(j % 9);
    cases.push_back({"random mix", with_counts(m, ac, 9),
                     with_counts(m, lc, 10), with_counts(32, uc, 11)});
    // Tiny m (m/8 = 0: every nonempty column is dense) and odd widths.
    cases.push_back({"m = 5", with_counts(5, {0, 1, 2, 5, 3, 4}, 12),
                     with_counts(5, {2, 5, 0}, 13),
                     with_counts(3, {1, 2, 3, 0, 3, 2}, 14)});
    cases.push_back({"m = 7", with_counts(7, {7, 0, 3, 1}, 15),
                     with_counts(7, {2, 7}, 16),
                     with_counts(2, {2, 1, 0, 2}, 17)});
  }
  // Empty L and U.
  cases.push_back({"empty L and U", with_counts(m, {3, 0, 40, 203}, 18),
                   CscMatrix(m, 0), CscMatrix(0, 4)});
  cases.push_back({"no columns", CscMatrix(m, 0), with_counts(m, {4, 60}, 19),
                   CscMatrix(2, 0)});
  return cases;
}

TEST(SchurUpdate, BitwiseMatchesSortingReference) {
  // The slice-assembled update (sorted or scanned marked columns, mark-free
  // dense columns) must reproduce the sorting reference bit for bit.
  PoolGuard guard;
  for (const SchurCase& c : schur_cases()) {
    const CscMatrix want = ref::schur_update(c.a, c.l, c.u);
    for (const int w : {1, 2, 8}) {
      ThreadPool::global().set_num_threads(w);
      expect_bitwise(schur_update(c.a, c.l, c.u), want,
                     c.name + " at width " + std::to_string(w));
    }
  }
}

TEST(Spgemm, BitwiseMatchesSortingReference) {
  // spgemm keeps its cancellations and always accumulates with marks; long
  // columns gather by a scan of the marks instead of a sort. Each Schur case
  // gives three products: L * U (the same column bounds, A's part aside),
  // A * U^T, and [A L] * [I; -U], which accumulates A(:, j) - L U(:, j) in
  // the Schur update's order and stores its exact cancellations.
  PoolGuard guard;
  for (const SchurCase& c : schur_cases()) {
    std::vector<std::pair<CscMatrix, CscMatrix>> products = {
        {c.l, c.u}, {c.a, c.u.transposed()}};
    if (c.a.cols() > 0) {
      const CscMatrix neg_ut =
          with_values(c.u, [](std::size_t, double v) { return -v; })
              .transposed();
      products.push_back(
          {c.a.hcat(c.l),
           CscMatrix::from_dense(Matrix::identity(c.a.cols()))
               .hcat(neg_ut)
               .transposed()});
    }
    for (std::size_t t = 0; t < products.size(); ++t) {
      const auto& [x, y] = products[t];
      const CscMatrix want = ref::spgemm(x, y);
      for (const int w : {1, 2, 8}) {
        ThreadPool::global().set_num_threads(w);
        expect_bitwise(spgemm(x, y), want,
                       c.name + ", product " + std::to_string(t) +
                           " at width " + std::to_string(w));
      }
    }
  }
}

TEST(Spgemm, FillInAppearsWhereExpected) {
  // Arrow pattern: dense first row/col -> product with itself fills in.
  Matrix d(5, 5);
  for (Index i = 0; i < 5; ++i) {
    d(i, 0) = 1.0;
    d(0, i) = 1.0;
    d(i, i) = 2.0;
  }
  const CscMatrix a = CscMatrix::from_dense(d);
  const CscMatrix aa = spgemm(a, a);
  EXPECT_EQ(aa.nnz(), 25);  // fully dense product
}

}  // namespace
}  // namespace lra
