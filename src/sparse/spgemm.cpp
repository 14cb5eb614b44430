#include "sparse/spgemm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "dense/blas.hpp"
#include "par/pool.hpp"

namespace lra {
namespace {

// Minimum columns per pool slice (as in the other sparse kernels).
constexpr Index kGrain = 16;

// A column whose row count (or, in the Schur update, row bound) exceeds
// m / kDenseShare gathers by scanning the rows in order instead of sorting
// its row list; in the Schur update it is also accumulated without marks.
// An L column with more than m / kAxpyShare nonzeros is added to such a
// column by a dense axpy.
constexpr Index kDenseShare = 8;
constexpr Index kAxpyShare = 4;

// Sparse accumulator (SPA) over m rows: a dense value array, kept all zero
// between columns, plus an occupancy mark and row list for the marked mode.
class Spa {
 public:
  explicit Spa(Index m)
      : val_(static_cast<std::size_t>(m), 0.0),
        mark_(static_cast<std::size_t>(m), 0) {}

  /// The value array, for accumulating a column without marks.
  double* dense() { return val_.data(); }

  void scatter(Index i, double v) {
    if (!mark_[i]) {
      mark_[i] = 1;
      nz_.push_back(i);
      val_[i] = v;
    } else {
      val_[i] += v;
    }
  }

  /// Append the marked entries to (rows, values) in row order and reset.
  /// A short row list is sorted; a long one (over m / kDenseShare) is
  /// replaced by a scan of the marks. With `keep_cancelled`, entries that
  /// cancelled to exactly zero are kept (they are real fill-in positions);
  /// without it, only entries with |value| > 0 are stored, so zeros and NaN
  /// are dropped.
  void gather(std::vector<Index>& rows, std::vector<double>& values,
              bool keep_cancelled) {
    const auto emit = [&](Index i) {
      if (keep_cancelled || std::fabs(val_[i]) > 0.0) {
        rows.push_back(i);
        values.push_back(val_[i]);
      }
      val_[i] = 0.0;
      mark_[i] = 0;
    };
    const Index m = static_cast<Index>(val_.size());
    if (static_cast<Index>(nz_.size()) > m / kDenseShare) {
      for (Index i = 0; i < m; ++i)
        if (mark_[i]) emit(i);
    } else {
      std::sort(nz_.begin(), nz_.end());
      for (Index i : nz_) emit(i);
    }
    nz_.clear();
  }

  /// Append the entries of a column accumulated in dense() with |value| > 0,
  /// scanning the rows in order, and zero the array. The scan compacts
  /// straight into the output without a branch per row (a dense column's
  /// kept rows follow no pattern a branch predictor could learn).
  void gather_dense(std::vector<Index>& rows, std::vector<double>& values) {
    const std::size_t m = val_.size(), start = rows.size();
    rows.resize(start + m);
    values.resize(start + m);
    Index* kr = rows.data() + start;
    double* kv = values.data() + start;
    std::size_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double v = val_[i];
      kr[count] = static_cast<Index>(i);
      kv[count] = v;
      count += std::fabs(v) > 0.0;
    }
    rows.resize(start + count);
    values.resize(start + count);
    std::fill(val_.begin(), val_.end(), 0.0);
  }

 private:
  std::vector<double> val_;
  std::vector<char> mark_;
  std::vector<Index> nz_;
};

// One pool slice's output: its columns' rows and values, in column order.
struct Slice {
  Index j0 = 0, j1 = 0;
  std::vector<Index> rows;
  std::vector<double> values;
};

// An m x n CSC matrix assembled from independent columns. Each pool slice
// appends its columns to one row and one value buffer with
// column(j, spa, rows, values) and records their counts, which become the
// column pointers; the slices are then copied into place by the same
// slicing, or moved when one slice made every column. A slice's buffers
// start with the capacity that `hint` (column pointers, or empty for none)
// gives its columns and grow from there. Each column is computed by one
// slice in the serial loop's order, so the result is bitwise identical at
// any pool width.
template <typename Column>
CscMatrix assemble_by_slices(Index m, Index n, const char* label,
                             std::span<const Index> hint, Column&& column) {
  ThreadPool& pool = ThreadPool::global();
  std::vector<Slice> slices(static_cast<std::size_t>(pool.num_threads()));
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  pool.parallel_ranges(
      Index{0}, n, label, kGrain, [&](Index j0, Index j1, int s) {
        Slice& out = slices[static_cast<std::size_t>(s)];
        out.j0 = j0;
        out.j1 = j1;
        if (!hint.empty()) {
          const auto cap = static_cast<std::size_t>(hint[j1] - hint[j0]);
          out.rows.reserve(cap);
          out.values.reserve(cap);
        }
        Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
          const std::size_t before = out.rows.size();
          column(j, spa, out.rows, out.values);
          colptr[j + 1] = static_cast<Index>(out.rows.size() - before);
        }
      });
  for (Index j = 0; j < n; ++j) colptr[j + 1] += colptr[j];
  if (slices.front().j1 == n)
    return CscMatrix(m, n, std::move(colptr), std::move(slices.front().rows),
                     std::move(slices.front().values));

  std::vector<Index> rowind(static_cast<std::size_t>(colptr[n]));
  std::vector<double> values(static_cast<std::size_t>(colptr[n]));
  pool.parallel_ranges(
      Index{0}, n, label, kGrain, [&](Index j0, Index j1, int s) {
        const Slice& in = slices[static_cast<std::size_t>(s)];
        assert(in.j0 == j0 && in.j1 == j1);
        (void)j1;
        std::copy(in.rows.begin(), in.rows.end(), rowind.begin() + colptr[j0]);
        std::copy(in.values.begin(), in.values.end(),
                  values.begin() + colptr[j0]);
      });
  return CscMatrix(m, n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace

CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b) {
  assert(a.cols() == b.rows());
  return assemble_by_slices(
      a.rows(), b.cols(), "spgemm", {},
      [&](Index j, Spa& spa, std::vector<Index>& rows,
          std::vector<double>& values) {
        const auto brows = b.col_rows(j);
        const auto bvals = b.col_values(j);
        for (std::size_t p = 0; p < brows.size(); ++p) {
          const Index k = brows[p];
          const double w = bvals[p];
          const auto arows = a.col_rows(k);
          const auto avals = a.col_values(k);
          for (std::size_t q = 0; q < arows.size(); ++q)
            spa.scatter(arows[q], avals[q] * w);
        }
        spa.gather(rows, values, /*keep_cancelled=*/true);
      });
}

CscMatrix spadd(const CscMatrix& a, const CscMatrix& b, double alpha,
                double beta) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  std::vector<Index> colptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  for (Index j = 0; j < a.cols(); ++j) {
    const auto ar = a.col_rows(j);
    const auto av = a.col_values(j);
    const auto br = b.col_rows(j);
    const auto bv = b.col_values(j);
    std::size_t p = 0, q = 0;
    while (p < ar.size() || q < br.size()) {
      Index i;
      double v;
      if (q >= br.size() || (p < ar.size() && ar[p] < br[q])) {
        i = ar[p];
        v = alpha * av[p++];
      } else if (p >= ar.size() || br[q] < ar[p]) {
        i = br[q];
        v = beta * bv[q++];
      } else {
        i = ar[p];
        v = alpha * av[p++] + beta * bv[q++];
      }
      rowind.push_back(i);
      values.push_back(v);
    }
    colptr[j + 1] = static_cast<Index>(rowind.size());
  }
  return CscMatrix(a.rows(), a.cols(), std::move(colptr), std::move(rowind),
                   std::move(values));
}

CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                       const CscMatrix& u) {
  assert(a.rows() == l.rows() && a.cols() == u.cols() && l.cols() == u.rows());
  const Index m = a.rows(), n = a.cols();
  // Dense copies of L's heavy columns (more than m / kAxpyShare nonzeros);
  // heavy[k] is column k's offset in `ldense`, or -1.
  std::vector<Index> heavy(static_cast<std::size_t>(l.cols()), -1);
  Index nheavy = 0;
  for (Index k = 0; k < l.cols(); ++k)
    if (l.col_nnz(k) > m / kAxpyShare) heavy[k] = m * nheavy++;
  std::vector<double> ldense(static_cast<std::size_t>(m * nheavy), 0.0);
  for (Index k = 0; k < l.cols(); ++k) {
    if (heavy[k] < 0) continue;
    const auto lr = l.col_rows(k);
    const auto lv = l.col_values(k);
    for (std::size_t q = 0; q < lr.size(); ++q)
      ldense[heavy[k] + lr[q]] = lv[q];
  }

  // S(:, j) = A(:, j) - L U(:, j): A's entries first, then -L(:, k) U(k, j)
  // for U's nonzeros in row order, each product rounded before it is added.
  // A column whose bound nnz A(:, j) + sum nnz L(:, k) over U(:, j) exceeds
  // m / kDenseShare accumulates in the SPA's value array without marks and
  // gathers by a scan. A heavy L column enters it by an axpy over all m
  // rows: the rows it does not reach get exact zeros, which leave every
  // nonzero sum unchanged, unless its U entry is not finite (0 * inf is
  // NaN), so such a term is scattered instead.
  // S's columns hold A's rows up to cancellation, so A's counts start the
  // slice buffers.
  return assemble_by_slices(
      m, n, "schur", a.colptr(),
      [&](Index j, Spa& spa, std::vector<Index>& rows,
          std::vector<double>& values) {
        const auto ar = a.col_rows(j);
        const auto av = a.col_values(j);
        const auto ur = u.col_rows(j);
        const auto uv = u.col_values(j);
        Index bound = static_cast<Index>(ar.size());
        for (const Index k : ur) bound += l.col_nnz(k);
        if (bound > m / kDenseShare) {
          double* x = spa.dense();
          for (std::size_t p = 0; p < ar.size(); ++p) x[ar[p]] = av[p];
          for (std::size_t p = 0; p < ur.size(); ++p) {
            const Index k = ur[p];
            const double w = -uv[p];
            if (heavy[k] >= 0 && std::isfinite(w)) {
              axpy(m, w, ldense.data() + heavy[k], x);
              continue;
            }
            const auto lr = l.col_rows(k);
            const auto lv = l.col_values(k);
            for (std::size_t q = 0; q < lr.size(); ++q) x[lr[q]] += lv[q] * w;
          }
          spa.gather_dense(rows, values);
          return;
        }
        for (std::size_t p = 0; p < ar.size(); ++p) spa.scatter(ar[p], av[p]);
        for (std::size_t p = 0; p < ur.size(); ++p) {
          const Index k = ur[p];
          const double w = -uv[p];
          const auto lr = l.col_rows(k);
          const auto lv = l.col_values(k);
          for (std::size_t q = 0; q < lr.size(); ++q)
            spa.scatter(lr[q], lv[q] * w);
        }
        spa.gather(rows, values, /*keep_cancelled=*/false);
      });
}

}  // namespace lra
