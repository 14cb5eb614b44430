#include "sparse/spgemm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "par/pool.hpp"

namespace lra {
namespace {

// Sparse accumulator (SPA) over m rows: dense value array + occupancy list.
class Spa {
 public:
  explicit Spa(Index m)
      : val_(static_cast<std::size_t>(m), 0.0),
        mark_(static_cast<std::size_t>(m), 0) {}

  void scatter(Index i, double v) {
    if (!mark_[i]) {
      mark_[i] = 1;
      nz_.push_back(i);
      val_[i] = v;
    } else {
      val_[i] += v;
    }
  }

  /// Flush the accumulated column into (rowind, values), sorted by row, then
  /// reset. With `keep_cancelled`, entries that cancelled to exactly zero are
  /// kept (they are real fill-in positions); without it, only entries with
  /// |value| > 0 are stored, so zeros and NaN are dropped.
  void gather(std::vector<Index>& rowind, std::vector<double>& values,
              bool keep_cancelled) {
    std::sort(nz_.begin(), nz_.end());
    for (Index i : nz_) {
      if (keep_cancelled || std::fabs(val_[i]) > 0.0) {
        rowind.push_back(i);
        values.push_back(val_[i]);
      }
      val_[i] = 0.0;
      mark_[i] = 0;
    }
    nz_.clear();
  }

 private:
  std::vector<double> val_;
  std::vector<char> mark_;
  std::vector<Index> nz_;
};

// Stitch per-column (rows, values) buffers into one CSC matrix.
CscMatrix stitch_columns(Index m, Index n,
                         std::vector<std::vector<Index>>& col_rows,
                         std::vector<std::vector<double>>& col_vals) {
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j)
    colptr[j + 1] = colptr[j] + static_cast<Index>(col_rows[j].size());
  std::vector<Index> rowind(static_cast<std::size_t>(colptr[n]));
  std::vector<double> values(static_cast<std::size_t>(colptr[n]));
  for (Index j = 0; j < n; ++j) {
    std::copy(col_rows[j].begin(), col_rows[j].end(),
              rowind.begin() + colptr[j]);
    std::copy(col_vals[j].begin(), col_vals[j].end(),
              values.begin() + colptr[j]);
  }
  return CscMatrix(m, n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace

CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b) {
  assert(a.cols() == b.rows());
  const Index m = a.rows(), n = b.cols();
  // Output columns are independent; compute them into per-column buffers
  // with one sparse accumulator per pool slice (each column's scatter order
  // is unchanged, so the result is bitwise identical to the serial path at
  // any thread count), then stitch into one CSC.
  std::vector<std::vector<Index>> col_rows_out(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> col_vals_out(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "spgemm", /*grain=*/16, [&](Index j0, Index j1, int) {
        Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
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
          spa.gather(col_rows_out[j], col_vals_out[j], /*keep_cancelled=*/true);
        }
      });
  return stitch_columns(m, n, col_rows_out, col_vals_out);
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
  // Same per-column-buffer scheme as spgemm: S(:, j) = A(:, j) - L U(:, j)
  // columns are independent, the per-column scatter order is unchanged, and
  // the stitch reassembles them in column order.
  std::vector<std::vector<Index>> col_rows_out(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> col_vals_out(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "schur", /*grain=*/16, [&](Index j0, Index j1, int) {
        Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
          const auto ar = a.col_rows(j);
          const auto av = a.col_values(j);
          for (std::size_t p = 0; p < ar.size(); ++p) spa.scatter(ar[p], av[p]);
          const auto ur = u.col_rows(j);
          const auto uv = u.col_values(j);
          for (std::size_t p = 0; p < ur.size(); ++p) {
            const Index k = ur[p];
            const double w = -uv[p];
            const auto lr = l.col_rows(k);
            const auto lv = l.col_values(k);
            for (std::size_t q = 0; q < lr.size(); ++q)
              spa.scatter(lr[q], lv[q] * w);
          }
          spa.gather(col_rows_out[j], col_vals_out[j],
                     /*keep_cancelled=*/false);
        }
      });
  return stitch_columns(m, n, col_rows_out, col_vals_out);
}

}  // namespace lra
