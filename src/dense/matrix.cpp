#include "dense/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>

#include "par/pool.hpp"
#include "support/rng.hpp"

namespace lra {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), 0.0) {
  assert(rows >= 0 && cols >= 0);
}

Matrix::Matrix(Index rows, Index cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  assert(rows >= 0 && cols >= 0 &&
         data_.size() == static_cast<std::size_t>(rows * cols));
}

Matrix Matrix::identity(Index n) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = 1.0;
  return a;
}

Matrix Matrix::gaussian(Index rows, Index cols, std::uint64_t seed,
                        std::uint64_t stream) {
  // Entries 2t and 2t + 1 are Box-Muller pair t, which draws counters
  // 2t + 1 and 2t + 2 unless an earlier pair rejected a u1 = 0 (probability
  // 2^-53 per pair) and shifted the stream. Each slice seeks to its first
  // pair and flags a rejection of its own; after any, the serial stream
  // differs from the chunks from there on, so the matrix is redrawn
  // serially. Either way the bits are the serial loop's.
  Matrix a(rows, cols);
  double* v = a.data_.data();
  const Index n = a.size();
  std::atomic<bool> shifted{false};
  ThreadPool::global().parallel_ranges(
      Index{0}, (n + 1) / 2, "gaussian", kGaussianForkElems / 2,
      [&](Index t0, Index t1, int /*slice*/) {
        CounterRng rng(seed, stream);
        rng.seek(static_cast<std::uint64_t>(2 * t0));
        for (Index i = 2 * t0; i < std::min(2 * t1, n); ++i)
          v[i] = rng.gaussian();
        if (rng.counter() != static_cast<std::uint64_t>(2 * t1))
          shifted.store(true, std::memory_order_relaxed);
      });
  if (shifted.load()) {
    CounterRng rng(seed, stream);
    for (Index i = 0; i < n; ++i) v[i] = rng.gaussian();
  }
  return a;
}

void Matrix::reshape(Index rows, Index cols) {
  assert(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<std::size_t>(rows * cols));
}

Matrix Matrix::block(Index r0, Index c0, Index nr, Index nc) const {
  assert(r0 >= 0 && c0 >= 0 && r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix b(nr, nc);
  if (nr == 0) return b;  // no data: memcpy must not see a null pointer
  for (Index j = 0; j < nc; ++j)
    std::memcpy(b.col(j), col(c0 + j) + r0,
                static_cast<std::size_t>(nr) * sizeof(double));
  return b;
}

void Matrix::set_block(Index r0, Index c0, const Matrix& b) {
  assert(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_);
  if (b.rows() == 0) return;  // no data: memcpy must not see a null pointer
  for (Index j = 0; j < b.cols(); ++j)
    std::memcpy(col(c0 + j) + r0, b.col(j),
                static_cast<std::size_t>(b.rows()) * sizeof(double));
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (Index j = 0; j < cols_; ++j)
    for (Index i = 0; i < rows_; ++i) t(j, i) = (*this)(i, j);
  return t;
}

void Matrix::append_cols(const Matrix& b) {
  if (empty() && rows_ == 0) {
    *this = b;
    return;
  }
  assert(rows_ == b.rows());
  data_.insert(data_.end(), b.data_.begin(), b.data_.end());
  cols_ += b.cols();
}

void Matrix::append_rows(const Matrix& b) {
  if (empty() && cols_ == 0) {
    *this = b;
    return;
  }
  assert(cols_ == b.cols());
  if (&b == this) {
    const Matrix copy = b;
    append_rows(copy);
    return;
  }
  const Index old = rows_, add = b.rows(), rows = old + add;
  if (add == 0) return;  // no data: memcpy must not see a null pointer
  // Grow the storage in place (capacity grows geometrically), then spread
  // the columns from the last to the first: column j moves up from j*old to
  // j*rows, past the end of every column still to be moved, and b's column
  // j fills the gap behind it.
  data_.resize(static_cast<std::size_t>(rows * cols_));
  for (Index j = cols_ - 1; j >= 0; --j) {
    double* dst = data_.data() + j * rows;
    if (j > 0 && old > 0)
      std::memmove(dst, data_.data() + j * old,
                   static_cast<std::size_t>(old) * sizeof(double));
    std::memcpy(dst + old, b.col(j),
                static_cast<std::size_t>(add) * sizeof(double));
  }
  rows_ = rows;
}

double Matrix::frobenius_norm_sq() const noexcept {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::frobenius_norm() const noexcept {
  return std::sqrt(frobenius_norm_sq());
}

double Matrix::max_abs() const noexcept {
  double s = 0.0;
  for (double v : data_) s = std::max(s, std::fabs(v));
  return s;
}

void Matrix::scale(double a) noexcept {
  for (double& v : data_) v *= a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double s = 0.0;
  for (Index j = 0; j < a.cols(); ++j)
    for (Index i = 0; i < a.rows(); ++i)
      s = std::max(s, std::fabs(a(i, j) - b(i, j)));
  return s;
}

}  // namespace lra
