#pragma once
// Column-major dense matrix. This is the only dense container in the library;
// all dense kernels (dense/blas.hpp, dense/qr.hpp, ...) operate on it.

#include <cstdint>
#include <utility>
#include <vector>

namespace lra {

using Index = std::int64_t;

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialized.
  Matrix(Index rows, Index cols);
  /// rows x cols over `data` (column-major, rows * cols entries), adopted
  /// without a copy.
  Matrix(Index rows, Index cols, std::vector<double> data);

  static Matrix zeros(Index rows, Index cols) { return Matrix(rows, cols); }
  static Matrix identity(Index n);
  /// iid standard-normal entries drawn from stream (seed, stream): entry i
  /// in column-major order is the i-th CounterRng::gaussian() of that
  /// stream, at any process/rank count (see support/rng.hpp) and any pool
  /// width. From kGaussianForkElems entries on, pool slices fill
  /// Box-Muller-pair-aligned chunks of the stream.
  static Matrix gaussian(Index rows, Index cols, std::uint64_t seed,
                         std::uint64_t stream = 0);
  static constexpr Index kGaussianForkElems = Index{1} << 13;

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  Index size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  double& operator()(Index i, Index j) noexcept { return data_[i + j * rows_]; }
  double operator()(Index i, Index j) const noexcept {
    return data_[i + j * rows_];
  }

  /// Pointer to the first element of column j.
  double* col(Index j) noexcept { return data_.data() + j * rows_; }
  const double* col(Index j) const noexcept { return data_.data() + j * rows_; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }
  /// Hand over the column-major storage without a copy.
  std::vector<double> release() && { return std::move(data_); }

  /// Re-shape to rows x cols, reusing the existing allocation when it is
  /// large enough (capacity is never released). Contents are unspecified
  /// afterwards; the `_into` kernel wrappers overwrite every element. This is
  /// what lets solver loops carry one buffer across iterations instead of
  /// reallocating.
  void reshape(Index rows, Index cols);

  /// Copy of the block A(r0 : r0+nr, c0 : c0+nc)  (half-open sizes).
  Matrix block(Index r0, Index c0, Index nr, Index nc) const;
  /// Write `b` into this matrix at offset (r0, c0).
  void set_block(Index r0, Index c0, const Matrix& b);

  Matrix transposed() const;

  /// Append columns of `b` on the right (rows must match; empty self ok).
  void append_cols(const Matrix& b);
  /// Append rows of `b` at the bottom (cols must match; empty self ok). The
  /// storage grows in place, so repeated appends amortize the allocation.
  void append_rows(const Matrix& b);

  /// Frobenius norm, max-abs-entry norm, and squared Frobenius norm.
  double frobenius_norm() const noexcept;
  double frobenius_norm_sq() const noexcept;
  double max_abs() const noexcept;

  void scale(double a) noexcept;

  bool operator==(const Matrix& o) const noexcept = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// max |A(i,j) - B(i,j)|; matrices must have equal shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace lra
