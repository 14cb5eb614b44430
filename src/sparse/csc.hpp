#pragma once
// Compressed sparse column matrix — the central sparse container. Row indices
// within each column are kept sorted; explicit zeros are allowed but the
// canonicalizing constructors remove them.

#include <span>
#include <vector>

#include "dense/matrix.hpp"

namespace lra {

class ByteReader;  // support/bytes.hpp
class ByteWriter;

class CscMatrix {
 public:
  CscMatrix() = default;
  /// Empty (all-zero) matrix of the given shape.
  CscMatrix(Index rows, Index cols);
  /// From raw CSC arrays (must be well-formed; rows sorted per column).
  CscMatrix(Index rows, Index cols, std::vector<Index> colptr,
            std::vector<Index> rowind, std::vector<double> values);

  static CscMatrix from_dense(const Matrix& a, double drop_tol = 0.0);
  Matrix to_dense() const;

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  Index nnz() const noexcept { return static_cast<Index>(rowind_.size()); }
  double density() const noexcept {
    return rows_ == 0 || cols_ == 0
               ? 0.0
               : static_cast<double>(nnz()) /
                     (static_cast<double>(rows_) * static_cast<double>(cols_));
  }

  const std::vector<Index>& colptr() const noexcept { return colptr_; }
  const std::vector<Index>& rowind() const noexcept { return rowind_; }
  const std::vector<double>& values() const noexcept { return values_; }
  std::vector<double>& values() noexcept { return values_; }

  /// Row indices / values of column j as spans.
  std::span<const Index> col_rows(Index j) const noexcept {
    return {rowind_.data() + colptr_[j],
            static_cast<std::size_t>(colptr_[j + 1] - colptr_[j])};
  }
  std::span<const double> col_values(Index j) const noexcept {
    return {values_.data() + colptr_[j],
            static_cast<std::size_t>(colptr_[j + 1] - colptr_[j])};
  }
  Index col_nnz(Index j) const noexcept { return colptr_[j + 1] - colptr_[j]; }

  /// Element lookup by binary search (O(log nnz(col))).
  double coeff(Index i, Index j) const noexcept;

  CscMatrix transposed() const;

  /// Columns `cols[0..]` of this matrix, in that order.
  CscMatrix select_columns(std::span<const Index> cols) const;
  /// Submatrix with rows in [r0, r1) and columns in [c0, c1), reindexed.
  CscMatrix block(Index r0, Index r1, Index c0, Index c1) const;

  /// Horizontal concatenation [this, b].
  CscMatrix hcat(const CscMatrix& b) const;
  /// Vertical concatenation [this; b].
  CscMatrix vcat(const CscMatrix& b) const;

  double frobenius_norm() const noexcept;
  double frobenius_norm_sq() const noexcept;
  double max_abs() const noexcept;

  /// Per-column Euclidean norms.
  std::vector<double> column_norms() const;

  /// Number of structurally non-empty rows, and the list of such rows (sorted).
  std::vector<Index> nonempty_rows() const;

  /// Remove stored entries with |value| <= tol (exact zeros when tol = 0).
  void prune(double tol = 0.0);

  /// True when the arrays describe a valid CSC structure: `colptr` holds
  /// cols + 1 nondecreasing offsets from 0 to rowind.size(), there are as
  /// many values as row indices, and each column's row indices strictly
  /// increase within [0, rows). Safe on arbitrary (corrupted) input;
  /// get_csc_arrays checks with it before constructing.
  static bool valid_structure(Index rows, Index cols,
                              std::span<const Index> colptr,
                              std::span<const Index> rowind,
                              std::size_t nvalues);
  /// valid_structure() of this matrix (the constructors' invariant).
  bool structurally_valid() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> colptr_{0};
  std::vector<Index> rowind_;
  std::vector<double> values_;
};

/// The one CSC encoding of factor files and tournament payloads: `a`'s
/// colptr, rowind and values, each a u64-prefixed vector (the shape is the
/// caller's to store).
void put_csc_arrays(ByteWriter& w, const CscMatrix& a);
/// The rows x cols matrix put_csc_arrays encoded. Throws std::out_of_range
/// on truncated input and on arrays that fail valid_structure(), so
/// corrupted index data never reaches a kernel.
CscMatrix get_csc_arrays(ByteReader& r, Index rows, Index cols);

}  // namespace lra
