#include "sparse/csc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/bytes.hpp"

namespace lra {

CscMatrix::CscMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      colptr_(static_cast<std::size_t>(cols) + 1, 0) {}

CscMatrix::CscMatrix(Index rows, Index cols, std::vector<Index> colptr,
                     std::vector<Index> rowind, std::vector<double> values)
    : rows_(rows), cols_(cols), colptr_(std::move(colptr)),
      rowind_(std::move(rowind)), values_(std::move(values)) {
  assert(structurally_valid());
}

CscMatrix CscMatrix::from_dense(const Matrix& a, double drop_tol) {
  std::vector<Index> colptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      if (std::fabs(a(i, j)) > drop_tol) {
        rowind.push_back(i);
        values.push_back(a(i, j));
      }
    }
    colptr[j + 1] = static_cast<Index>(rowind.size());
  }
  return CscMatrix(a.rows(), a.cols(), std::move(colptr), std::move(rowind),
                   std::move(values));
}

Matrix CscMatrix::to_dense() const {
  Matrix a(rows_, cols_);
  for (Index j = 0; j < cols_; ++j)
    for (Index p = colptr_[j]; p < colptr_[j + 1]; ++p)
      a(rowind_[p], j) += values_[p];
  return a;
}

double CscMatrix::coeff(Index i, Index j) const noexcept {
  const Index lo = colptr_[j], hi = colptr_[j + 1];
  const auto* first = rowind_.data() + lo;
  const auto* last = rowind_.data() + hi;
  const auto* it = std::lower_bound(first, last, i);
  if (it == last || *it != i) return 0.0;
  return values_[lo + (it - first)];
}

CscMatrix CscMatrix::transposed() const {
  std::vector<Index> colptr(static_cast<std::size_t>(rows_) + 1, 0);
  for (Index r : rowind_) ++colptr[r + 1];
  for (Index i = 0; i < rows_; ++i) colptr[i + 1] += colptr[i];
  std::vector<Index> rowind(rowind_.size());
  std::vector<double> values(values_.size());
  std::vector<Index> next(colptr.begin(), colptr.end() - 1);
  for (Index j = 0; j < cols_; ++j) {
    for (Index p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      const Index q = next[rowind_[p]]++;
      rowind[q] = j;
      values[q] = values_[p];
    }
  }
  return CscMatrix(cols_, rows_, std::move(colptr), std::move(rowind),
                   std::move(values));
}

CscMatrix CscMatrix::select_columns(std::span<const Index> cols) const {
  std::vector<Index> colptr(cols.size() + 1, 0);
  Index total = 0;
  for (std::size_t j = 0; j < cols.size(); ++j) {
    total += col_nnz(cols[j]);
    colptr[j + 1] = total;
  }
  std::vector<Index> rowind(static_cast<std::size_t>(total));
  std::vector<double> values(static_cast<std::size_t>(total));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const Index src = cols[j];
    std::copy(rowind_.begin() + colptr_[src], rowind_.begin() + colptr_[src + 1],
              rowind.begin() + colptr[j]);
    std::copy(values_.begin() + colptr_[src], values_.begin() + colptr_[src + 1],
              values.begin() + colptr[j]);
  }
  return CscMatrix(rows_, static_cast<Index>(cols.size()), std::move(colptr),
                   std::move(rowind), std::move(values));
}

CscMatrix CscMatrix::block(Index r0, Index r1, Index c0, Index c1) const {
  assert(0 <= r0 && r0 <= r1 && r1 <= rows_);
  assert(0 <= c0 && c0 <= c1 && c1 <= cols_);
  std::vector<Index> colptr(static_cast<std::size_t>(c1 - c0) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  for (Index j = c0; j < c1; ++j) {
    const auto rows = col_rows(j);
    const auto vals = col_values(j);
    const auto* begin = rows.data();
    const auto* lo = std::lower_bound(begin, begin + rows.size(), r0);
    const auto* hi = std::lower_bound(begin, begin + rows.size(), r1);
    for (const auto* it = lo; it != hi; ++it) {
      rowind.push_back(*it - r0);
      values.push_back(vals[it - begin]);
    }
    colptr[j - c0 + 1] = static_cast<Index>(rowind.size());
  }
  return CscMatrix(r1 - r0, c1 - c0, std::move(colptr), std::move(rowind),
                   std::move(values));
}

CscMatrix CscMatrix::hcat(const CscMatrix& b) const {
  assert(rows_ == b.rows_);
  std::vector<Index> colptr;
  colptr.reserve(colptr_.size() + b.colptr_.size() - 1);
  colptr = colptr_;
  const Index base = nnz();
  for (std::size_t j = 1; j < b.colptr_.size(); ++j)
    colptr.push_back(base + b.colptr_[j]);
  std::vector<Index> rowind = rowind_;
  rowind.insert(rowind.end(), b.rowind_.begin(), b.rowind_.end());
  std::vector<double> values = values_;
  values.insert(values.end(), b.values_.begin(), b.values_.end());
  return CscMatrix(rows_, cols_ + b.cols_, std::move(colptr), std::move(rowind),
                   std::move(values));
}

CscMatrix CscMatrix::vcat(const CscMatrix& b) const {
  assert(cols_ == b.cols_);
  std::vector<Index> colptr(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  rowind.reserve(rowind_.size() + b.rowind_.size());
  values.reserve(values_.size() + b.values_.size());
  for (Index j = 0; j < cols_; ++j) {
    for (Index p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      rowind.push_back(rowind_[p]);
      values.push_back(values_[p]);
    }
    for (Index p = b.colptr_[j]; p < b.colptr_[j + 1]; ++p) {
      rowind.push_back(rows_ + b.rowind_[p]);
      values.push_back(b.values_[p]);
    }
    colptr[j + 1] = static_cast<Index>(rowind.size());
  }
  return CscMatrix(rows_ + b.rows_, cols_, std::move(colptr), std::move(rowind),
                   std::move(values));
}

double CscMatrix::frobenius_norm_sq() const noexcept {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return s;
}

double CscMatrix::frobenius_norm() const noexcept {
  return std::sqrt(frobenius_norm_sq());
}

double CscMatrix::max_abs() const noexcept {
  double s = 0.0;
  for (double v : values_) s = std::max(s, std::fabs(v));
  return s;
}

std::vector<double> CscMatrix::column_norms() const {
  std::vector<double> out(static_cast<std::size_t>(cols_), 0.0);
  for (Index j = 0; j < cols_; ++j) {
    double s = 0.0;
    for (double v : col_values(j)) s += v * v;
    out[j] = std::sqrt(s);
  }
  return out;
}

std::vector<Index> CscMatrix::nonempty_rows() const {
  std::vector<char> seen(static_cast<std::size_t>(rows_), 0);
  for (Index r : rowind_) seen[r] = 1;
  std::vector<Index> rows;
  for (Index i = 0; i < rows_; ++i)
    if (seen[i]) rows.push_back(i);
  return rows;
}

void CscMatrix::prune(double tol) {
  std::vector<Index> colptr(static_cast<std::size_t>(cols_) + 1, 0);
  Index w = 0;
  for (Index j = 0; j < cols_; ++j) {
    for (Index p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      if (std::fabs(values_[p]) > tol) {
        rowind_[w] = rowind_[p];
        values_[w] = values_[p];
        ++w;
      }
    }
    colptr[j + 1] = w;
  }
  rowind_.resize(static_cast<std::size_t>(w));
  values_.resize(static_cast<std::size_t>(w));
  colptr_ = std::move(colptr);
}

bool CscMatrix::valid_structure(Index rows, Index cols,
                                std::span<const Index> colptr,
                                std::span<const Index> rowind,
                                std::size_t nvalues) {
  if (rows < 0 || cols < 0 ||
      colptr.size() != static_cast<std::size_t>(cols) + 1 ||
      rowind.size() != nvalues || colptr.front() != 0 ||
      colptr.back() != static_cast<Index>(rowind.size()))
    return false;
  // Every offset first, so that the row scan below stays inside rowind.
  for (Index j = 0; j < cols; ++j)
    if (colptr[j] > colptr[j + 1]) return false;
  for (Index j = 0; j < cols; ++j) {
    for (Index p = colptr[j]; p < colptr[j + 1]; ++p) {
      if (rowind[p] < 0 || rowind[p] >= rows) return false;
      if (p > colptr[j] && rowind[p - 1] >= rowind[p]) return false;
    }
  }
  return true;
}

bool CscMatrix::structurally_valid() const {
  return valid_structure(rows_, cols_, colptr_, rowind_, values_.size());
}

void put_csc_arrays(ByteWriter& w, const CscMatrix& a) {
  w.put_vec(a.colptr());
  w.put_vec(a.rowind());
  w.put_vec(a.values());
}

CscMatrix get_csc_arrays(ByteReader& r, Index rows, Index cols) {
  auto colptr = r.get_vec<Index>();
  auto rowind = r.get_vec<Index>();
  auto values = r.get_vec<double>();
  if (!CscMatrix::valid_structure(rows, cols, colptr, rowind, values.size()))
    throw std::out_of_range("invalid sparse structure for a " +
                            std::to_string(rows) + " x " +
                            std::to_string(cols) + " matrix");
  return CscMatrix(rows, cols, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace lra
