#pragma once
// Triplet (COO) accumulator for assembling sparse matrices. Duplicate
// entries are summed on build, matching Matrix Market semantics, in the
// order they were added.

#include <vector>

#include "sparse/csc.hpp"

namespace lra {

class CooBuilder {
 public:
  CooBuilder(Index rows, Index cols) : rows_(rows), cols_(cols) {}

  void add(Index i, Index j, double v);
  void reserve(std::size_t n);
  std::size_t entries() const { return is_.size(); }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// Emit CSC: bucket the entries by column, order each column by row
  /// (stably, so the sort is linear when rows arrive in order), sum
  /// repeated (i, j) entries in insertion order — ((0 + v1) + v2) + v3 —
  /// and drop exact zeros. Allocates O(cols + entries), nothing per row.
  CscMatrix build() const;

 private:
  Index rows_, cols_;
  std::vector<Index> is_, js_;
  std::vector<double> vs_;
};

}  // namespace lra
