#include "sparse/coo.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lra {

void CooBuilder::add(Index i, Index j, double v) {
  assert(0 <= i && i < rows_ && 0 <= j && j < cols_);
  is_.push_back(i);
  js_.push_back(j);
  vs_.push_back(v);
}

void CooBuilder::reserve(std::size_t n) {
  is_.reserve(n);
  js_.reserve(n);
  vs_.reserve(n);
}

CscMatrix CooBuilder::build() const {
  // Bucket the entries by column, each bucket in insertion order. The column
  // pointers double as the bucket cursors: after the scatter colptr[j] is
  // where bucket j ends, and the compaction below rewrites it to where
  // column j starts.
  std::vector<Index> colptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const Index j : js_) ++colptr[j + 1];
  for (Index j = 0; j < cols_; ++j) colptr[j + 1] += colptr[j];
  std::vector<Index> rowind(is_.size());
  std::vector<double> values(is_.size());
  for (std::size_t t = 0; t < is_.size(); ++t) {
    const Index p = colptr[js_[t]]++;
    rowind[p] = is_[t];
    values[p] = vs_[t];
  }

  // Order each column by row, stably, so repeated (i, j) entries stay in
  // insertion order; a column whose rows arrived sorted is left as it is.
  // Then sum the repeats and drop exact zeros, compacting in place.
  std::vector<std::pair<Index, double>> col;
  Index begin = 0, out = 0;
  for (Index j = 0; j < cols_; ++j) {
    const Index end = colptr[j];
    if (!std::is_sorted(rowind.begin() + begin, rowind.begin() + end)) {
      col.clear();
      for (Index p = begin; p < end; ++p) col.emplace_back(rowind[p], values[p]);
      std::stable_sort(col.begin(), col.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (Index p = begin; p < end; ++p) {
        rowind[p] = col[static_cast<std::size_t>(p - begin)].first;
        values[p] = col[static_cast<std::size_t>(p - begin)].second;
      }
    }
    colptr[j] = out;
    for (Index p = begin; p < end;) {
      const Index i = rowind[p];
      double sum = 0.0;
      while (p < end && rowind[p] == i) sum += values[p++];
      if (sum != 0.0) {
        rowind[out] = i;
        values[out] = sum;
        ++out;
      }
    }
    begin = end;
  }
  colptr[cols_] = out;
  rowind.resize(static_cast<std::size_t>(out));
  values.resize(static_cast<std::size_t>(out));
  return CscMatrix(rows_, cols_, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace lra
