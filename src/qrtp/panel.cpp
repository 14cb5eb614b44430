#include "qrtp/panel.hpp"

#include <algorithm>
#include <cassert>

#include "dense/qrcp.hpp"

namespace lra {

namespace {

// Panel row of each row of the matrix a node reads, -1 outside a node: one
// map per thread (tournament nodes run on the pool), grown to the largest
// row count seen and reset after every node, so a node costs O(its nonzeros)
// on top of its panel, never O(m).
thread_local std::vector<Index> tl_panel_row;

}  // namespace

std::vector<Index> select_k(const CscMatrix& a, std::span<const Index> ids,
                            Index k) {
  const Index ncand = static_cast<Index>(ids.size());
  if (ncand <= k) return {ids.begin(), ids.end()};

  // The candidates' nonempty rows (rows holding any stored entry), in
  // ascending order, numbered as the panel's rows.
  std::vector<Index>& row = tl_panel_row;
  if (static_cast<Index>(row.size()) < a.rows())
    row.resize(static_cast<std::size_t>(a.rows()), -1);
  std::vector<Index> live;
  for (const Index c : ids)
    for (const Index r : a.col_rows(c))
      if (row[r] < 0) {
        row[r] = 0;
        live.push_back(r);
      }
  if (live.empty()) {
    // All-zero candidates: any k will do; keep the leftmost for determinism.
    return {ids.begin(), ids.begin() + k};
  }
  std::sort(live.begin(), live.end());
  for (std::size_t p = 0; p < live.size(); ++p)
    row[live[p]] = static_cast<Index>(p);

  Matrix panel(static_cast<Index>(live.size()), ncand);
  for (Index t = 0; t < ncand; ++t) {
    const auto rows = a.col_rows(ids[t]);
    const auto vals = a.col_values(ids[t]);
    double* pt = panel.col(t);
    for (std::size_t p = 0; p < rows.size(); ++p) pt[row[rows[p]]] = vals[p];
  }
  for (const Index r : live) row[r] = -1;

  const QRCP f(std::move(panel), k);
  std::vector<Index> winners;
  winners.reserve(static_cast<std::size_t>(k));
  for (Index j = 0; j < k; ++j) winners.push_back(ids[f.perm()[j]]);
  return winners;
}

std::vector<Index> select_k_dense(const Matrix& a,
                                  std::span<const Index> global_index,
                                  Index k) {
  assert(a.cols() == static_cast<Index>(global_index.size()));
  if (a.cols() <= k) return {global_index.begin(), global_index.end()};
  QRCP f(a, k);
  std::vector<Index> winners;
  winners.reserve(static_cast<std::size_t>(k));
  for (Index j = 0; j < k; ++j) winners.push_back(global_index[f.perm()[j]]);
  return winners;
}

std::vector<std::byte> pack_candidates(const CandidateColumns& cand) {
  ByteWriter w;
  w.put<std::int64_t>(cand.cols.rows());
  w.put_vec(cand.global_index);
  w.put_vec(cand.cols.colptr());
  w.put_vec(cand.cols.rowind());
  w.put_vec(cand.cols.values());
  return w.take();
}

CandidateColumns unpack_candidates(const std::vector<std::byte>& bytes) {
  ByteReader r(bytes);
  const Index rows = r.get<std::int64_t>();
  CandidateColumns cand;
  cand.global_index = r.get_vec<Index>();
  auto colptr = r.get_vec<Index>();
  auto rowind = r.get_vec<Index>();
  auto values = r.get_vec<double>();
  cand.cols = CscMatrix(rows, static_cast<Index>(cand.global_index.size()),
                        std::move(colptr), std::move(rowind), std::move(values));
  return cand;
}

CandidateColumns merge(const CandidateColumns& a, const CandidateColumns& b) {
  CandidateColumns out;
  out.global_index = a.global_index;
  out.global_index.insert(out.global_index.end(), b.global_index.begin(),
                          b.global_index.end());
  out.cols = a.cols.hcat(b.cols);
  return out;
}

}  // namespace lra
