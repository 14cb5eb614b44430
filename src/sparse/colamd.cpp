#include "sparse/colamd.hpp"

#include <vector>

#include "sparse/etree.hpp"

namespace lra {
namespace {

// Binary min-heap of columns keyed on (score, column id), with each column's
// heap slot tracked so a changed score can be sifted in place. Every slot
// carries its key inline, so a comparison touches only the heap array. The
// id tie-break makes the minimum unique, hence the elimination order a pure
// function of the scores.
class ColumnHeap {
 public:
  explicit ColumnHeap(const std::vector<Index>& score)
      : heap_(score.size()), slot_(score.size()) {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = {score[i], static_cast<Index>(i)};
      slot_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  bool empty() const { return heap_.empty(); }

  Index pop() {
    const Index top = heap_.front().col;
    place(0, heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Give column c (still in the heap) the score `score` and restore order:
  /// a smaller key can only rise, a larger one only sink.
  void update(Index c, Index score) {
    const std::size_t i = slot_[c];
    const bool rises = score < heap_[i].score;
    heap_[i].score = score;
    if (rises)
      sift_up(i);
    else
      sift_down(i);
  }

 private:
  struct Key {
    Index score;
    Index col;
    bool operator<(const Key& o) const {
      return score != o.score ? score < o.score : col < o.col;
    }
  };

  void place(std::size_t i, Key k) {
    heap_[i] = k;
    slot_[k.col] = i;
  }
  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(k < heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, k);
  }
  void sift_down(std::size_t i) {
    const Key k = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < k)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, k);
  }

  std::vector<Key> heap_;
  std::vector<std::size_t> slot_;
};

}  // namespace

Perm colamd_order(const CscMatrix& a) {
  const Index n = a.cols();
  // Row and column adjacency, mutable during elimination. Pivot rows created
  // by elimination are appended after the original rows. A column's row list
  // may hold absorbed (dead) rows; it is compacted whenever the dead entries
  // outnumber the live ones.
  std::vector<std::vector<Index>> row2col(static_cast<std::size_t>(a.rows()));
  std::vector<std::vector<Index>> col2row(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j)
    for (Index r : a.col_rows(j)) {
      row2col[r].push_back(j);
      col2row[j].push_back(r);
    }
  std::vector<char> row_alive(row2col.size(), 1);
  std::vector<char> col_done(static_cast<std::size_t>(n), 0);
  std::vector<Index> live_rows(static_cast<std::size_t>(n), 0);

  // Approximate external degree: sum over alive rows of (row length - 1),
  // COLAMD's upper bound on |Adj(j)| in the quotient graph. An alive row
  // never holds an eliminated column, so its length is fixed while it lives
  // and the sum can be kept exactly by deltas: eliminating j removes each
  // absorbed row from its columns' sums and adds the new pivot row to the
  // sums of its columns — the only columns whose score changes.
  std::vector<Index> score(static_cast<std::size_t>(n), 0);
  for (Index j = 0; j < n; ++j) {
    for (Index r : col2row[j])
      score[j] += static_cast<Index>(row2col[r].size()) - 1;
    live_rows[j] = static_cast<Index>(col2row[j].size());
  }
  std::vector<Index> delta(static_cast<std::size_t>(n), 0);
  ColumnHeap heap(score);

  Perm order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> in_pivot(static_cast<std::size_t>(n), 0);
  std::vector<Index> pivot_cols;

  while (!heap.empty()) {
    const Index j = heap.pop();
    col_done[j] = 1;
    order.push_back(j);

    // Form the pivot row: union of the columns of all rows incident to j,
    // excluding eliminated columns; absorb (kill) those rows.
    pivot_cols.clear();
    for (Index r : col2row[j]) {
      if (!row_alive[r]) continue;
      row_alive[r] = 0;
      const Index len = static_cast<Index>(row2col[r].size()) - 1;
      for (Index c : row2col[r]) {
        if (col_done[c]) continue;
        delta[c] -= len;
        --live_rows[c];
        if (in_pivot[c]) continue;
        in_pivot[c] = 1;
        pivot_cols.push_back(c);
      }
      row2col[r].clear();
      row2col[r].shrink_to_fit();
    }
    col2row[j].clear();
    col2row[j].shrink_to_fit();
    if (pivot_cols.empty()) continue;

    const Index pr = static_cast<Index>(row2col.size());
    const Index plen = static_cast<Index>(pivot_cols.size()) - 1;
    row2col.push_back(pivot_cols);
    row_alive.push_back(1);
    // One column at a time: each update() needs every other key unchanged.
    for (Index c : pivot_cols) {
      in_pivot[c] = 0;
      auto& rows = col2row[c];
      if (static_cast<Index>(rows.size()) > 2 * live_rows[c] + 8) {
        std::erase_if(rows, [&](Index r) { return !row_alive[r]; });
      }
      rows.push_back(pr);
      ++live_rows[c];
      score[c] += delta[c] + plen;
      delta[c] = 0;
      heap.update(c, score[c]);
    }
  }
  return order;
}

Perm colamd_postordered(const CscMatrix& a) {
  const Perm ord = colamd_order(a);
  const CscMatrix reord = permute_columns(a, ord);
  const Perm post = etree_postorder(column_etree(reord));
  return compose(ord, post);
}

}  // namespace lra
