#include "qrtp/tournament.hpp"

#include <algorithm>
#include <numeric>

#include "par/pool.hpp"
#include "qrtp/panel.hpp"

namespace lra {
namespace {

// Below this many candidate entries (ncand x k) the whole tree costs less
// than a pool fork-join, so it runs inline on the caller.
constexpr Index kForkWork = 8192;

// The reduction tree shared by the column and row tournaments. `play(ids)`
// selects up to k winners among the candidate ids. Leaf b plays the ids
// [2kb, min(2k(b+1), ncand)); each internal level pairs neighbours
// (2b, 2b+1), concatenates their winners and plays them off, and an odd node
// out advances unchanged. Leaves and the nodes of one level are independent,
// so each level is a parallel_for over nodes writing its result by node
// index — the winners are identical at any pool width.
template <typename Play>
std::vector<Index> play_tree(std::span<const Index> cand, Index k,
                             Play&& play) {
  const Index ncand = static_cast<Index>(cand.size());
  const Index width = 2 * k;
  const Index nleaves = (ncand + width - 1) / width;
  if (nleaves == 0) return {};
  const bool fork = ncand * k >= kForkWork;
  auto for_each_node = [&](Index count, auto&& fn) {
    if (fork)
      ThreadPool::global().parallel_for(Index{0}, count, "qr_tp", fn,
                                        /*grain=*/1);
    else
      for (Index b = 0; b < count; ++b) fn(b);
  };

  std::vector<std::vector<Index>> level(static_cast<std::size_t>(nleaves));
  for_each_node(nleaves, [&](Index b) {
    const Index j0 = b * width;
    level[static_cast<std::size_t>(b)] =
        play(cand.subspan(j0, std::min(width, ncand - j0)));
  });

  while (level.size() > 1) {
    const Index pairs = static_cast<Index>(level.size() / 2);
    std::vector<std::vector<Index>> next(level.size() - level.size() / 2);
    for_each_node(pairs, [&](Index b) {
      std::vector<Index> ids = std::move(level[2 * b]);
      const auto& right = level[2 * b + 1];
      ids.insert(ids.end(), right.begin(), right.end());
      next[static_cast<std::size_t>(b)] = play(ids);
    });
    if (level.size() % 2 == 1) next.back() = std::move(level.back());
    level = std::move(next);
  }
  return std::move(level.front());
}

}  // namespace

std::vector<Index> qr_tp_select(const CscMatrix& a,
                                std::span<const Index> active_cols, Index k) {
  return play_tree(active_cols, k, [&](std::span<const Index> ids) {
    return select_k(make_candidates(a, ids), k);
  });
}

std::vector<Index> qr_tp_select(const CscMatrix& a, Index k) {
  std::vector<Index> all(static_cast<std::size_t>(a.cols()));
  std::iota(all.begin(), all.end(), Index{0});
  return qr_tp_select(a, all, k);
}

std::vector<Index> qr_tp_select_rows(const Matrix& q,
                                     std::span<const Index> global_rows,
                                     Index k) {
  // Column tournament on q^T: candidates are rows of q, each of length k,
  // played by their positions into q's rows.
  std::vector<Index> rows(static_cast<std::size_t>(q.rows()));
  std::iota(rows.begin(), rows.end(), Index{0});
  const std::vector<Index> win =
      play_tree(rows, k, [&](std::span<const Index> pos) {
        Matrix t(q.cols(), static_cast<Index>(pos.size()));
        for (std::size_t c = 0; c < pos.size(); ++c)
          for (Index j = 0; j < q.cols(); ++j)
            t(j, static_cast<Index>(c)) = q(pos[c], j);
        return select_k_dense(t, pos, k);
      });

  std::vector<Index> out;
  out.reserve(win.size());
  for (Index p : win) out.push_back(global_rows[p]);
  return out;
}

}  // namespace lra
