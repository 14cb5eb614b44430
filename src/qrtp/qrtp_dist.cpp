#include "qrtp/qrtp_dist.hpp"

#include <numeric>

#include "obs/prof/phase.hpp"
#include "qrtp/tournament.hpp"
#include "support/bytes.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;

constexpr int kTagTournament = 71;

CandidateColumns local_winners(const CscMatrix& cols,
                               std::span<const Index> global_index, Index k) {
  CandidateColumns out;
  if (cols.cols() <= k) {
    out.cols = cols;
    out.global_index.assign(global_index.begin(), global_index.end());
    return out;
  }
  std::vector<Index> positions(static_cast<std::size_t>(cols.cols()));
  std::iota(positions.begin(), positions.end(), Index{0});
  const std::vector<Index> win = qr_tp_select(cols, positions, k);
  out.cols = cols.select_columns(win);
  out.global_index.reserve(win.size());
  for (Index p : win) out.global_index.push_back(global_index[p]);
  return out;
}

// Stage 2 of both tournaments: a binary reduction tree across ranks (pairs
// at stride 1, 2, 4, ...). The schedule is static, so a receiver posts every
// round's receive up front and only waits when the merge needs the data:
// the stride-s merge overlaps the stride-2s panel's modeled transfer.
// `fold(payload)` merges a partner's winners into this rank's; `pack()`
// serializes them for the parent, after which the rank is out of the tree.
// Returns `root_payload()` of rank 0, broadcast to every rank.
template <typename Fold, typename Pack, typename RootPayload>
std::vector<std::byte> play_tree_dist(RankCtx& ctx, Fold&& fold, Pack&& pack,
                                      RootPayload&& root_payload) {
  const int p = ctx.size();
  const int r = ctx.rank();
  std::vector<SimRequest> pending;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == stride) break;
    if (r + stride < p)
      pending.push_back(ctx.irecv_bytes(r + stride, kTagTournament));
  }
  std::size_t round = 0;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == stride) {
      ctx.send_bytes(r - stride, pack(), kTagTournament);
      break;  // out of the tree; waits at the final bcast
    }
    if (r + stride < p) fold(ctx.wait(pending[round++]));
  }
  std::vector<std::byte> blob =
      r == 0 ? root_payload() : std::vector<std::byte>{};
  ctx.bcast_bytes(blob, 0);
  return blob;
}

}  // namespace

CandidateColumns qr_tp_dist(RankCtx& ctx, const CandidateColumns& local,
                            Index k, const std::string& kernel) {
  return qr_tp_dist(ctx, local.cols, local.global_index, k, kernel);
}

CandidateColumns qr_tp_dist(RankCtx& ctx, const CscMatrix& cols,
                            std::span<const Index> global_index, Index k,
                            const std::string& kernel) {
  PhaseScope phase(ctx, "tournament");
  // Stage 1: communication-free local reduction.
  CandidateColumns mine = ctx.compute(
      kernel, [&] { return local_winners(cols, global_index, k); });

  // Stage 2; the root broadcasts the winners' indices and column data.
  const auto pack = [&] { return pack_candidates(mine); };
  return unpack_candidates(play_tree_dist(
      ctx,
      [&](const std::vector<std::byte>& payload) {
        const CandidateColumns theirs = unpack_candidates(payload);
        mine = ctx.compute(kernel, [&] {
          const CandidateColumns both = merge(mine, theirs);
          return local_winners(both.cols, both.global_index, k);
        });
      },
      pack, pack));
}

std::vector<Index> qr_tp_rows_dist(RankCtx& ctx, const Matrix& q_local,
                                   std::span<const Index> global_rows, Index k,
                                   const std::string& kernel) {
  PhaseScope phase(ctx, "tournament");
  // Local winners among this rank's rows.
  std::vector<Index> win = ctx.compute(
      kernel, [&] { return qr_tp_select_rows(q_local, global_rows, k); });

  // Carry (id, row values) pairs up the tree.
  const Index kc = q_local.cols();
  auto pack = [&](const std::vector<Index>& ids, const Matrix& rows) {
    ByteWriter w;
    w.put_vec(ids);
    std::vector<double> flat(ids.size() * static_cast<std::size_t>(kc));
    for (std::size_t i = 0; i < ids.size(); ++i)
      for (Index j = 0; j < kc; ++j)
        flat[i * static_cast<std::size_t>(kc) + j] = rows(static_cast<Index>(i), j);
    w.put_vec(flat);
    return w.take();
  };
  auto unpack = [&](const std::vector<std::byte>& b, std::vector<Index>& ids,
                    Matrix& rows) {
    ByteReader rd(b);
    ids = rd.get_vec<Index>();
    const auto flat = rd.get_vec<double>();
    rows = Matrix(static_cast<Index>(ids.size()), kc);
    for (std::size_t i = 0; i < ids.size(); ++i)
      for (Index j = 0; j < kc; ++j)
        rows(static_cast<Index>(i), j) = flat[i * static_cast<std::size_t>(kc) + j];
  };

  // Local winner rows as a dense matrix.
  Matrix mine_rows(static_cast<Index>(win.size()), kc);
  {
    // Map global id -> local row position.
    std::size_t w = 0;
    for (Index id : win) {
      Index pos = -1;
      for (std::size_t i = 0; i < global_rows.size(); ++i)
        if (global_rows[i] == id) {
          pos = static_cast<Index>(i);
          break;
        }
      for (Index j = 0; j < kc; ++j)
        mine_rows(static_cast<Index>(w), j) = q_local(pos, j);
      ++w;
    }
  }

  // Stage 2 carries (id, row values) pairs; the root broadcasts the ids.
  const std::vector<std::byte> blob = play_tree_dist(
      ctx,
      [&](const std::vector<std::byte>& payload) {
        std::vector<Index> their_ids;
        Matrix their_rows;
        unpack(payload, their_ids, their_rows);
        ctx.compute(kernel, [&] {
          std::vector<Index> ids = win;
          ids.insert(ids.end(), their_ids.begin(), their_ids.end());
          Matrix rows = mine_rows;
          rows.append_rows(their_rows);
          const std::vector<Index> sel = qr_tp_select_rows(rows, ids, k);
          Matrix sel_rows(static_cast<Index>(sel.size()), kc);
          for (std::size_t i = 0; i < sel.size(); ++i) {
            Index pos = -1;
            for (std::size_t q = 0; q < ids.size(); ++q)
              if (ids[q] == sel[i]) {
                pos = static_cast<Index>(q);
                break;
              }
            for (Index j = 0; j < kc; ++j)
              sel_rows(static_cast<Index>(i), j) = rows(pos, j);
          }
          win = sel;
          mine_rows = std::move(sel_rows);
        });
      },
      [&] { return pack(win, mine_rows); },
      [&] {
        ByteWriter w;
        w.put_vec(win);
        return w.take();
      });
  ByteReader rd(blob);
  return rd.get_vec<Index>();
}

}  // namespace lra
