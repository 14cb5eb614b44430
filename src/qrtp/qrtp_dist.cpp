#include "qrtp/qrtp_dist.hpp"

#include <numeric>

#include "obs/prof/phase.hpp"
#include "qrtp/tournament.hpp"

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

  // Stage 2: binary reduction tree (pairs at stride 1, 2, 4, ...). The
  // schedule is static, so a receiver posts every round's panel receive up
  // front and only waits when the merge needs the data: the stride-s merge
  // overlaps the stride-2s panel's modeled transfer.
  const int p = ctx.size();
  const int r = ctx.rank();
  std::vector<SimRequest> pending;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == 0) {
      if (r + stride < p)
        pending.push_back(ctx.irecv_bytes(r + stride, kTagTournament));
    } else if (r % (2 * stride) == stride) {
      break;
    }
  }
  std::size_t round = 0;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == 0) {
      if (r + stride < p) {
        const CandidateColumns theirs =
            unpack_candidates(ctx.wait(pending[round++]));
        mine = ctx.compute(kernel, [&] {
          const CandidateColumns both = merge(mine, theirs);
          return local_winners(both.cols, both.global_index, k);
        });
      }
    } else if (r % (2 * stride) == stride) {
      ctx.send_bytes(r - stride, pack_candidates(mine), kTagTournament);
      break;  // this rank is out of the tree; waits at the final bcast
    }
  }

  // Broadcast the winners (indices + column data) from the root.
  std::vector<std::byte> blob =
      r == 0 ? pack_candidates(mine) : std::vector<std::byte>{};
  ctx.bcast_bytes(blob, 0);
  return unpack_candidates(blob);
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

  // Same static-schedule overlap as qr_tp_dist: post all panel receives
  // before the first merge round.
  const int p = ctx.size();
  const int r = ctx.rank();
  std::vector<SimRequest> pending;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == 0) {
      if (r + stride < p)
        pending.push_back(ctx.irecv_bytes(r + stride, kTagTournament));
    } else if (r % (2 * stride) == stride) {
      break;
    }
  }
  std::size_t round = 0;
  for (int stride = 1; stride < p; stride *= 2) {
    if (r % (2 * stride) == 0) {
      const int partner = r + stride;
      if (partner < p) {
        std::vector<Index> their_ids;
        Matrix their_rows;
        unpack(ctx.wait(pending[round++]), their_ids, their_rows);
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
      }
    } else if (r % (2 * stride) == stride) {
      ctx.send_bytes(r - stride, pack(win, mine_rows), kTagTournament);
      break;
    }
  }

  std::vector<std::byte> blob;
  if (r == 0) {
    ByteWriter w;
    w.put_vec(win);
    blob = w.take();
  }
  ctx.bcast_bytes(blob, 0);
  ByteReader rd(blob);
  return rd.get_vec<Index>();
}

}  // namespace lra
