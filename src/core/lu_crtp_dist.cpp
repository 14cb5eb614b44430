#include "core/lu_crtp_dist.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>
#include <numeric>

#include "dense/lu.hpp"
#include "dense/qr.hpp"
#include "obs/prof/phase.hpp"
#include "qrtp/qrtp_dist.hpp"
#include "qrtp/tournament.hpp"
#include "sparse/colamd.hpp"
#include "sparse/coo.hpp"
#include "sparse/drop.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;

struct Triplet {
  Index i, j;
  double v;
};

}  // namespace

DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                          int nranks, const SimOptions& sim) {
  DistLuResult out;
  const Index k = opts.block_size;
  const Index lmax = std::min(a.rows(), a.cols());
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  // COLAMD is "a local, intrinsically sequential reordering heuristic ...
  // applied as a preprocessing step" (paper, Section V); it is not charged
  // to the parallel runtime.
  Perm pre = identity_perm(a.cols());
  CscMatrix a0 = a;
  if (opts.colamd != ColamdMode::kOff) {
    pre = colamd_postordered(a);
    a0 = permute_columns(a, pre);
  }

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const int p = ctx.size();
    const int r = ctx.rank();

    // Cyclic block-column distribution (block width k).
    std::vector<Index> my_cols;  // global (preprocessed) column ids
    for (Index j = 0; j < a0.cols(); ++j)
      if (static_cast<int>((j / std::max<Index>(1, k)) % p) == r)
        my_cols.push_back(j);
    CscMatrix s_loc = a0.select_columns(my_cols);
    std::vector<Index> col_ids = my_cols;  // aligned with s_loc columns

    // Active rows: replicated compact space; row_ids[local] = global id.
    std::vector<Index> row_ids(static_cast<std::size_t>(a0.rows()));
    std::iota(row_ids.begin(), row_ids.end(), Index{0});

    std::vector<Index> sel_rows_global, sel_cols_global;
    std::vector<Triplet> l_entries, u_entries;  // global coords (rank-local)

    double mu = 0.0, phi = 0.0, t_acc_sq = 0.0, r11_first = 0.0;
    bool threshold_enabled = opts.threshold != ThresholdMode::kNone;
    bool control_hit = false;
    Index dropped_total = 0;

    double indicator = anorm;
    Index rank_so_far = 0, iterations = 0;
    Status status = Status::kMaxIterations;
    obs::TelemetrySeries telemetry;  // rank 0's becomes the result's

    while (indicator >= target && rank_so_far < rank_budget) {
      const Index m_a = static_cast<Index>(row_ids.size());
      const Index n_a = ctx.allreduce_sum(static_cast<double>(col_ids.size()));
      Index kk = std::min({k, m_a, static_cast<Index>(n_a),
                           rank_budget - rank_so_far});
      if (kk <= 0) break;

      // --- Column tournament (two-stage reduction tree) ---
      CandidateColumns local;
      local.global_index = col_ids;
      local.cols = s_loc;
      CandidateColumns winners = qr_tp_dist(ctx, local, kk, "col_qrtp");
      kk = std::min<Index>(kk, winners.cols.cols());

      // --- Panel QR on the owning process, Q broadcast ---
      std::vector<Index> live;
      Matrix q;  // live.size() x kk
      double r00 = 0.0;
      {
        PhaseScope panel_phase(ctx, "panel");
        if (r == 0) {
          ctx.compute("col_qr", [&] {
            live = winners.cols.nonempty_rows();
            if (static_cast<Index>(live.size()) < kk)
              kk = static_cast<Index>(live.size());
            if (kk > 0) {
              const Matrix pd = dense_row_subset(winners.cols, live);
              HouseholderQR f(pd.block(0, 0, pd.rows(), kk));
              q = f.thin_q();
              r00 = std::fabs(f.r()(0, 0));
            }
          });
        }
        ByteWriter w;
        if (r == 0) {
          w.put<std::int64_t>(kk);
          w.put<double>(r00);
          w.put_vec(live);
          std::vector<double> qflat(q.data(), q.data() + q.size());
          w.put_vec(qflat);
        }
        std::vector<std::byte> blob = r == 0 ? w.take() : std::vector<std::byte>{};
        ctx.bcast_bytes(blob, 0);
        ByteReader rd(blob);
        kk = rd.get<std::int64_t>();
        r00 = rd.get<double>();
        live = rd.get_vec<Index>();
        const auto qflat = rd.get_vec<double>();
        q = Matrix(static_cast<Index>(live.size()), kk);
        std::copy(qflat.begin(), qflat.end(), q.data());
      }
      if (kk == 0) {
        status = Status::kBreakdown;
        break;
      }
      if (iterations == 0) r11_first = r00;
      winners.global_index.resize(static_cast<std::size_t>(kk));
      if (winners.cols.cols() > kk) {
        std::vector<Index> keep(static_cast<std::size_t>(kk));
        std::iota(keep.begin(), keep.end(), Index{0});
        winners.cols = winners.cols.select_columns(keep);
      }

      // --- Row tournament on row slices of Q ---
      const Index nlive = static_cast<Index>(live.size());
      const Index base = nlive / p, rem = nlive % p;
      const Index lo = r * base + std::min<Index>(r, rem);
      const Index hi = lo + base + (r < rem ? 1 : 0);
      Matrix q_slice = q.block(lo, 0, hi - lo, kk);
      std::vector<Index> slice_rows(live.begin() + lo, live.begin() + hi);
      std::vector<Index> sel_rows =
          qr_tp_rows_dist(ctx, q_slice, slice_rows, kk, "row_qrtp");
      if (static_cast<Index>(sel_rows.size()) < kk) {
        status = Status::kBreakdown;
        break;
      }

      // --- Local row permutation / pivot split ("row_perm" in Fig. 5) ---
      std::vector<Index> rest_rows;
      Matrix a11(kk, kk);
      CscMatrix a21;
      CscMatrix u12_loc, a22_loc;
      std::vector<Index> next_col_ids;
      {
        PhaseScope row_perm_phase(ctx, "row_perm");
        std::vector<Index> selpos(static_cast<std::size_t>(m_a), -1);
        for (Index j = 0; j < kk; ++j) selpos[sel_rows[j]] = j;
        std::vector<Index> restpos(static_cast<std::size_t>(m_a), -1);
        rest_rows.reserve(static_cast<std::size_t>(m_a - kk));
        for (Index i = 0; i < m_a; ++i)
          if (selpos[i] < 0) {
            restpos[i] = static_cast<Index>(rest_rows.size());
            rest_rows.push_back(i);
          }

        // Winner columns split into A11 (dense) and A21 (all ranks hold the
        // replicated winners after the tournament broadcast).
        ctx.compute("row_perm", [&] {
          CooBuilder b21(m_a - kk, kk);
          for (Index c = 0; c < kk; ++c) {
            const auto rows = winners.cols.col_rows(c);
            const auto vals = winners.cols.col_values(c);
            for (std::size_t t = 0; t < rows.size(); ++t) {
              if (selpos[rows[t]] >= 0)
                a11(selpos[rows[t]], c) = vals[t];
              else
                b21.add(restpos[rows[t]], c, vals[t]);
            }
          }
          a21 = b21.build();
        });

        // Local columns (minus any winners we own) split into U12 and A22.
        std::vector<char> is_winner_mine(col_ids.size(), 0);
        for (std::size_t j = 0; j < col_ids.size(); ++j)
          for (Index wid : winners.global_index)
            if (col_ids[j] == wid) is_winner_mine[j] = 1;
        ctx.compute("row_perm", [&] {
          std::vector<Index> keep;
          for (std::size_t j = 0; j < col_ids.size(); ++j)
            if (!is_winner_mine[j]) {
              keep.push_back(static_cast<Index>(j));
              next_col_ids.push_back(col_ids[j]);
            }
          const CscMatrix rest = s_loc.select_columns(keep);
          CooBuilder b12(kk, rest.cols());
          CooBuilder b22(m_a - kk, rest.cols());
          for (Index j = 0; j < rest.cols(); ++j) {
            const auto rows = rest.col_rows(j);
            const auto vals = rest.col_values(j);
            for (std::size_t t = 0; t < rows.size(); ++t) {
              if (selpos[rows[t]] >= 0)
                b12.add(selpos[rows[t]], j, vals[t]);
              else
                b22.add(restpos[rows[t]], j, vals[t]);
            }
          }
          u12_loc = b12.build();
          a22_loc = b22.build();
        });
      }

      // --- X = A21 A11^{-1}: scattered solve + allgather (Section V) ---
      CscMatrix x;  // (m_a - kk) x kk, replicated after allgather
      {
        PhaseScope solve_phase(ctx, "solve_a21");
        // Row-equilibrate the pivot block first so the conditioning guard is
        // scale-invariant (graded blocks are fine; true deficiency is not).
        std::vector<double> dinv(static_cast<std::size_t>(kk), 0.0);
        bool degenerate = false;
        Matrix a11_scaled = a11;
        ctx.compute("solve_a21", [&] {
          for (Index i = 0; i < kk; ++i) {
            double mx = 0.0;
            for (Index j = 0; j < kk; ++j)
              mx = std::max(mx, std::fabs(a11_scaled(i, j)));
            if (mx == 0.0) {
              degenerate = true;
              continue;
            }
            dinv[i] = 1.0 / mx;
            for (Index j = 0; j < kk; ++j) a11_scaled(i, j) *= dinv[i];
          }
        });
        PartialPivLU lu11 =
            ctx.compute("solve_a21", [&] { return PartialPivLU(a11_scaled); });
        if (degenerate || lu11.singular() || lu11.rcond_estimate() < 1e-15) {
          status = Status::kBreakdown;
          break;
        }
        // Partition A21's nonzero rows round-robin over ranks.
        const CscMatrix a21t = a21.transposed();  // kk x (m_a - kk)
        std::vector<double> my_payload;            // [row, v0..v_{kk-1}]*
        ctx.compute("solve_a21", [&] {
          // Solve scratch from the rank thread's arena (reused across the
          // factorization's iterations — no steady-state heap traffic).
          Workspace::Scope scope;
          double* rhs = scope.doubles(static_cast<std::size_t>(kk));
          Index counter = 0;
          for (Index c = 0; c < a21t.cols(); ++c) {
            if (a21t.col_nnz(c) == 0) continue;
            if (static_cast<int>(counter++ % p) != r) continue;
            std::fill(rhs, rhs + kk, 0.0);
            const auto rows = a21t.col_rows(c);
            const auto vals = a21t.col_values(c);
            for (std::size_t t = 0; t < rows.size(); ++t) rhs[rows[t]] = vals[t];
            lu11.solve_row_inplace(rhs);
            for (Index j = 0; j < kk; ++j) rhs[j] *= dinv[j];
            my_payload.push_back(static_cast<double>(c));
            my_payload.insert(my_payload.end(), rhs, rhs + kk);
          }
        });
        const std::vector<double> allx = ctx.allgatherv(my_payload);
        ctx.compute("solve_a21", [&] {
          CooBuilder xb(m_a - kk, kk);
          for (std::size_t pos = 0;
               pos + static_cast<std::size_t>(kk) + 1 <= allx.size();
               pos += static_cast<std::size_t>(kk) + 1) {
            const Index row = static_cast<Index>(allx[pos]);
            for (Index j = 0; j < kk; ++j) {
              const double v = allx[pos + 1 + static_cast<std::size_t>(j)];
              if (v != 0.0) xb.add(row, j, v);
            }
          }
          x = xb.build();
        });
      }

      // --- Schur update of the local columns ---
      CscMatrix schur_loc;
      {
        PhaseScope schur_phase(ctx, "schur");
        schur_loc = ctx.compute("schur", [&] {
          CscMatrix sc = schur_update(a22_loc, x, u12_loc);
          sc.prune(0.0);
          return sc;
        });
      }

      // Post the error-indicator reduction now and record this round's
      // factor triplets while it is in flight: the recording reads only
      // panel state (x, a11, u12), none of which the reduction touches, so
      // the bookkeeping overlaps the modeled allreduce.
      CollRequest ind_req;
      {
        PhaseScope err_phase(ctx, "error_check");
        const double local_sq = schur_loc.frobenius_norm_sq();
        ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
      }

      // --- Record L and U triplets (L on rank 0; U on the owning ranks) ---
      const Index koff = rank_so_far;
      for (Index j = 0; j < kk; ++j) {
        sel_rows_global.push_back(row_ids[sel_rows[j]]);
        sel_cols_global.push_back(winners.global_index[j]);
      }
      if (r == 0) {
        for (Index j = 0; j < kk; ++j)
          l_entries.push_back({row_ids[sel_rows[j]], koff + j, 1.0});
        for (Index j = 0; j < x.cols(); ++j) {
          const auto rows = x.col_rows(j);
          const auto vals = x.col_values(j);
          for (std::size_t t = 0; t < rows.size(); ++t)
            l_entries.push_back(
                {row_ids[rest_rows[rows[t]]], koff + j, vals[t]});
        }
        for (Index rr = 0; rr < kk; ++rr)
          for (Index c = 0; c < kk; ++c)
            if (a11(rr, c) != 0.0)
              u_entries.push_back(
                  {koff + rr, winners.global_index[c], a11(rr, c)});
      }
      for (Index j = 0; j < u12_loc.cols(); ++j) {
        const auto rows = u12_loc.col_rows(j);
        const auto vals = u12_loc.col_values(j);
        for (std::size_t t = 0; t < rows.size(); ++t)
          u_entries.push_back({koff + rows[t], next_col_ids[j], vals[t]});
      }

      rank_so_far += kk;
      iterations += 1;

      indicator = std::sqrt(std::max(0.0, ctx.wait_allreduce_sum(ind_req)[0]));

      // --- ILUT thresholding ---
      if (threshold_enabled && iterations == 1) {
        const Index u_est =
            opts.estimated_iterations > 0
                ? opts.estimated_iterations
                : std::max<Index>(1, rank_budget / std::max<Index>(1, k));
        mu = opts.tau * r11_first /
             (static_cast<double>(u_est) *
              std::sqrt(static_cast<double>(std::max<Index>(1, a.nnz()))));
        phi = opts.phi > 0.0 ? opts.phi : opts.tau * r11_first;
      }
      if (threshold_enabled && indicator >= target) {
        PhaseScope threshold_phase(ctx, "threshold");
        CscMatrix backup = schur_loc;
        DropResult dr = ctx.compute("threshold", [&] {
          return opts.threshold == ThresholdMode::kIlut
                     ? drop_below(schur_loc, mu)
                     : drop_budgeted(schur_loc, phi, t_acc_sq);
        });
        const double global_drop_sq = ctx.allreduce_sum(dr.fro_sq);
        const double global_dropped = ctx.allreduce_sum(static_cast<double>(dr.dropped));
        if (std::sqrt(t_acc_sq + global_drop_sq) >= phi) {
          schur_loc = std::move(backup);
          mu = 0.0;
          threshold_enabled = false;
          control_hit = true;
        } else {
          t_acc_sq += global_drop_sq;
          dropped_total += static_cast<Index>(global_dropped);
        }
      }

      // --- Bookkeeping ---
      std::vector<Index> next_rows;
      next_rows.reserve(rest_rows.size());
      for (Index i : rest_rows) next_rows.push_back(row_ids[i]);
      row_ids = std::move(next_rows);
      col_ids = std::move(next_col_ids);
      s_loc = std::move(schur_loc);

      const double nnz_glob = ctx.allreduce_sum(static_cast<double>(s_loc.nnz()));
      const double ncols_glob = ctx.allreduce_sum(static_cast<double>(col_ids.size()));
      const double factor_nnz_glob = ctx.allreduce_sum(
          static_cast<double>(l_entries.size() + u_entries.size()));
      telemetry.push_back(
          {.iteration = iterations,
           .rank = rank_so_far,
           .indicator_rel = indicator / anorm,
           .tau = opts.tau,
           .time_seconds = ctx.vtime(),
           .schur_nnz = static_cast<long long>(nnz_glob),
           .fill_density =
               ncols_glob * row_ids.size() == 0
                   ? 0.0
                   : nnz_glob / (static_cast<double>(row_ids.size()) *
                                 ncols_glob),
           .factor_nnz = static_cast<long long>(factor_nnz_glob)});
      if (indicator < target) {
        status = Status::kConverged;
        break;
      }
    }
    if (indicator < target) status = Status::kConverged;

    // --- Gather factors to rank 0 (not part of the timed algorithm) ---
    // Triplets and surviving ids; rank 0 assembles exactly like the
    // sequential engine.
    PhaseScope assemble_phase(ctx, "assemble");
    ByteWriter w;
    {
      std::vector<Index> uti, utj;
      std::vector<double> utv;
      for (const Triplet& t : u_entries) {
        uti.push_back(t.i);
        utj.push_back(t.j);
        utv.push_back(t.v);
      }
      w.put_vec(uti);
      w.put_vec(utj);
      w.put_vec(utv);
      w.put_vec(col_ids);  // surviving columns on this rank
    }
    auto blobs = ctx.exchange_all(w.take(), 0.0, "gather_factors");

    if (r == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      LuCrtpResult& res = out.result;
      res.status = status;
      res.rank = rank_so_far;
      res.iterations = iterations;
      res.anorm_f = anorm;
      res.indicator = indicator;
      res.r11_first = r11_first;
      res.mu = mu;
      res.t_norm_sq = t_acc_sq;
      res.dropped_entries = dropped_total;
      res.threshold_control_hit = control_hit;
      res.telemetry = std::move(telemetry);

      // Collect U triplets and surviving columns from all ranks.
      std::vector<Triplet> all_u;
      std::vector<Index> surviving_cols;
      for (const auto& blob : blobs) {
        ByteReader rd(blob);
        const auto uti = rd.get_vec<Index>();
        const auto utj = rd.get_vec<Index>();
        const auto utv = rd.get_vec<double>();
        for (std::size_t t = 0; t < uti.size(); ++t)
          all_u.push_back({uti[t], utj[t], utv[t]});
        const auto sc = rd.get_vec<Index>();
        surviving_cols.insert(surviving_cols.end(), sc.begin(), sc.end());
      }
      std::sort(surviving_cols.begin(), surviving_cols.end());

      res.row_perm = sel_rows_global;
      res.row_perm.insert(res.row_perm.end(), row_ids.begin(), row_ids.end());
      Perm colp = sel_cols_global;
      colp.insert(colp.end(), surviving_cols.begin(), surviving_cols.end());
      res.col_perm.resize(colp.size());
      for (std::size_t j = 0; j < colp.size(); ++j)
        res.col_perm[j] = pre[colp[j]];

      const Perm row_pos = invert(res.row_perm);
      Perm col_pos(colp.size());
      for (std::size_t j = 0; j < colp.size(); ++j)
        col_pos[colp[j]] = static_cast<Index>(j);

      CooBuilder lb(a.rows(), res.rank);
      for (const Triplet& t : l_entries) lb.add(row_pos[t.i], t.j, t.v);
      res.l = lb.build();
      CooBuilder ub(res.rank, a.cols());
      for (const Triplet& t : all_u) ub.add(t.i, col_pos[t.j], t.v);
      res.u = ub.build();
    }
  };

  try {
    world.run(body);
  } catch (const sim::CommFaultError&) {
    out.result.status = Status::kCommFault;
    out.result.anorm_f = anorm;
  } catch (const std::out_of_range&) {
    // A corrupted payload that slipped past the transport and was rejected by
    // ByteReader's bounds checks; only reachable with a fault plan installed.
    if (!world.fault_plan()) throw;
    out.result.status = Status::kCommFault;
    out.result.anorm_f = anorm;
  }

  out.virtual_seconds = world.elapsed_virtual();
  out.kernel_seconds = world.kernel_times_max();
  out.comm = world.comm_stats();
  out.trace = world.take_trace();
  return out;
}

}  // namespace lra
