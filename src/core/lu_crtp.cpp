#include "core/lu_crtp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "dense/lu.hpp"
#include "dense/qr.hpp"
#include "par/pool.hpp"
#include "qrtp/tournament.hpp"
#include "sparse/colamd.hpp"
#include "sparse/coo.hpp"
#include "sparse/drop.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

struct Triplet {
  Index i, j;
  double v;
};

// One iteration's split of the working matrix around the selected pivot
// block, all in the *local* (compacted) index space of S.
struct PivotSplit {
  Matrix a11;                    // kk x kk dense
  CscMatrix a21;                 // (m_a - kk) x kk, rows compacted to "rest"
  CscMatrix a12;                 // kk x (n_a - kk)
  CscMatrix a22;                 // (m_a - kk) x (n_a - kk)
  std::vector<Index> rest_rows;  // local row ids, in original order
  std::vector<Index> rest_cols;  // local col ids, in original order
};

PivotSplit split_pivot(const CscMatrix& s, const std::vector<Index>& sel_cols,
                       const std::vector<Index>& sel_rows) {
  const Index m = s.rows(), n = s.cols();
  const Index kk = static_cast<Index>(sel_cols.size());
  PivotSplit out;

  // Row classification: selpos[r] = position among selected rows, else -1;
  // restpos[r] = position among the rest.
  std::vector<Index> selpos(static_cast<std::size_t>(m), -1);
  for (Index p = 0; p < kk; ++p) selpos[sel_rows[p]] = p;
  std::vector<Index> restpos(static_cast<std::size_t>(m), -1);
  out.rest_rows.reserve(static_cast<std::size_t>(m - kk));
  for (Index r = 0; r < m; ++r) {
    if (selpos[r] < 0) {
      restpos[r] = static_cast<Index>(out.rest_rows.size());
      out.rest_rows.push_back(r);
    }
  }
  std::vector<char> colsel(static_cast<std::size_t>(n), 0);
  for (Index c : sel_cols) colsel[c] = 1;
  out.rest_cols.reserve(static_cast<std::size_t>(n - kk));
  for (Index c = 0; c < n; ++c)
    if (!colsel[c]) out.rest_cols.push_back(c);

  // Selected columns -> A11 (dense) and A21.
  out.a11 = Matrix(kk, kk);
  CooBuilder a21(m - kk, kk);
  for (Index p = 0; p < kk; ++p) {
    const Index j = sel_cols[p];
    const auto rows = s.col_rows(j);
    const auto vals = s.col_values(j);
    for (std::size_t q = 0; q < rows.size(); ++q) {
      const Index r = rows[q];
      if (selpos[r] >= 0)
        out.a11(selpos[r], p) = vals[q];
      else
        a21.add(restpos[r], p, vals[q]);
    }
  }
  out.a21 = a21.build();

  // Remaining columns -> A12 (selected rows) and A22 (rest rows).
  CooBuilder a12(kk, n - kk);
  CooBuilder a22(m - kk, n - kk);
  for (std::size_t cpos = 0; cpos < out.rest_cols.size(); ++cpos) {
    const Index j = out.rest_cols[cpos];
    const auto rows = s.col_rows(j);
    const auto vals = s.col_values(j);
    for (std::size_t q = 0; q < rows.size(); ++q) {
      const Index r = rows[q];
      if (selpos[r] >= 0)
        a12.add(selpos[r], static_cast<Index>(cpos), vals[q]);
      else
        a22.add(restpos[r], static_cast<Index>(cpos), vals[q]);
    }
  }
  out.a12 = a12.build();
  out.a22 = a22.build();
  return out;
}

// Row-equilibration of the pivot block: A11 = D * S with D = diag(row max
// magnitudes). Conditioning is judged on S (scale-invariant), and the solve
// X A11 = A21 becomes Y S = A21 with X(:, j) = Y(:, j) / D(j, j).
struct EquilibratedPivot {
  // Declaration order matters: dinv/degenerate must be fully constructed
  // before lu's initializer writes into them.
  std::vector<double> dinv;   // 1 / D(j, j)
  bool degenerate = false;
  PartialPivLU lu;            // factorization of S

  explicit EquilibratedPivot(const Matrix& a11)
      : lu(scaled(a11, dinv, degenerate)) {}

 private:
  static Matrix scaled(const Matrix& a11, std::vector<double>& dinv,
                       bool& degenerate) {
    const Index kk = a11.rows();
    dinv.assign(static_cast<std::size_t>(kk), 0.0);
    degenerate = false;
    Matrix s = a11;
    for (Index i = 0; i < kk; ++i) {
      double mx = 0.0;
      for (Index j = 0; j < kk; ++j) mx = std::max(mx, std::fabs(s(i, j)));
      if (mx == 0.0) {
        degenerate = true;
        dinv[i] = 0.0;
        continue;
      }
      dinv[i] = 1.0 / mx;
      for (Index j = 0; j < kk; ++j) s(i, j) *= dinv[i];
    }
    return s;
  }
};

// X = A21 * A11^{-1} as sparse, computed row-by-row through transposed
// solves on the equilibrated block: row r of X solves y^T S = a21_r^T, then
// X(r, j) = y(j) * dinv[j]. The solves are independent per row of A21
// (column of A21^T), so they run on the thread pool with per-column output
// buffers stitched back in column order — bitwise identical at any thread
// count.
CscMatrix solve_a21(const CscMatrix& a21, const EquilibratedPivot& piv,
                    Index kk) {
  const CscMatrix a21t = a21.transposed();  // kk x (m - kk)
  const Index nc = a21t.cols();
  std::vector<std::vector<Index>> out_rows(static_cast<std::size_t>(nc));
  std::vector<std::vector<double>> out_vals(static_cast<std::size_t>(nc));
  ThreadPool::global().parallel_ranges(
      Index{0}, nc, "lu_solve", /*grain=*/16, [&](Index c0, Index c1, int) {
        // Per-slice solve buffer from the worker's arena — reused across
        // iterations of the outer factorization loop without heap traffic.
        Workspace::Scope scope;
        double* rhs = scope.doubles(static_cast<std::size_t>(kk));
        for (Index c = c0; c < c1; ++c) {
          if (a21t.col_nnz(c) == 0) continue;
          std::fill(rhs, rhs + kk, 0.0);
          const auto rows = a21t.col_rows(c);
          const auto vals = a21t.col_values(c);
          for (std::size_t q = 0; q < rows.size(); ++q) rhs[rows[q]] = vals[q];
          piv.lu.solve_row_inplace(rhs);
          for (Index r = 0; r < kk; ++r) {
            const double v = rhs[r] * piv.dinv[r];
            if (v != 0.0 && std::isfinite(v)) {
              out_rows[static_cast<std::size_t>(c)].push_back(r);
              out_vals[static_cast<std::size_t>(c)].push_back(v);
            }
          }
        }
      });
  CooBuilder xt(kk, nc);
  for (Index c = 0; c < nc; ++c) {
    const auto& rr = out_rows[static_cast<std::size_t>(c)];
    const auto& vv = out_vals[static_cast<std::size_t>(c)];
    for (std::size_t q = 0; q < rr.size(); ++q) xt.add(rr[q], c, vv[q]);
  }
  return xt.build().transposed();
}

}  // namespace

LuCrtpResult lu_crtp(const CscMatrix& a, const LuCrtpOptions& opts) {
  Stopwatch clock;
  LuCrtpResult res;
  res.anorm_f = a.frobenius_norm();
  const Index k = opts.block_size;
  const Index lmax = std::min(a.rows(), a.cols());
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double target = opts.tau * res.anorm_f;

  // Preprocessing: COLAMD + column-etree postorder (Section V).
  Perm pre = identity_perm(a.cols());
  CscMatrix s = a;
  if (opts.colamd != ColamdMode::kOff) {
    pre = colamd_postordered(a);
    s = permute_columns(a, pre);
  }

  // Local-to-global id maps for the shrinking working matrix. Column ids
  // refer to the *preprocessed* column order; folded back through `pre` at
  // the end.
  std::vector<Index> row_ids(static_cast<std::size_t>(a.rows()));
  std::iota(row_ids.begin(), row_ids.end(), Index{0});
  std::vector<Index> col_ids(static_cast<std::size_t>(a.cols()));
  std::iota(col_ids.begin(), col_ids.end(), Index{0});

  std::vector<Index> sel_rows_global, sel_cols_global;  // iteration order
  std::vector<Triplet> l_entries, u_entries;            // global-id coords

  double mu = 0.0;
  double phi = 0.0;
  double t_acc_sq = 0.0;
  bool threshold_enabled = opts.threshold != ThresholdMode::kNone;

  double indicator = s.frobenius_norm();
  res.indicator = indicator;
  if (indicator <= target) {
    res.status = Status::kConverged;  // zero-ish input
  }

  while (indicator > target && res.rank < rank_budget) {
    Index kk = std::min({k, s.rows(), s.cols(), rank_budget - res.rank});
    if (kk <= 0) break;

    if (opts.colamd == ColamdMode::kEvery && res.iterations > 0) {
      const Perm ord = colamd_postordered(s);
      s = permute_columns(s, ord);
      std::vector<Index> reordered(col_ids.size());
      for (std::size_t j = 0; j < ord.size(); ++j)
        reordered[j] = col_ids[ord[j]];
      col_ids = std::move(reordered);
    }

    // --- Column tournament (line 5 of Algorithm 2) ---
    std::vector<Index> all_cols(static_cast<std::size_t>(s.cols()));
    std::iota(all_cols.begin(), all_cols.end(), Index{0});
    std::vector<Index> sel_cols = qr_tp_select(s, all_cols, kk);

    // --- Panel QR (line 6): QR of the kk selected columns ---
    const CscMatrix panel = s.select_columns(sel_cols);
    std::vector<Index> live = panel.nonempty_rows();
    if (static_cast<Index>(live.size()) < kk) {
      // Structurally rank-deficient panel: shrink the block.
      kk = static_cast<Index>(live.size());
      if (kk == 0) {
        res.status = Status::kBreakdown;
        break;
      }
      sel_cols.resize(static_cast<std::size_t>(kk));
    }
    const Matrix panel_dense = dense_row_subset(panel, live);
    HouseholderQR panel_qr(panel_dense.block(0, 0, panel_dense.rows(), kk));
    if (res.iterations == 0) res.r11_first = std::fabs(panel_qr.r()(0, 0));
    const Matrix q = panel_qr.thin_q();  // live.size() x kk

    // --- Row tournament on Q^T (line 7) ---
    const std::vector<Index> sel_rows = qr_tp_select_rows(q, live, kk);
    if (static_cast<Index>(sel_rows.size()) < kk) {
      res.status = Status::kBreakdown;
      break;
    }

    // --- Split around the pivot block (line 8) ---
    PivotSplit sp = split_pivot(s, sel_cols, sel_rows);

    // --- L block: X = A21 A11^{-1} (line 10) ---
    EquilibratedPivot piv(sp.a11);
    if (piv.degenerate || piv.lu.singular() ||
        piv.lu.rcond_estimate() < 1e-15) {
      res.status = Status::kBreakdown;
      break;
    }
    CscMatrix x;
    if (!opts.stable_l) {
      x = solve_a21(sp.a21, piv, kk);
    } else {
      // Stability alternative: X = Q21 * Q11^{-1} using the panel's
      // orthogonal factor (Section II-B3). Dense on the live rows.
      std::vector<Index> live_selpos;  // positions of selected rows in `live`
      std::vector<char> is_sel(static_cast<std::size_t>(s.rows()), 0);
      for (Index r : sel_rows) is_sel[r] = 1;
      Matrix q11(kk, kk);
      Index sq = 0;
      for (std::size_t p = 0; p < live.size(); ++p) {
        if (is_sel[live[p]]) {
          for (Index j = 0; j < kk; ++j) q11(sq, j) = q(static_cast<Index>(p), j);
          ++sq;
        }
      }
      // Order q11 rows to match sel_rows order.
      // (rebuild with explicit mapping to be exact)
      std::vector<Index> selpos_in_live(static_cast<std::size_t>(kk), -1);
      {
        std::vector<Index> live_pos(static_cast<std::size_t>(s.rows()), -1);
        for (std::size_t p = 0; p < live.size(); ++p)
          live_pos[live[p]] = static_cast<Index>(p);
        for (Index j = 0; j < kk; ++j) selpos_in_live[j] = live_pos[sel_rows[j]];
        for (Index r = 0; r < kk; ++r)
          for (Index c = 0; c < kk; ++c)
            q11(r, c) = q(selpos_in_live[r], c);
      }
      PartialPivLU luq(q11);
      if (luq.singular()) {
        res.status = Status::kBreakdown;
        break;
      }
      // X rows only for live, non-selected rows.
      std::vector<Index> restpos(static_cast<std::size_t>(s.rows()), -1);
      for (std::size_t p = 0; p < sp.rest_rows.size(); ++p)
        restpos[sp.rest_rows[p]] = static_cast<Index>(p);
      CooBuilder xb(s.rows() - kk, kk);
      Workspace::Scope scope;
      double* rowbuf = scope.doubles(static_cast<std::size_t>(kk));
      for (std::size_t p = 0; p < live.size(); ++p) {
        const Index r = live[p];
        if (restpos[r] < 0) continue;  // selected row
        for (Index j = 0; j < kk; ++j) rowbuf[j] = q(static_cast<Index>(p), j);
        luq.solve_row_inplace(rowbuf);
        for (Index j = 0; j < kk; ++j)
          if (rowbuf[j] != 0.0) xb.add(restpos[r], j, rowbuf[j]);
      }
      x = xb.build();
    }

    // --- Emit L and U triplets in global coordinates (line 11) ---
    const Index koff = res.rank;
    for (Index j = 0; j < kk; ++j) {
      sel_rows_global.push_back(row_ids[sel_rows[j]]);
      sel_cols_global.push_back(col_ids[sel_cols[j]]);
      l_entries.push_back({sel_rows_global.back(), koff + j, 1.0});
    }
    for (Index j = 0; j < x.cols(); ++j) {
      const auto rows = x.col_rows(j);
      const auto vals = x.col_values(j);
      for (std::size_t p = 0; p < rows.size(); ++p)
        l_entries.push_back(
            {row_ids[sp.rest_rows[rows[p]]], koff + j, vals[p]});
    }
    for (Index r = 0; r < kk; ++r)
      for (Index c = 0; c < kk; ++c)
        if (sp.a11(r, c) != 0.0)
          u_entries.push_back(
              {koff + r, col_ids[sel_cols[c]], sp.a11(r, c)});
    for (Index j = 0; j < sp.a12.cols(); ++j) {
      const auto rows = sp.a12.col_rows(j);
      const auto vals = sp.a12.col_values(j);
      for (std::size_t p = 0; p < rows.size(); ++p)
        u_entries.push_back(
            {koff + rows[p], col_ids[sp.rest_cols[j]], vals[p]});
    }

    // --- Schur complement (line 12) ---
    CscMatrix schur = schur_update(sp.a22, x, sp.a12);
    schur.prune(0.0);

    res.rank += kk;
    res.iterations += 1;
    indicator = schur.frobenius_norm();

    // --- ILUT thresholding (Algorithm 3, lines 5-10) ---
    if (threshold_enabled && res.iterations == 1) {
      const Index u_est = opts.estimated_iterations > 0
                              ? opts.estimated_iterations
                              : std::max<Index>(1, rank_budget / std::max<Index>(1, k));
      mu = opts.tau * res.r11_first /
           (static_cast<double>(u_est) *
            std::sqrt(static_cast<double>(std::max<Index>(1, a.nnz()))));
      phi = opts.phi > 0.0 ? opts.phi : opts.tau * res.r11_first;
      res.mu = mu;
    }
    if (threshold_enabled && indicator >= target) {
      CscMatrix backup = schur;
      DropResult dr;
      if (opts.threshold == ThresholdMode::kIlut)
        dr = drop_below(schur, mu);
      else
        dr = drop_budgeted(schur, phi, t_acc_sq);
      if (std::sqrt(t_acc_sq + dr.fro_sq) >= phi) {
        // Threshold control (line 10): undo and stop thresholding.
        schur = std::move(backup);
        mu = 0.0;
        threshold_enabled = false;
        res.threshold_control_hit = true;
      } else {
        t_acc_sq += dr.fro_sq;
        res.dropped_entries += dr.dropped;
      }
    }
    res.t_norm_sq = t_acc_sq;

    // --- Bookkeeping for the next iteration ---
    std::vector<Index> next_rows, next_cols;
    next_rows.reserve(sp.rest_rows.size());
    for (Index r : sp.rest_rows) next_rows.push_back(row_ids[r]);
    next_cols.reserve(sp.rest_cols.size());
    for (Index c : sp.rest_cols) next_cols.push_back(col_ids[c]);
    row_ids = std::move(next_rows);
    col_ids = std::move(next_cols);
    s = std::move(schur);

    res.telemetry.push_back(
        {.iteration = res.iterations,
         .rank = res.rank,
         .indicator_rel = indicator / res.anorm_f,
         .tau = opts.tau,
         .time_seconds = clock.seconds(),
         .schur_nnz = s.nnz(),
         .fill_density = s.density(),
         .factor_nnz =
             static_cast<long long>(l_entries.size() + u_entries.size())});
    if (indicator < target) {
      res.status = Status::kConverged;
      break;
    }
  }
  if (indicator < target) res.status = Status::kConverged;
  res.indicator = indicator;

  // --- Assemble L, U and the permutations ---
  // Final row order: selected rows in order, then surviving rows; same for
  // columns (column ids are positions in the preprocessed order; compose
  // with `pre` to express P_c against the original matrix).
  res.row_perm = sel_rows_global;
  res.row_perm.insert(res.row_perm.end(), row_ids.begin(), row_ids.end());
  Perm colp = sel_cols_global;
  colp.insert(colp.end(), col_ids.begin(), col_ids.end());
  res.col_perm.resize(colp.size());
  for (std::size_t j = 0; j < colp.size(); ++j) res.col_perm[j] = pre[colp[j]];

  const Perm row_pos = invert(res.row_perm);
  Perm col_pos(colp.size());
  for (std::size_t j = 0; j < colp.size(); ++j) col_pos[colp[j]] = static_cast<Index>(j);

  CooBuilder lb(a.rows(), res.rank);
  for (const Triplet& t : l_entries) lb.add(row_pos[t.i], t.j, t.v);
  res.l = lb.build();
  CooBuilder ub(res.rank, a.cols());
  for (const Triplet& t : u_entries) ub.add(t.i, col_pos[t.j], t.v);
  res.u = ub.build();
  return res;
}

double lu_crtp_exact_error(const CscMatrix& a, const LuCrtpResult& r) {
  const CscMatrix pap = permute(a, r.row_perm, r.col_perm);
  const CscMatrix lu = spgemm(r.l, r.u);
  return spadd(pap, lu, 1.0, -1.0).frobenius_norm();
}

}  // namespace lra
