#include "core/lu_crtp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/spmd.hpp"
#include "dense/lu.hpp"
#include "dense/qr.hpp"
#include "obs/prof/phase.hpp"
#include "par/pool.hpp"
#include "qrtp/qrtp_dist.hpp"
#include "sparse/colamd.hpp"
#include "sparse/coo.hpp"
#include "sparse/drop.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/bytes.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;

struct Triplet {
  Index i, j;
  double v;
};

// CSC assembly of columns whose rows arrive in ascending order, one column
// at a time: the rows kept by the row split, renumbered in order. Exact zeros
// are left out, as CooBuilder leaves them out.
class RestRows {
 public:
  RestRows(Index rows, Index nnz_bound) : rows_(rows) {
    rowind_.reserve(static_cast<std::size_t>(nnz_bound));
    values_.reserve(static_cast<std::size_t>(nnz_bound));
  }

  void add(Index i, double v) {
    if (v == 0.0) return;
    rowind_.push_back(i);
    values_.push_back(v);
  }
  void end_column() { colptr_.push_back(static_cast<Index>(rowind_.size())); }

  CscMatrix build() {
    const Index cols = static_cast<Index>(colptr_.size()) - 1;
    return CscMatrix(rows_, cols, std::move(colptr_), std::move(rowind_),
                     std::move(values_));
  }

 private:
  Index rows_;
  std::vector<Index> colptr_{0};
  std::vector<Index> rowind_;
  std::vector<double> values_;
};

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

  bool breakdown() const {
    return degenerate || lu.singular() || lu.rcond_estimate() < 1e-15;
  }

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

// X = A21 * A11^{-1} as sparse, row by row through transposed solves on the
// equilibrated block: row c of X solves y^T S = a21_c^T, then
// X(c, j) = y(j) * dinv[j]. The nonzero rows of A21 are dealt round-robin
// over the ranks; each rank solves its share on the pool, writing row i of
// its share into slot i of the payload, and the allgathered rows form X —
// bitwise identical at any thread count. Only nonzero, finite values enter X.
CscMatrix solve_a21(RankCtx& ctx, const CscMatrix& a21,
                    const EquilibratedPivot& piv, Index kk) {
  const CscMatrix a21t = a21.transposed();  // kk x (m_a - kk)
  std::vector<Index> mine;
  for (Index c = 0, counter = 0; c < a21t.cols(); ++c)
    if (a21t.col_nnz(c) > 0 && static_cast<int>(counter++ % ctx.size()) == ctx.rank())
      mine.push_back(c);
  const std::size_t stride = static_cast<std::size_t>(kk) + 1;
  std::vector<double> payload(mine.size() * stride);  // [row, x_0..x_kk-1]*
  ctx.compute("solve_a21", [&] {
    ThreadPool::global().parallel_ranges(
        Index{0}, static_cast<Index>(mine.size()), "lu_solve", /*grain=*/16,
        [&](Index i0, Index i1, int) {
          for (Index i = i0; i < i1; ++i) {
            const Index c = mine[static_cast<std::size_t>(i)];
            double* out = payload.data() + static_cast<std::size_t>(i) * stride;
            out[0] = static_cast<double>(c);
            double* rhs = out + 1;
            const auto rows = a21t.col_rows(c);
            const auto vals = a21t.col_values(c);
            for (std::size_t t = 0; t < rows.size(); ++t) rhs[rows[t]] = vals[t];
            piv.lu.solve_row_inplace(rhs);
            for (Index j = 0; j < kk; ++j) rhs[j] *= piv.dinv[j];
          }
        });
  });
  const std::vector<double> all = ctx.allgatherv(std::move(payload));
  // Assembled as X^T, one column per solved row, so the entries reach the
  // builder's (column, row) sort nearly in order.
  return ctx.compute("solve_a21", [&] {
    CooBuilder xt(kk, a21.rows());
    for (std::size_t pos = 0; pos + stride <= all.size(); pos += stride) {
      const Index row = static_cast<Index>(all[pos]);
      for (Index j = 0; j < kk; ++j) {
        const double v = all[pos + 1 + static_cast<std::size_t>(j)];
        if (v != 0.0 && std::isfinite(v)) xt.add(j, row, v);
      }
    }
    return xt.build().transposed();
  });
}

// The stability alternative (Sections II-B3 and VI-A): X = Q21 Q11^{-1}
// from the panel's orthogonal factor instead of A21 A11^{-1}; better
// conditioned, but it introduces extra small entries. `q` holds the panel
// Q's rows for the `live` rows and is replicated, so every rank forms all
// of X. Each live rest row r of X solves x^T Q11 = q_r^T. Returns false
// when Q11 is singular.
bool stable_x(const Matrix& q, const std::vector<Index>& live,
              const std::vector<Index>& sel_rows,
              const std::vector<Index>& restpos, Index m_a, Index kk,
              CscMatrix& x) {
  std::vector<Index> live_pos(static_cast<std::size_t>(m_a), -1);
  for (std::size_t p = 0; p < live.size(); ++p)
    live_pos[live[p]] = static_cast<Index>(p);
  Matrix q11(kk, kk);  // rows in sel_rows order
  for (Index r = 0; r < kk; ++r)
    for (Index c = 0; c < kk; ++c) q11(r, c) = q(live_pos[sel_rows[r]], c);
  const PartialPivLU luq(q11);
  if (luq.singular()) return false;
  CooBuilder xb(m_a - kk, kk);
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
  return true;
}

// The LU_CRTP / ILUT_CRTP body (Algorithms 2 and 3), run by every rank.
// Layout: the working matrix A^(i) and U_K are distributed by columns
// (cyclic blocks of width k), L_K lives on rank 0. The column tournament is
// a two-stage reduction tree; the kk selected columns are QR-factored on
// rank 0 and Q is broadcast; the row tournament runs on row slices of Q;
// the A21 A11^{-1} solve is scattered over ranks and allgathered; the Schur
// update is embarrassingly parallel over local columns. `pre` is the
// preprocessing column order (COLAMD). Rank 0 writes `res`, whose anorm_f
// spmd::admit() set.
void lu_body(RankCtx& ctx, const CscMatrix& a, const Perm& pre,
             const LuCrtpOptions& opts, LuCrtpResult& res) {
  const int p = ctx.size();
  const int r = ctx.rank();
  const Index k = opts.block_size;
  const Index lmax = std::min(a.rows(), a.cols());
  const Index rank_budget =
      opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = res.anorm_f;
  const double target = opts.tau * anorm;

  // My columns: ids in the preprocessed order (aligned with s_loc's
  // columns), taken straight from A through `pre`.
  std::vector<Index> col_ids;
  for (Index j = 0; j < a.cols(); ++j)
    if (static_cast<int>((j / std::max<Index>(1, k)) % p) == r)
      col_ids.push_back(j);
  CscMatrix s_loc;
  {
    std::vector<Index> src(col_ids.size());
    for (std::size_t j = 0; j < col_ids.size(); ++j) src[j] = pre[col_ids[j]];
    s_loc = a.select_columns(src);
  }
  // Active rows: replicated compact space; row_ids[local] = global id.
  std::vector<Index> row_ids(static_cast<std::size_t>(a.rows()));
  std::iota(row_ids.begin(), row_ids.end(), Index{0});

  std::vector<Index> sel_rows_global, sel_cols_global;  // iteration order
  std::vector<Triplet> l_entries, u_entries;  // global ids (L on rank 0)

  double mu = 0.0, phi = 0.0, t_acc_sq = 0.0, r11_first = 0.0;
  bool threshold_enabled = opts.threshold != ThresholdMode::kNone;
  bool control_hit = false;
  Index dropped_total = 0;

  double indicator = anorm;
  Index rank_so_far = 0, iterations = 0;
  Status status = Status::kMaxIterations;
  obs::TelemetrySeries telemetry;

  while (indicator > target && rank_so_far < rank_budget) {
    const Index m_a = static_cast<Index>(row_ids.size());
    const Index n_a = static_cast<Index>(
        ctx.allreduce_sum(static_cast<double>(col_ids.size())));
    Index kk = std::min({k, m_a, n_a, rank_budget - rank_so_far});
    if (kk <= 0) break;

    if (opts.colamd == ColamdMode::kEvery && iterations > 0) {
      // Re-order the working matrix; it is whole on this rank, since
      // lu_crtp_dist allows kEvery only at nranks = 1.
      const Perm ord = colamd_postordered(s_loc);
      s_loc = permute_columns(s_loc, ord);
      std::vector<Index> reordered(col_ids.size());
      for (std::size_t j = 0; j < ord.size(); ++j)
        reordered[j] = col_ids[ord[j]];
      col_ids = std::move(reordered);
    }

    // --- Column tournament (line 5 of Algorithm 2) ---
    CandidateColumns winners = qr_tp_dist(ctx, s_loc, col_ids, kk, "col_qrtp");
    kk = std::min<Index>(kk, winners.cols.cols());

    // --- Panel QR (line 6) on rank 0, Q broadcast ---
    std::vector<Index> live;
    Matrix q;  // live.size() x kk
    double r00 = 0.0;
    {
      PhaseScope panel_phase(ctx, "panel");
      ByteWriter w;
      if (r == 0) {
        ctx.compute("col_qr", [&] {
          live = winners.cols.nonempty_rows();
          // A structurally rank-deficient panel shrinks the block.
          if (static_cast<Index>(live.size()) < kk)
            kk = static_cast<Index>(live.size());
          if (kk > 0) {
            const Matrix pd = dense_row_subset(winners.cols, live);
            HouseholderQR f(pd.block(0, 0, pd.rows(), kk));
            q = f.thin_q();
            r00 = std::fabs(f.r()(0, 0));
          }
        });
        w.put<std::int64_t>(kk);
        w.put<double>(r00);
        w.put_vec(live);
        w.put_span(std::span<const double>(q.data(), q.size()));
      }
      std::vector<std::byte> blob = w.take();
      ctx.bcast_bytes(blob, 0);
      if (r != 0) {
        ByteReader rd(blob);
        kk = rd.get<std::int64_t>();
        r00 = rd.get<double>();
        live = rd.get_vec<Index>();
        std::vector<double> qflat = rd.get_vec<double>();
        if (kk < 0 ||
            qflat.size() != live.size() * static_cast<std::size_t>(kk))
          throw std::out_of_range("panel broadcast: Q does not match its shape");
        q = Matrix(static_cast<Index>(live.size()), kk, std::move(qflat));
      }
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

    // --- Row tournament on Q^T (line 7), over row slices of Q ---
    const spmd::Slice qs =
        spmd::slice_of(static_cast<Index>(live.size()), p, r);
    Matrix q_rows;  // my row slice of Q, when it is not all of Q
    if (qs.size() != q.rows()) q_rows = q.block(qs.begin, 0, qs.size(), kk);
    const Matrix& q_slice = qs.size() == q.rows() ? q : q_rows;
    const std::vector<Index> sel_rows = qr_tp_rows_dist(
        ctx, q_slice, std::span<const Index>(live).subspan(qs.begin, qs.size()),
        kk, "row_qrtp");
    if (static_cast<Index>(sel_rows.size()) < kk) {
      status = Status::kBreakdown;
      break;
    }

    // --- Split around the pivot block (line 8; "row_perm" in Fig. 5) ---
    std::vector<Index> rest_rows;
    std::vector<Index> restpos(static_cast<std::size_t>(m_a), -1);
    Matrix a11(kk, kk);
    CscMatrix a21;
    CscMatrix u12_loc, a22_loc;
    std::vector<Index> next_col_ids;
    {
      PhaseScope row_perm_phase(ctx, "row_perm");
      std::vector<Index> selpos(static_cast<std::size_t>(m_a), -1);
      for (Index j = 0; j < kk; ++j) selpos[sel_rows[j]] = j;
      rest_rows.reserve(static_cast<std::size_t>(m_a - kk));
      for (Index i = 0; i < m_a; ++i)
        if (selpos[i] < 0) {
          restpos[i] = static_cast<Index>(rest_rows.size());
          rest_rows.push_back(i);
        }

      // The winner columns (replicated by the tournament) split into A11
      // (dense) and A21, my other columns into U12 and A22. The rest rows
      // keep their relative order, so A21 and A22 are written straight into
      // CSC with every column sorted; exact zeros are left out.
      ctx.compute("row_perm", [&] {
        RestRows b21(m_a - kk, winners.cols.nnz());
        for (Index c = 0; c < kk; ++c) {
          const auto rows = winners.cols.col_rows(c);
          const auto vals = winners.cols.col_values(c);
          for (std::size_t t = 0; t < rows.size(); ++t) {
            if (selpos[rows[t]] >= 0)
              a11(selpos[rows[t]], c) = vals[t];
            else
              b21.add(restpos[rows[t]], vals[t]);
          }
          b21.end_column();
        }
        a21 = b21.build();
      });

      ctx.compute("row_perm", [&] {
        std::vector<char> won(static_cast<std::size_t>(a.cols()), 0);
        for (Index g : winners.global_index) won[g] = 1;
        std::vector<Index> keep;
        for (std::size_t j = 0; j < col_ids.size(); ++j)
          if (!won[col_ids[j]]) {
            keep.push_back(static_cast<Index>(j));
            next_col_ids.push_back(col_ids[j]);
          }
        const Index nkeep = static_cast<Index>(keep.size());
        CooBuilder b12(kk, nkeep);
        RestRows b22(m_a - kk, s_loc.nnz());
        for (Index j = 0; j < nkeep; ++j) {
          const auto rows = s_loc.col_rows(keep[static_cast<std::size_t>(j)]);
          const auto vals = s_loc.col_values(keep[static_cast<std::size_t>(j)]);
          for (std::size_t t = 0; t < rows.size(); ++t) {
            if (selpos[rows[t]] >= 0)
              b12.add(selpos[rows[t]], j, vals[t]);
            else
              b22.add(restpos[rows[t]], vals[t]);
          }
          b22.end_column();
        }
        u12_loc = b12.build();
        a22_loc = b22.build();
      });
    }

    // --- L block: X = A21 A11^{-1} (line 10) ---
    CscMatrix x;  // (m_a - kk) x kk, replicated
    {
      PhaseScope solve_phase(ctx, "solve_a21");
      const EquilibratedPivot piv =
          ctx.compute("solve_a21", [&] { return EquilibratedPivot(a11); });
      if (piv.breakdown()) {
        status = Status::kBreakdown;
        break;
      }
      if (!opts.stable_l) {
        x = solve_a21(ctx, a21, piv, kk);
      } else if (!ctx.compute("solve_a21", [&] {
                   return stable_x(q, live, sel_rows, restpos, m_a, kk, x);
                 })) {
        status = Status::kBreakdown;
        break;
      }
    }

    // --- Schur complement (line 12) of the local columns ---
    CscMatrix schur_loc;
    {
      PhaseScope schur_phase(ctx, "schur");
      schur_loc =
          ctx.compute("schur", [&] { return schur_update(a22_loc, x, u12_loc); });
    }

    // Post the error-indicator reduction now and record this round's factor
    // triplets while it is in flight: the recording reads only panel state
    // (x, a11, u12), none of which the reduction touches, so the
    // bookkeeping overlaps the modeled allreduce.
    CollRequest ind_req;
    {
      PhaseScope err_phase(ctx, "error_check");
      const double local_sq = schur_loc.frobenius_norm_sq();
      ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
    }

    // --- L and U triplets (line 11; L on rank 0, U on the owning ranks) ---
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

    // --- ILUT thresholding (Algorithm 3, lines 5-10) ---
    if (threshold_enabled && iterations == 1) {
      const Index u_est =
          opts.estimated_iterations > 0
              ? opts.estimated_iterations
              : std::max<Index>(1, rank_budget / std::max<Index>(1, k));
      mu = ilut_mu(opts.tau, r11_first, u_est, a.nnz());
      phi = opts.phi > 0.0 ? opts.phi : opts.tau * r11_first;
    }
    if (threshold_enabled && indicator >= target) {
      // Measure the drop, then prune only if the control accepts it.
      PhaseScope threshold_phase(ctx, "threshold");
      const DropResult dr = ctx.compute("threshold", [&] {
        return opts.threshold == ThresholdMode::kIlut
                   ? drop_below(schur_loc, mu)
                   : drop_budgeted(schur_loc, phi, t_acc_sq);
      });
      const double drop_sq = ctx.allreduce_sum(dr.fro_sq);
      const double dropped =
          ctx.allreduce_sum(static_cast<double>(dr.dropped));
      if (std::sqrt(t_acc_sq + drop_sq) >= phi) {
        // Threshold control (line 10): keep everything, stop thresholding.
        threshold_enabled = false;
        control_hit = true;
      } else {
        if (dr.dropped > 0)
          ctx.compute("threshold", [&] { schur_loc.prune(dr.cutoff); });
        t_acc_sq += drop_sq;
        dropped_total += static_cast<Index>(dropped);
      }
    }

    // --- Bookkeeping for the next iteration ---
    std::vector<Index> next_rows;
    next_rows.reserve(rest_rows.size());
    for (Index i : rest_rows) next_rows.push_back(row_ids[i]);
    row_ids = std::move(next_rows);
    col_ids = std::move(next_col_ids);
    s_loc = std::move(schur_loc);

    const double nnz_glob =
        ctx.allreduce_sum(static_cast<double>(s_loc.nnz()));
    const double ncols_glob =
        ctx.allreduce_sum(static_cast<double>(col_ids.size()));
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
                 : nnz_glob /
                       (static_cast<double>(row_ids.size()) * ncols_glob),
         .factor_nnz = static_cast<long long>(factor_nnz_glob)});
    if (indicator < target) {
      status = Status::kConverged;
      break;
    }
  }
  if (indicator < target) status = Status::kConverged;

  // --- Gather the factors on rank 0 (not part of the timed algorithm) ---
  // U triplets and surviving column ids from every rank.
  PhaseScope assemble_phase(ctx, "assemble");
  ByteWriter w;
  {
    w.put_vec(col_ids);  // surviving columns on this rank
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
  }
  const auto blobs = ctx.exchange_all(w.take(), Cost{}, "gather_factors");
  if (r != 0) return;

  // Final order: the selected rows (columns) in iteration order, then the
  // surviving ones — in ascending preprocessed order, except that kEvery
  // keeps its own last ordering. Column ids are positions in the
  // preprocessed order; composing with `pre` expresses P_c against A.
  Perm colp = sel_cols_global;
  const std::size_t n_sel = colp.size();
  for (const auto& blob : blobs) {
    const auto sc = ByteReader(blob).get_vec<Index>();
    colp.insert(colp.end(), sc.begin(), sc.end());
  }
  if (opts.colamd != ColamdMode::kEvery)
    std::sort(colp.begin() + static_cast<std::ptrdiff_t>(n_sel), colp.end());

  res.status = status;
  res.rank = rank_so_far;
  res.iterations = iterations;
  res.indicator = indicator;
  res.r11_first = r11_first;
  res.mu = mu;
  res.t_norm_sq = t_acc_sq;
  res.dropped_entries = dropped_total;
  res.threshold_control_hit = control_hit;
  res.telemetry = std::move(telemetry);

  res.row_perm = sel_rows_global;
  res.row_perm.insert(res.row_perm.end(), row_ids.begin(), row_ids.end());
  res.col_perm.resize(colp.size());
  for (std::size_t j = 0; j < colp.size(); ++j) res.col_perm[j] = pre[colp[j]];

  const Perm row_pos = invert(res.row_perm);
  Perm col_pos(colp.size());
  for (std::size_t j = 0; j < colp.size(); ++j)
    col_pos[colp[j]] = static_cast<Index>(j);

  CooBuilder lb(a.rows(), rank_so_far);
  for (const Triplet& t : l_entries) lb.add(row_pos[t.i], t.j, t.v);
  res.l = lb.build();
  // Rank 0's own triplets are still at hand; the other ranks' arrive packed.
  CooBuilder ub(rank_so_far, a.cols());
  for (const Triplet& t : u_entries) ub.add(t.i, col_pos[t.j], t.v);
  for (std::size_t src = 1; src < blobs.size(); ++src) {
    ByteReader rd(blobs[src]);
    rd.get_vec<Index>();  // the surviving columns, read above
    const auto uti = rd.get_vec<Index>();
    const auto utj = rd.get_vec<Index>();
    const auto utv = rd.get_vec<double>();
    for (std::size_t t = 0; t < uti.size(); ++t)
      ub.add(uti[t], col_pos[utj[t]], utv[t]);
  }
  res.u = ub.build();
}

// Preprocessing column order (Section V): COLAMD + column-etree postorder.
Perm preorder(const CscMatrix& a, const LuCrtpOptions& opts) {
  return opts.colamd == ColamdMode::kOff ? identity_perm(a.cols())
                                         : colamd_postordered(a);
}

// The rank-0 factors of a run that spmd::admit() stopped.
void no_factors(const CscMatrix& a, LuCrtpResult& res) {
  res.l = CscMatrix(a.rows(), 0);
  res.u = CscMatrix(0, a.cols());
  res.row_perm = identity_perm(a.rows());
  res.col_perm = identity_perm(a.cols());
}

}  // namespace

LuCrtpResult lu_crtp(const CscMatrix& a, const LuCrtpOptions& opts) {
  RankCtx ctx = RankCtx::in_process();  // telemetry time includes COLAMD
  LuCrtpResult res;
  if (spmd::admit(a, res))
    lu_body(ctx, a, preorder(a, opts), opts, res);
  else
    no_factors(a, res);
  return res;
}

DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                          int nranks, const SimOptions& sim) {
  spmd::require_one_rank(opts.colamd == ColamdMode::kEvery, nranks,
                         "lu_crtp_dist: ColamdMode::kEvery");
  DistLuResult out;
  if (!spmd::admit(a, out.result)) {
    no_factors(a, out.result);
    return out;
  }
  // COLAMD is "a local, intrinsically sequential reordering heuristic ...
  // applied as a preprocessing step" (paper, Section V); it is not charged
  // to the parallel runtime.
  const Perm pre = preorder(a, opts);
  spmd::run_world(out, nranks, sim, [&](RankCtx& ctx) {
    lu_body(ctx, a, pre, opts, out.result);
  });
  return out;
}

double lu_crtp_exact_error(const CscMatrix& a, const LuCrtpResult& r) {
  const CscMatrix pap = permute(a, r.row_perm, r.col_perm);
  const CscMatrix lu = spgemm(r.l, r.u);
  return spadd(pap, lu, 1.0, -1.0).frobenius_norm();
}

}  // namespace lra
