#include "core/randqb_ei.hpp"

#include <algorithm>
#include <cmath>

#include "core/metrics.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/spmd.hpp"
#include "dense/blas.hpp"
#include "obs/prof/phase.hpp"
#include "sparse/ops.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;
using spmd::slice_of;

// The RandQB_EI body (Algorithm 1), run by every rank. Layout: A and Q_K are
// 1D row-distributed, B_K is column-distributed; every orthonormalization is
// an allgather-TSQR. Rank 0 writes `res`, whose anorm_f spmd::admit() set.
void randqb_body(RankCtx& ctx, const CscMatrix& a, const RandQbOptions& opts,
                 RandQbResult& res) {
  const Index m = a.rows(), n = a.cols();
  const Index k = opts.block_size;
  const Index lmax = std::min(m, n);
  const Index rank_budget =
      opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = res.anorm_f;
  const double target = opts.tau * anorm;

  const spmd::Slice rs = slice_of(m, ctx.size(), ctx.rank());  // rows of A, Q
  const spmd::Slice cs = slice_of(n, ctx.size(), ctx.rank());  // cols of B
  CscMatrix a_rows;
  const CscMatrix& a_loc = spmd::row_block(a, rs, a_rows);

  Matrix q_loc(rs.size(), 0);  // my rows of Q_K
  Matrix b_loc(0, cs.size());  // my columns of B_K
  double e = anorm * anorm;    // E in Algorithm 1
  Index rank_so_far = 0;
  Index iterations = 0;
  obs::TelemetrySeries telemetry;
  double indicator = anorm;
  Status status = Status::kMaxIterations;

  // Loop-carried buffers for the two sketch products that are not moved
  // into the TSQR (those must stay fresh); reshaped in place per iteration.
  Matrix z_full, bkt_loc;

  while (rank_so_far < rank_budget) {
    const Index kk = std::min(k, rank_budget - rank_so_far);

    // Lines 4-5: Y = A Omega - Q_K (B_K Omega).
    Matrix y_loc;
    {
      PhaseScope phase(ctx, "sketch");
      // Gaussian block, identical on every rank (stream = iteration).
      const Matrix omega = ctx.compute([&] {
        return Matrix::gaussian(n, kk, opts.seed,
                                static_cast<std::uint64_t>(iterations));
      });
      // B_K * Omega: column-distributed B against my slice of Omega's rows.
      Matrix bo(rank_so_far, kk);
      if (rank_so_far > 0) {
        ctx.compute("spmm", [&] {
          gemm(bo, b_loc, omega.block(cs.begin, 0, cs.size(), kk));
        });
        spmd::allreduce_inplace(ctx, bo);
      }
      y_loc = ctx.compute("spmm", [&] {
        Matrix y = spmm(a_loc, omega);
        if (rank_so_far > 0) gemm(y, q_loc, bo, -1.0, 1.0);
        return y;
      });
    }
    Matrix qk_loc = spmd::tsqr(ctx, std::move(y_loc), kk, "orth").q_loc;

    // Lines 6-9: power scheme.
    for (int p = 0; p < opts.power; ++p) {
      PhaseScope phase(ctx, "power");
      // z = A^T qk - B^T (Q^T qk), row-distributed by the column slices.
      ctx.compute("power", [&] { spmm_t_into(z_full, a_loc, qk_loc); });
      spmd::allreduce_inplace(ctx, z_full);
      Matrix z_loc = ctx.compute(
          "power", [&] { return z_full.block(cs.begin, 0, cs.size(), kk); });
      if (rank_so_far > 0) {
        Matrix qtqk =
            ctx.compute("power", [&] { return matmul_tn(q_loc, qk_loc); });
        spmd::allreduce_inplace(ctx, qtqk);
        ctx.compute("power", [&] {
          gemm(z_loc, b_loc, qtqk, -1.0, 1.0, Trans::kYes, Trans::kNo);
        });
      }
      // A_loc needs all of qhat.
      const Matrix qhat = spmd::replicate(
          ctx, spmd::tsqr(ctx, std::move(z_loc), kk, "power").q_loc, n);
      // w = A qhat - Q (B qhat).
      Matrix bq(rank_so_far, kk);
      if (rank_so_far > 0) {
        ctx.compute("power", [&] {
          gemm(bq, b_loc, qhat.block(cs.begin, 0, cs.size(), kk));
        });
        spmd::allreduce_inplace(ctx, bq);
      }
      Matrix w_loc = ctx.compute("power", [&] {
        Matrix w = spmm(a_loc, qhat);
        if (rank_so_far > 0) gemm(w, q_loc, bq, -1.0, 1.0);
        return w;
      });
      qk_loc = spmd::tsqr(ctx, std::move(w_loc), kk, "power").q_loc;
    }

    // Line 10: re-orthogonalization against the accumulated basis.
    if (rank_so_far > 0) {
      PhaseScope phase(ctx, "reorth");
      Matrix proj =
          ctx.compute("reorth", [&] { return matmul_tn(q_loc, qk_loc); });
      spmd::allreduce_inplace(ctx, proj);
      ctx.compute("reorth", [&] { gemm(qk_loc, q_loc, proj, -1.0, 1.0); });
      qk_loc = spmd::tsqr(ctx, std::move(qk_loc), kk, "reorth").q_loc;
    }

    // Line 11: B_k = Q_k^T A — a local partial over my rows, reduced; I keep
    // my columns.
    Matrix bk_slice;
    {
      PhaseScope phase(ctx, "b_update");
      Matrix bk_partial = ctx.compute("b_update", [&] {
        spmm_t_into(bkt_loc, a_loc, qk_loc);
        return bkt_loc.transposed();  // kk x n
      });
      spmd::allreduce_inplace(ctx, bk_partial);
      bk_slice = ctx.compute("b_update", [&] {
        return bk_partial.block(0, cs.begin, kk, cs.size());
      });
    }

    // Lines 13-14: error indicator, ||B_k||_F^2 summed over the column
    // slices. Post the reduction first, then fold the new block into the
    // accumulated basis while the allreduce is in flight — the append reads
    // nothing the reduction writes, so the copy overlaps the transfer.
    CollRequest ind_req;
    {
      PhaseScope phase(ctx, "error_check");
      const double local_sq = ctx.compute(
          "error_check", [&] { return bk_slice.frobenius_norm_sq(); });
      ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
    }
    {
      // Line 12: grow the factorization.
      PhaseScope phase(ctx, "b_update");
      ctx.compute("b_update", [&] {
        q_loc.append_cols(qk_loc);
        b_loc.append_rows(bk_slice);
      });
    }
    rank_so_far += kk;
    iterations += 1;

    // The exact Frobenius identity (4).
    e -= ctx.wait_allreduce_sum(ind_req)[0];
    indicator = std::sqrt(std::max(0.0, e));
    telemetry.push_back({.iteration = iterations,
                         .rank = rank_so_far,
                         .indicator_rel = indicator / anorm,
                         .tau = opts.tau,
                         .time_seconds = ctx.vtime()});
    if (indicator < target) {
      // Below the floor of Theorem 3 [Yu/Gu/Li] the indicator cannot certify
      // convergence in double precision; the status says so.
      status = opts.tau < kRandQbIndicatorFloor ? Status::kIndicatorFloor
                                                : Status::kConverged;
      break;
    }
  }

  // Assemble the factors (not charged to the parallel runtime: the paper's
  // runtimes exclude final I/O-style gathers as well).
  PhaseScope assemble_phase(ctx, "assemble");
  Matrix q = spmd::gather_rows(ctx, std::move(q_loc), m);
  Matrix b = spmd::gather_cols(ctx, std::move(b_loc), n);
  if (ctx.rank() != 0) return;
  res.status = status;
  res.rank = rank_so_far;
  res.iterations = iterations;
  res.indicator = indicator;
  res.q = std::move(q);
  res.b = std::move(b);
  res.telemetry = std::move(telemetry);
}

// The rank-0 factors of a run that spmd::admit() stopped.
void no_factors(const CscMatrix& a, RandQbResult& res) {
  res.q = Matrix(a.rows(), 0);
  res.b = Matrix(0, a.cols());
}

}  // namespace

RandQbResult randqb_ei(const CscMatrix& a, const RandQbOptions& opts) {
  RankCtx ctx = RankCtx::in_process();
  RandQbResult res;
  if (spmd::admit(a, res))
    randqb_body(ctx, a, opts, res);
  else
    no_factors(a, res);
  return res;
}

DistRandQbResult randqb_ei_dist(const CscMatrix& a, const RandQbOptions& opts,
                                int nranks, const SimOptions& sim) {
  DistRandQbResult out;
  if (!spmd::admit(a, out.result)) {
    no_factors(a, out.result);
    return out;
  }
  spmd::run_world(out, nranks, sim, [&](RankCtx& ctx) {
    randqb_body(ctx, a, opts, out.result);
  });
  return out;
}

double randqb_exact_error(const CscMatrix& a, const RandQbResult& r) {
  return residual_fro(a, r.q, r.b);
}

double orth_loss(const Matrix& q) {
  const Matrix g = matmul_tn(q, q);
  double loss = 0.0;
  for (Index i = 0; i < g.rows(); ++i) {
    double rowsum = 0.0;
    for (Index j = 0; j < g.cols(); ++j)
      rowsum += std::fabs(g(i, j) - (i == j ? 1.0 : 0.0));
    loss = std::max(loss, rowsum);
  }
  return loss;
}

}  // namespace lra
