#include "core/randubv.hpp"

#include <algorithm>
#include <cmath>

#include "core/randubv_dist.hpp"
#include "core/spmd.hpp"
#include "dense/blas.hpp"
#include "obs/prof/phase.hpp"
#include "sparse/ops.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;
using spmd::slice_of;

// The RandUBV body, run by every rank. Layout: A and U are 1D
// row-distributed over m, V is row-distributed over n; every
// orthonormalization is an allgather-TSQR, and the block products A V and
// A^T U are local SpMMs followed by an allreduce. Rank 0 writes `res`, whose
// anorm_f spmd::admit() set.
void randubv_body(RankCtx& ctx, const CscMatrix& a, const RandUbvOptions& opts,
                  RandUbvResult& res) {
  const Index m = a.rows(), n = a.cols();
  const Index lmax = std::min(m, n);
  const Index rank_budget =
      opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const Index b = std::min(opts.block_size, rank_budget);
  const double anorm = res.anorm_f;
  const double target = opts.tau * anorm;

  const spmd::Slice rs = slice_of(m, ctx.size(), ctx.rank());  // rows of A, U
  const spmd::Slice cs = slice_of(n, ctx.size(), ctx.rank());  // rows of V
  CscMatrix a_rows;
  const CscMatrix& a_loc = spmd::row_block(a, rs, a_rows);

  Matrix u_loc(rs.size(), 0);
  Matrix v_loc(cs.size(), 0);
  // Block-bidiagonal coefficients (replicated); assembled into B at the end.
  std::vector<Matrix> diag_l;   // L_j (b x b)
  std::vector<Matrix> super_r;  // R_j (b x b)
  obs::TelemetrySeries telemetry;

  // V_1 = orth(Gaussian): generated identically on every rank, sliced.
  Matrix omega;
  {
    PhaseScope phase(ctx, "sketch");
    omega = ctx.compute("spmm", [&] {
      return Matrix::gaussian(n, b, opts.seed, 0);
    });
  }
  Matrix vj_loc =
      spmd::tsqr(ctx, omega.block(cs.begin, 0, cs.size(), b), b, "orth").q_loc;

  // U_1 L_1 = qr(A V_1).
  Matrix z_loc;
  {
    PhaseScope phase(ctx, "sketch");
    const Matrix v_full = spmd::replicate(ctx, vj_loc, n);
    z_loc = ctx.compute("spmm", [&] { return spmm(a_loc, v_full); });
  }
  spmd::TsqrOut u1 = spmd::tsqr(ctx, std::move(z_loc), b, "orth");
  Matrix uj_loc = std::move(u1.q_loc);
  Matrix lj = std::move(u1.r);

  double e = anorm * anorm;
  Index rank_so_far = 0, iterations = 0;
  double indicator = anorm;
  Status status = Status::kMaxIterations;

  // Loop-carried buffer for the W = A^T U_j partial (the only per-iteration
  // sketch product here that is not moved into a TSQR).
  Matrix w_partial;

  for (;;) {
    {
      PhaseScope phase(ctx, "b_update");
      ctx.compute("b_update", [&] {
        v_loc.append_cols(vj_loc);
        u_loc.append_cols(uj_loc);
        diag_l.push_back(lj);
      });
    }
    rank_so_far += b;
    iterations += 1;
    e -= lj.frobenius_norm_sq();
    indicator = std::sqrt(std::max(0.0, e));
    telemetry.push_back({.iteration = iterations,
                         .rank = rank_so_far,
                         .indicator_rel = indicator / anorm,
                         .tau = opts.tau,
                         .time_seconds = ctx.vtime()});
    if (indicator < target) {
      status = opts.tau < kRandQbIndicatorFloor ? Status::kIndicatorFloor
                                                : Status::kConverged;
      break;
    }
    if (b == 0 || rank_so_far + b > rank_budget) break;

    // W = A^T U_j - V_j L_j^T (row-distributed over n), reorthogonalized
    // against all previous V.
    Matrix w_loc;
    {
      PhaseScope phase(ctx, "power");
      ctx.compute("spmm", [&] { spmm_t_into(w_partial, a_loc, uj_loc); });
      spmd::allreduce_inplace(ctx, w_partial);
      w_loc = ctx.compute("spmm", [&] {
        Matrix w = w_partial.block(cs.begin, 0, cs.size(), b);
        gemm(w, vj_loc, lj, -1.0, 1.0, Trans::kNo, Trans::kYes);
        return w;
      });
    }
    {
      PhaseScope phase(ctx, "reorth");
      Matrix proj =
          ctx.compute("reorth", [&] { return matmul_tn(v_loc, w_loc); });
      spmd::allreduce_inplace(ctx, proj);
      ctx.compute("reorth", [&] { gemm(w_loc, v_loc, proj, -1.0, 1.0); });
    }
    spmd::TsqrOut vt = spmd::tsqr(ctx, std::move(w_loc), b, "orth");
    Matrix vnext_loc = std::move(vt.q_loc);
    const Matrix rj = std::move(vt.r);
    // Post the V_{j+1} replication before the residual bookkeeping — the
    // bookkeeping reads only R_j, so it rides in the allgather's shadow.
    CollRequest vrep = spmd::ireplicate(ctx, vnext_loc);
    e -= rj.frobenius_norm_sq();
    super_r.push_back(rj);

    // Z = A V_{j+1} - U_j R_j^T (row-distributed over m), reorthogonalized
    // against all previous U.
    const Matrix vnext_full = spmd::wait_replicate(ctx, vrep, n, b);
    Matrix znext_loc;
    {
      PhaseScope phase(ctx, "power");
      znext_loc = ctx.compute("spmm", [&] {
        Matrix z = spmm(a_loc, vnext_full);
        gemm(z, uj_loc, rj, -1.0, 1.0, Trans::kNo, Trans::kYes);
        return z;
      });
    }
    {
      PhaseScope phase(ctx, "reorth");
      Matrix proj =
          ctx.compute("reorth", [&] { return matmul_tn(u_loc, znext_loc); });
      spmd::allreduce_inplace(ctx, proj);
      ctx.compute("reorth",
                  [&] { gemm(znext_loc, u_loc, proj, -1.0, 1.0); });
    }
    spmd::TsqrOut ut = spmd::tsqr(ctx, std::move(znext_loc), b, "orth");
    uj_loc = std::move(ut.q_loc);
    lj = std::move(ut.r);
    vj_loc = std::move(vnext_loc);
  }

  // Gather the factors (not charged; see the RandQB_EI body).
  PhaseScope assemble_phase(ctx, "assemble");
  Matrix u = spmd::gather_rows(ctx, std::move(u_loc), m);
  Matrix v = spmd::gather_rows(ctx, std::move(v_loc), n);
  if (ctx.rank() != 0) return;
  res.status = status;
  res.rank = rank_so_far;
  res.iterations = iterations;
  res.indicator = indicator;
  res.u = std::move(u);
  res.v = std::move(v);
  // Block-bidiagonal B (K x K): A V = U B with L_j on the block diagonal and
  // R_j^T on the block superdiagonal, B(j, j+1) = R_j^T coupling U block j
  // with V block j+1.
  res.b = Matrix(rank_so_far, rank_so_far);
  Index off = 0;
  for (std::size_t j = 0; j < diag_l.size(); ++j) {
    res.b.set_block(off, off, diag_l[j]);
    if (j < super_r.size() && off + b < rank_so_far)
      res.b.set_block(off, off + b, super_r[j].transposed());
    off += diag_l[j].rows();
  }
  res.telemetry = std::move(telemetry);
}

// The rank-0 factors of a run that spmd::admit() stopped.
void no_factors(const CscMatrix& a, RandUbvResult& res) {
  res.u = Matrix(a.rows(), 0);
  res.b = Matrix(0, 0);
  res.v = Matrix(a.cols(), 0);
}

}  // namespace

RandUbvResult randubv(const CscMatrix& a, const RandUbvOptions& opts) {
  RankCtx ctx = RankCtx::in_process();
  RandUbvResult res;
  if (spmd::admit(a, res))
    randubv_body(ctx, a, opts, res);
  else
    no_factors(a, res);
  return res;
}

DistRandUbvResult randubv_dist(const CscMatrix& a, const RandUbvOptions& opts,
                               int nranks, const SimOptions& sim) {
  DistRandUbvResult out;
  if (!spmd::admit(a, out.result)) {
    no_factors(a, out.result);
    return out;
  }
  spmd::run_world(out, nranks, sim, [&](RankCtx& ctx) {
    randubv_body(ctx, a, opts, out.result);
  });
  return out;
}

double randubv_exact_error(const CscMatrix& a, const RandUbvResult& r) {
  // ||A - U B V^T||_F via H = U B, W = V^T.
  const Matrix h = matmul(r.u, r.b);
  const Matrix w = r.v.transposed();
  return residual_fro(a, h, w);
}

}  // namespace lra
