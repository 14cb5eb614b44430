#include "core/randubv_dist.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "obs/prof/phase.hpp"
#include "sparse/ops.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;

struct Slice {
  Index begin, end;
  Index size() const { return end - begin; }
};
Slice slice_of(Index n, int p, int r) {
  const Index base = n / p, rem = n % p;
  const Index lo = r * base + std::min<Index>(r, rem);
  return {lo, lo + base + (r < rem ? 1 : 0)};
}

// Allgather-TSQR returning this rank's rows of Q and the (replicated) R.
struct TsqrOut {
  Matrix q_loc;
  Matrix r;  // kk x kk upper triangular
};

TsqrOut tsqr_dist(RankCtx& ctx, Matrix y_loc, Index kk,
                  const std::string& kernel) {
  PhaseScope phase(ctx, "tsqr");
  HouseholderQR f =
      ctx.compute(kernel, [&] { return HouseholderQR(std::move(y_loc)); });
  const Matrix r_loc = f.r();

  std::vector<double> payload;
  payload.push_back(static_cast<double>(r_loc.rows()));
  for (Index i = 0; i < r_loc.rows(); ++i)
    for (Index j = 0; j < kk; ++j) payload.push_back(r_loc(i, j));
  // Post the R-factor exchange and form this rank's explicit Q1 while it is
  // in flight: thin_q reads only the local factorization, so the backtransform
  // overlaps the modeled allgather without touching any floating-point order.
  CollRequest gather = ctx.iallgatherv(payload);
  Matrix q1 = ctx.compute(kernel, [&] { return f.thin_q(); });
  const std::vector<double> all = ctx.wait_allgatherv(gather);

  return ctx.compute(kernel, [&] {
    Matrix stacked(0, kk);
    std::vector<Index> offsets;
    std::size_t pos = 0;
    for (int r = 0; r < ctx.size(); ++r) {
      const Index nr = static_cast<Index>(all[pos++]);
      Matrix blk(nr, kk);
      for (Index i = 0; i < nr; ++i)
        for (Index j = 0; j < kk; ++j)
          blk(i, j) = all[pos + static_cast<std::size_t>(i * kk + j)];
      pos += static_cast<std::size_t>(nr * kk);
      offsets.push_back(stacked.rows());
      stacked.append_rows(blk);
    }
    HouseholderQR top(std::move(stacked));
    const Matrix q2 = top.thin_q();
    TsqrOut out;
    out.r = top.r();
    const Matrix my_q2 = q2.block(offsets[ctx.rank()], 0,
                                  std::min<Index>(r_loc.rows(), kk), kk);
    out.q_loc = matmul(q1, my_q2);
    return out;
  });
}

// Replicate a row-distributed dense block (slices in rank order). Split into
// post + wait halves so callers can slot independent work into the transfer.
CollRequest ireplicate(RankCtx& ctx, const Matrix& loc) {
  // The wait event inherits this phase from the post (see CollRequest).
  PhaseScope phase(ctx, "replicate");
  std::vector<double> flat(loc.data(), loc.data() + loc.size());
  return ctx.iallgatherv(flat);
}

Matrix wait_replicate(RankCtx& ctx, CollRequest& req, Index total_rows,
                      Index kk) {
  const std::vector<double> all = ctx.wait_allgatherv(req);
  Matrix full(total_rows, kk);
  std::size_t pos = 0;
  for (int r = 0; r < ctx.size(); ++r) {
    const Slice s = slice_of(total_rows, ctx.size(), r);
    for (Index j = 0; j < kk; ++j)
      for (Index i = 0; i < s.size(); ++i)
        full(s.begin + i, j) = all[pos + static_cast<std::size_t>(j * s.size() + i)];
    pos += static_cast<std::size_t>(s.size() * kk);
  }
  return full;
}

Matrix replicate(RankCtx& ctx, const Matrix& loc, Index total_rows, Index kk) {
  CollRequest req = ireplicate(ctx, loc);
  return wait_replicate(ctx, req, total_rows, kk);
}

// Allreduce a dense matrix elementwise (used for K x b projections and for
// summed partial products).
void allreduce_inplace(RankCtx& ctx, Matrix& m) {
  if (m.size() == 0) return;
  std::vector<double> flat(m.data(), m.data() + m.size());
  flat = ctx.allreduce_sum(std::move(flat));
  std::copy(flat.begin(), flat.end(), m.data());
}

}  // namespace

DistRandUbvResult randubv_dist(const CscMatrix& a, const RandUbvOptions& opts,
                               int nranks, const SimOptions& sim) {
  DistRandUbvResult out;
  const Index m = a.rows(), n = a.cols();
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const Index b = std::min(opts.block_size, rank_budget);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const Slice rs = slice_of(m, ctx.size(), ctx.rank());  // rows of A, U
    const Slice cs = slice_of(n, ctx.size(), ctx.rank());  // rows of V
    const CscMatrix a_loc = a.block(rs.begin, rs.end, 0, n);

    Matrix u_loc(rs.size(), 0);
    Matrix v_loc(cs.size(), 0);
    std::vector<Matrix> diag_l, super_r;  // replicated small blocks
    obs::TelemetrySeries telemetry;  // rank 0's becomes the result's

    // V_1 = orth(Gaussian) — block generated identically, sliced, TSQR'd.
    Matrix omega_full;
    {
      PhaseScope sketch_phase(ctx, "sketch");
      omega_full = ctx.compute("spmm", [&] {
        return Matrix::gaussian(n, b, opts.seed, 0);
      });
    }
    TsqrOut v1 = tsqr_dist(
        ctx, omega_full.block(cs.begin, 0, cs.size(), b), b, "orth");
    Matrix vj_loc = std::move(v1.q_loc);

    // U_1 L_1 = qr(A V_1).
    Matrix z_loc;
    {
      PhaseScope sketch_phase(ctx, "sketch");
      Matrix v_full = ctx.compute("spmm", [&] {
        return Matrix(n, b);
      });
      v_full = replicate(ctx, vj_loc, n, b);
      z_loc = ctx.compute("spmm", [&] { return spmm(a_loc, v_full); });
    }
    TsqrOut u1 = tsqr_dist(ctx, std::move(z_loc), b, "orth");
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
        PhaseScope b_phase(ctx, "b_update");
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
      if (rank_so_far + b > rank_budget) break;

      // W = A^T U_j - V_j L_j^T (row-distributed over n), full reorth.
      Matrix w_loc;
      {
        PhaseScope power_phase(ctx, "power");
        ctx.compute("spmm", [&] {
          spmm_t_into(w_partial, a_loc, uj_loc);
          return 0;
        });
        allreduce_inplace(ctx, w_partial);
        w_loc = ctx.compute("spmm", [&] {
          Matrix w = w_partial.block(cs.begin, 0, cs.size(), b);
          gemm(w, vj_loc, lj, -1.0, 1.0, Trans::kNo, Trans::kYes);
          return w;
        });
      }
      if (opts.full_reorth && v_loc.cols() > 0) {
        PhaseScope reorth_phase(ctx, "reorth");
        Matrix proj =
            ctx.compute("reorth", [&] { return matmul_tn(v_loc, w_loc); });
        allreduce_inplace(ctx, proj);
        ctx.compute("reorth", [&] { gemm(w_loc, v_loc, proj, -1.0, 1.0); });
      }
      TsqrOut vt = tsqr_dist(ctx, std::move(w_loc), b, "orth");
      Matrix vnext_loc = std::move(vt.q_loc);
      const Matrix rj = std::move(vt.r);
      // Post the V_{j+1} replication before the residual bookkeeping — the
      // bookkeeping reads only R_j, so it rides in the allgather's shadow.
      CollRequest vrep = ireplicate(ctx, vnext_loc);
      e -= rj.frobenius_norm_sq();
      super_r.push_back(rj);

      // Z = A V_{j+1} - U_j R_j^T (row-distributed over m), full reorth.
      const Matrix vnext_full = wait_replicate(ctx, vrep, n, b);
      Matrix znext_loc;
      {
        PhaseScope power_phase(ctx, "power");
        znext_loc = ctx.compute("spmm", [&] {
          Matrix z = spmm(a_loc, vnext_full);
          gemm(z, uj_loc, rj, -1.0, 1.0, Trans::kNo, Trans::kYes);
          return z;
        });
      }
      if (opts.full_reorth && u_loc.cols() > 0) {
        PhaseScope reorth_phase(ctx, "reorth");
        Matrix proj =
            ctx.compute("reorth", [&] { return matmul_tn(u_loc, znext_loc); });
        allreduce_inplace(ctx, proj);
        ctx.compute("reorth", [&] { gemm(znext_loc, u_loc, proj, -1.0, 1.0); });
      }
      TsqrOut ut = tsqr_dist(ctx, std::move(znext_loc), b, "orth");
      uj_loc = std::move(ut.q_loc);
      lj = std::move(ut.r);
      vj_loc = std::move(vnext_loc);
    }

    // Gather factors (not charged; see the RandQB_EI engine).
    PhaseScope assemble_phase(ctx, "assemble");
    std::vector<double> uflat(u_loc.data(), u_loc.data() + u_loc.size());
    std::vector<double> vflat(v_loc.data(), v_loc.data() + v_loc.size());
    const std::vector<double> us = ctx.allgatherv(uflat);
    const std::vector<double> vs = ctx.allgatherv(vflat);

    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      RandUbvResult& r = out.result;
      r.status = status;
      r.rank = rank_so_far;
      r.iterations = iterations;
      r.anorm_f = anorm;
      r.indicator = indicator;
      r.u = Matrix(m, rank_so_far);
      std::size_t pos = 0;
      for (int rr = 0; rr < ctx.size(); ++rr) {
        const Slice s = slice_of(m, ctx.size(), rr);
        for (Index j = 0; j < rank_so_far; ++j)
          for (Index i = 0; i < s.size(); ++i)
            r.u(s.begin + i, j) = us[pos + static_cast<std::size_t>(j * s.size() + i)];
        pos += static_cast<std::size_t>(s.size() * rank_so_far);
      }
      r.v = Matrix(n, rank_so_far);
      pos = 0;
      for (int rr = 0; rr < ctx.size(); ++rr) {
        const Slice s = slice_of(n, ctx.size(), rr);
        for (Index j = 0; j < rank_so_far; ++j)
          for (Index i = 0; i < s.size(); ++i)
            r.v(s.begin + i, j) = vs[pos + static_cast<std::size_t>(j * s.size() + i)];
        pos += static_cast<std::size_t>(s.size() * rank_so_far);
      }
      r.b = Matrix(rank_so_far, rank_so_far);
      Index off = 0;
      for (std::size_t j = 0; j < diag_l.size(); ++j) {
        r.b.set_block(off, off, diag_l[j]);
        if (j < super_r.size() && off + b < rank_so_far)
          r.b.set_block(off, off + b, super_r[j].transposed());
        off += diag_l[j].rows();
      }
      r.telemetry = std::move(telemetry);
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
