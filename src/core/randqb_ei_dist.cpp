#include "core/randqb_ei_dist.hpp"

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

// Contiguous 1D partition of `n` items over `p` ranks.
struct Slice {
  Index begin, end;
  Index size() const { return end - begin; }
};
Slice slice_of(Index n, int p, int r) {
  const Index base = n / p, rem = n % p;
  const Index lo = r * base + std::min<Index>(r, rem);
  return {lo, lo + base + (r < rem ? 1 : 0)};
}

// Allgather-TSQR: orthonormalize the row-distributed tall matrix y_loc
// (rows of a global m x kk matrix). Returns this rank's rows of Q.
Matrix tsqr_dist(RankCtx& ctx, Matrix y_loc, Index kk,
                 const std::string& kernel) {
  PhaseScope phase(ctx, "tsqr");
  // Local QR. Ranks with fewer rows than kk contribute a short R block.
  HouseholderQR f = ctx.compute(kernel, [&] { return HouseholderQR(std::move(y_loc)); });
  const Matrix r_loc = f.r();  // min(m_loc, kk) x kk

  // Allgather the R factors.
  std::vector<double> flat(static_cast<std::size_t>(r_loc.rows() * kk));
  for (Index j = 0; j < kk; ++j)
    for (Index i = 0; i < r_loc.rows(); ++i)
      flat[static_cast<std::size_t>(i * kk + j)] = r_loc(i, j);
  // Prefix with local row count so ranks can unpack heterogeneous blocks.
  std::vector<double> payload;
  payload.push_back(static_cast<double>(r_loc.rows()));
  payload.insert(payload.end(), flat.begin(), flat.end());
  // Post the R-factor exchange, then form this rank's explicit Q1 while it
  // is in flight — thin_q depends only on the local factorization, so the
  // O(m_loc * kk^2) backtransform genuinely overlaps the modeled allgather.
  CollRequest gather = ctx.iallgatherv(payload);
  Matrix q1 = ctx.compute(kernel, [&] { return f.thin_q(); });
  const std::vector<double> all = ctx.wait_allgatherv(gather);

  // Stack and redundantly factor the P small R blocks.
  return ctx.compute(kernel, [&] {
    Matrix stacked(0, kk);
    std::vector<Index> offsets;  // row offset of each rank's block
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
    const Matrix my_q2 =
        q2.block(offsets[ctx.rank()],
                 0, std::min<Index>(r_loc.rows(), kk), kk);
    // Q_loc = Q1_loc * Q2_block (Q1 was formed during the allgather overlap).
    return matmul(q1, my_q2);
  });
}

}  // namespace

DistRandQbResult randqb_ei_dist(const CscMatrix& a, const RandQbOptions& opts,
                                int nranks, const SimOptions& sim) {
  DistRandQbResult out;
  const Index m = a.rows(), n = a.cols();
  const Index k = opts.block_size;
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const Slice rs = slice_of(m, ctx.size(), ctx.rank());  // rows of A, Q
    const Slice cs = slice_of(n, ctx.size(), ctx.rank());  // cols of B
    const CscMatrix a_loc = a.block(rs.begin, rs.end, 0, n);

    Matrix q_loc(rs.size(), 0);   // my rows of Q_K
    Matrix b_loc(0, cs.size());   // my columns of B_K
    double e = anorm * anorm;
    Index rank_so_far = 0;
    Index iterations = 0;
    obs::TelemetrySeries telemetry;  // rank 0's becomes the result's
    double indicator = anorm;
    Status status = Status::kMaxIterations;

    // Loop-carried buffers for the two sketch products that are not moved
    // into the TSQR (those must stay fresh); reshaped in place per iteration.
    Matrix z_full, bkt_loc;

    while (rank_so_far < rank_budget) {
      const Index kk = std::min(k, rank_budget - rank_so_far);

      Matrix y_loc;
      {
        PhaseScope phase(ctx, "sketch");
        // Gaussian block, identical on every rank by construction.
        const Matrix omega = ctx.compute([&] {
          return Matrix::gaussian(n, kk, opts.seed,
                                  static_cast<std::uint64_t>(iterations));
        });

        // B_K * Omega: column-distributed B against my slice of Omega's rows.
        Matrix bo(rank_so_far, kk);
        if (rank_so_far > 0) {
          ctx.compute("spmm", [&] {
            const Matrix omega_slice = omega.block(cs.begin, 0, cs.size(), kk);
            gemm(bo, b_loc, omega_slice);
          });
          bo = [&] {
            std::vector<double> flat(bo.data(), bo.data() + bo.size());
            flat = ctx.allreduce_sum(std::move(flat));
            Matrix r(rank_so_far, kk);
            std::copy(flat.begin(), flat.end(), r.data());
            return r;
          }();
        }

        // Y_loc = A_loc * Omega - Q_loc * (B Omega).
        y_loc = ctx.compute("spmm", [&] {
          Matrix y = spmm(a_loc, omega);
          if (rank_so_far > 0) gemm(y, q_loc, bo, -1.0, 1.0);
          return y;
        });
      }
      Matrix qk_loc = tsqr_dist(ctx, std::move(y_loc), kk, "orth");

      // Power scheme.
      for (int p = 0; p < opts.power; ++p) {
        PhaseScope phase(ctx, "power");
        // z = A^T qk - B^T (Q^T qk), row-distributed by the column slices.
        ctx.compute("power", [&] {
          spmm_t_into(z_full, a_loc, qk_loc);
          return 0;
        });
        {
          std::vector<double> flat(z_full.data(), z_full.data() + z_full.size());
          flat = ctx.allreduce_sum(std::move(flat));
          std::copy(flat.begin(), flat.end(), z_full.data());
        }
        Matrix z_loc = ctx.compute("power", [&] {
          return z_full.block(cs.begin, 0, cs.size(), kk);
        });
        if (rank_so_far > 0) {
          Matrix qtqk = ctx.compute("power", [&] { return matmul_tn(q_loc, qk_loc); });
          {
            std::vector<double> flat(qtqk.data(), qtqk.data() + qtqk.size());
            flat = ctx.allreduce_sum(std::move(flat));
            std::copy(flat.begin(), flat.end(), qtqk.data());
          }
          ctx.compute("power", [&] {
            gemm(z_loc, b_loc, qtqk, -1.0, 1.0, Trans::kYes, Trans::kNo);
          });
        }
        Matrix qhat_loc = tsqr_dist(ctx, std::move(z_loc), kk, "power");
        // Replicate qhat (A_loc needs all of it).
        Matrix qhat;
        {
          PhaseScope rep(ctx, "replicate");
          std::vector<double> flat(qhat_loc.data(),
                                   qhat_loc.data() + qhat_loc.size());
          const std::vector<double> allq = ctx.allgatherv(flat);
          qhat = ctx.compute("power", [&] {
            Matrix q(n, kk);
            std::size_t pos = 0;
            for (int r = 0; r < ctx.size(); ++r) {
              const Slice s = slice_of(n, ctx.size(), r);
              for (Index j = 0; j < kk; ++j)
                for (Index i = 0; i < s.size(); ++i)
                  q(s.begin + i, j) = allq[pos + static_cast<std::size_t>(j * s.size() + i)];
              pos += static_cast<std::size_t>(s.size() * kk);
            }
            return q;
          });
        }
        // w = A qhat - Q (B qhat).
        Matrix bq(rank_so_far, kk);
        if (rank_so_far > 0) {
          ctx.compute("power", [&] {
            const Matrix qhat_slice = qhat.block(cs.begin, 0, cs.size(), kk);
            gemm(bq, b_loc, qhat_slice);
          });
          std::vector<double> f2(bq.data(), bq.data() + bq.size());
          f2 = ctx.allreduce_sum(std::move(f2));
          std::copy(f2.begin(), f2.end(), bq.data());
        }
        Matrix w_loc = ctx.compute("power", [&] {
          Matrix w = spmm(a_loc, qhat);
          if (rank_so_far > 0) gemm(w, q_loc, bq, -1.0, 1.0);
          return w;
        });
        qk_loc = tsqr_dist(ctx, std::move(w_loc), kk, "power");
      }

      // Re-orthogonalization against the accumulated basis.
      if (rank_so_far > 0) {
        PhaseScope phase(ctx, "reorth");
        Matrix proj = ctx.compute("reorth", [&] { return matmul_tn(q_loc, qk_loc); });
        {
          std::vector<double> flat(proj.data(), proj.data() + proj.size());
          flat = ctx.allreduce_sum(std::move(flat));
          std::copy(flat.begin(), flat.end(), proj.data());
        }
        ctx.compute("reorth", [&] { gemm(qk_loc, q_loc, proj, -1.0, 1.0); });
        qk_loc = tsqr_dist(ctx, std::move(qk_loc), kk, "reorth");
      }

      // B_k = Q_k^T A : local partial over my rows, reduced; keep my columns.
      Matrix bk_slice;
      {
        PhaseScope phase(ctx, "b_update");
        Matrix bk_partial = ctx.compute("b_update", [&] {
          spmm_t_into(bkt_loc, a_loc, qk_loc);
          return bkt_loc.transposed();  // kk x n
        });
        {
          std::vector<double> flat(bk_partial.data(),
                                   bk_partial.data() + bk_partial.size());
          flat = ctx.allreduce_sum(std::move(flat));
          std::copy(flat.begin(), flat.end(), bk_partial.data());
        }
        bk_slice = ctx.compute("b_update", [&] {
          return bk_partial.block(0, cs.begin, kk, cs.size());
        });
      }

      // Error indicator: ||B_k||_F^2 summed over column slices. Post the
      // reduction first, then fold the new block into the accumulated basis
      // while the allreduce is in flight — the append reads nothing the
      // reduction writes, so the copy cost genuinely overlaps the transfer.
      CollRequest ind_req;
      {
        PhaseScope phase(ctx, "error_check");
        const double local_sq = ctx.compute(
            "error_check", [&] { return bk_slice.frobenius_norm_sq(); });
        ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
      }

      {
        PhaseScope phase(ctx, "b_update");
        ctx.compute("b_update", [&] {
          q_loc.append_cols(qk_loc);
          b_loc.append_rows(bk_slice);
        });
      }
      rank_so_far += kk;
      iterations += 1;

      const double bk_sq = ctx.wait_allreduce_sum(ind_req)[0];
      e -= bk_sq;
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
    }

    // Assemble the factors on rank 0 (not charged to the parallel runtime:
    // the paper's runtimes exclude final I/O-style gathers as well).
    PhaseScope assemble_phase(ctx, "assemble");
    std::vector<double> qflat(q_loc.data(), q_loc.data() + q_loc.size());
    std::vector<double> bflat(b_loc.data(), b_loc.data() + b_loc.size());
    // allgatherv returns rank-ordered contributions on every rank.
    const std::vector<double> qs = ctx.allgatherv(qflat);
    const std::vector<double> bs = ctx.allgatherv(bflat);

    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      RandQbResult& r = out.result;
      r.status = status;
      r.rank = rank_so_far;
      r.iterations = iterations;
      r.anorm_f = anorm;
      r.indicator = indicator;
      r.q = Matrix(m, rank_so_far);
      std::size_t pos = 0;
      for (int rr = 0; rr < ctx.size(); ++rr) {
        const Slice s = slice_of(m, ctx.size(), rr);
        for (Index j = 0; j < rank_so_far; ++j)
          for (Index i = 0; i < s.size(); ++i)
            r.q(s.begin + i, j) = qs[pos + static_cast<std::size_t>(j * s.size() + i)];
        pos += static_cast<std::size_t>(s.size() * rank_so_far);
      }
      r.b = Matrix(rank_so_far, n);
      pos = 0;
      for (int rr = 0; rr < ctx.size(); ++rr) {
        const Slice s = slice_of(n, ctx.size(), rr);
        for (Index j = 0; j < s.size(); ++j)
          for (Index i = 0; i < rank_so_far; ++i)
            r.b(i, s.begin + j) = bs[pos + static_cast<std::size_t>(j * rank_so_far + i)];
        pos += static_cast<std::size_t>(s.size() * rank_so_far);
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
