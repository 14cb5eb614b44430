#include "core/spmd.hpp"

#include <algorithm>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "obs/prof/phase.hpp"

namespace lra::spmd {

using obs::prof::PhaseScope;

Slice slice_of(Index n, int p, int r) {
  const Index base = n / p, rem = n % p;
  const Index lo = r * base + std::min<Index>(r, rem);
  return {lo, lo + base + (r < rem ? 1 : 0)};
}

const CscMatrix& row_block(const CscMatrix& a, Slice rows,
                           CscMatrix& storage) {
  if (rows.size() == a.rows()) return a;
  storage = a.block(rows.begin, rows.end, 0, a.cols());
  return storage;
}

void allreduce_inplace(RankCtx& ctx, Matrix& m) {
  ctx.allreduce_sum_inplace({m.data(), static_cast<std::size_t>(m.size())});
}

TsqrOut tsqr(RankCtx& ctx, Matrix y_loc, Index kk, const std::string& kernel) {
  PhaseScope phase(ctx, "tsqr");
  // Local QR. Ranks with fewer rows than kk contribute a short R block.
  PanelQR f = ctx.compute(kernel, [&] { return PanelQR(std::move(y_loc)); });
  const Matrix& r_loc = f.r();  // min(m_loc, kk) x kk
  if (!ctx.simulated()) {
    // The lone R is already triangular: the reduction would find every
    // tau = 0 and Q2 = I exactly, so the rank-local factorization is the
    // answer (see spmd.hpp for why a simulated single rank still reduces).
    TsqrOut out;
    out.r = r_loc;
    out.q_loc = f.take_q();
    return out;
  }

  // Allgather the R factors, row-major, each prefixed with its row count so
  // ranks can unpack heterogeneous blocks. Post the exchange, then form this
  // rank's explicit Q1 while it is in flight — the backtransform reads only
  // the local factorization, so it overlaps the modeled allgather.
  std::vector<double> payload(
      1 + static_cast<std::size_t>(r_loc.rows() * kk));
  payload[0] = static_cast<double>(r_loc.rows());
  for (Index i = 0; i < r_loc.rows(); ++i)
    for (Index j = 0; j < kk; ++j)
      payload[1 + static_cast<std::size_t>(i * kk + j)] = r_loc(i, j);
  CollRequest gather = ctx.iallgatherv(std::move(payload));
  Matrix q1 = ctx.compute(kernel, [&] { return f.take_q(); });
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
    TsqrOut out;
    out.r = top.r();
    const Matrix my_q2 = top.thin_q().block(
        offsets[ctx.rank()], 0, std::min<Index>(r_loc.rows(), kk), kk);
    out.q_loc = matmul(q1, my_q2);
    return out;
  });
}

CollRequest ireplicate(RankCtx& ctx, Matrix loc) {
  // The wait event inherits this phase from the post (see CollRequest).
  PhaseScope phase(ctx, "replicate");
  return ctx.iallgatherv(std::move(loc).release());
}

namespace {

// The row blocks (slice_of over `total_rows`) of `nranks` ranks, each
// column-major with `cols` columns and concatenated in rank order, as one
// matrix.
Matrix stack_row_blocks(std::vector<double> all, int nranks, Index total_rows,
                        Index cols) {
  // A single row block is the column-major matrix already.
  if (nranks == 1) return Matrix(total_rows, cols, std::move(all));
  Matrix full(total_rows, cols);
  std::size_t pos = 0;
  for (int r = 0; r < nranks; ++r) {
    const Slice s = slice_of(total_rows, nranks, r);
    for (Index j = 0; j < cols; ++j)
      for (Index i = 0; i < s.size(); ++i)
        full(s.begin + i, j) = all[pos + static_cast<std::size_t>(j * s.size() + i)];
    pos += static_cast<std::size_t>(s.size() * cols);
  }
  return full;
}

// Every rank's `mine`, concatenated in rank order, exchanged at no modeled
// cost (LU_CRTP's factor gather is the same exchange).
std::vector<double> gather_uncharged(RankCtx& ctx, std::vector<double> mine) {
  if (!ctx.simulated()) return mine;
  std::vector<std::byte> bytes = to_bytes(std::span<const double>(mine));
  // Free the block before the exchange blocks, as the charged allgatherv
  // does: holding it across the exchange slowed the simulated solves that
  // follow by 3-8% (distributed_np4's legs).
  mine = std::vector<double>();
  const auto blobs =
      ctx.exchange_all(std::move(bytes), Cost{}, "gather_factors");
  std::vector<double> all;
  for (const auto& blob : blobs) append_from_bytes(all, blob);
  return all;
}

}  // namespace

Matrix wait_replicate(RankCtx& ctx, CollRequest& req, Index total_rows,
                      Index cols) {
  return stack_row_blocks(ctx.wait_allgatherv(req), ctx.size(), total_rows,
                          cols);
}

Matrix replicate(RankCtx& ctx, Matrix loc, Index total_rows) {
  PhaseScope phase(ctx, "replicate");
  const Index cols = loc.cols();
  CollRequest req = ctx.iallgatherv(std::move(loc).release());
  return wait_replicate(ctx, req, total_rows, cols);
}

Matrix gather_rows(RankCtx& ctx, Matrix loc, Index total_rows) {
  const Index cols = loc.cols();
  return stack_row_blocks(gather_uncharged(ctx, std::move(loc).release()),
                          ctx.size(), total_rows, cols);
}

Matrix gather_cols(RankCtx& ctx, Matrix loc, Index total_cols) {
  // Column blocks in rank order are the column-major matrix: no reshuffle.
  const Index rows = loc.rows();
  return Matrix(rows, total_cols,
                gather_uncharged(ctx, std::move(loc).release()));
}

}  // namespace lra::spmd
