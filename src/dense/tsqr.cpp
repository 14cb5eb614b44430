#include "dense/tsqr.hpp"

#include <cassert>
#include <vector>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "par/pool.hpp"

namespace lra {

TsqrResult tsqr(const Matrix& a, Index block_rows) {
  const Index m = a.rows(), n = a.cols();
  assert(m >= n && block_rows >= n);

  // Row-block b owns rows [offs[b], offs[b] + min(block_rows, m - offs[b]))
  // of A and rows [stack_off[b], stack_off[b + 1]) of the stacked R: its R
  // has min(block rows, n) rows.
  std::vector<Index> offs, stack_off{0};
  for (Index r0 = 0; r0 < m; r0 += block_rows) {
    offs.push_back(r0);
    stack_off.push_back(stack_off.back() +
                        std::min(std::min(block_rows, m - r0), n));
  }
  const Index nblocks = static_cast<Index>(offs.size());

  // Stage 1: independent QR per row block — the classic TSQR parallelism.
  // Every block writes only its own rows of the preallocated stack, so the
  // result is identical at any thread count.
  std::vector<Matrix> qs(static_cast<std::size_t>(nblocks));
  Matrix stacked_r(stack_off.back(), n);
  ThreadPool::global().parallel_for(
      Index{0}, nblocks, "tsqr", [&](Index b) {
        const std::size_t bi = static_cast<std::size_t>(b);
        const Index nr = std::min(block_rows, m - offs[bi]);
        HouseholderQR f(a.block(offs[bi], 0, nr, n));
        qs[bi] = f.thin_q();
        stacked_r.set_block(stack_off[bi], 0, f.r());
      });

  // Stage 2: QR of the stacked R factors (small, serial).
  HouseholderQR top(std::move(stacked_r));
  const Matrix q2 = top.thin_q();  // (sum of R rows) x n

  TsqrResult out;
  out.r = top.r();
  out.q = Matrix(m, n);
  // Q reconstruction: each block writes its own row range of Q.
  ThreadPool::global().parallel_for(
      Index{0}, nblocks, "tsqr", [&](Index b) {
        const std::size_t bi = static_cast<std::size_t>(b);
        const Matrix q2b = q2.block(stack_off[bi], 0,
                                    stack_off[bi + 1] - stack_off[bi], n);
        out.q.set_block(offs[bi], 0, matmul(qs[bi], q2b));
      });
  return out;
}

}  // namespace lra
