// Domain scenario: compressing a circuit-simulation operator.
//
// Circuit matrices (the paper's M3, M4, M6 class) are large, unsymmetric and
// very sparse. A fixed-precision low-rank surrogate lets a designer sweep
// operating points against a cheap rank-K model instead of the full
// operator. This example builds a circuit-like conductance matrix, compresses
// it at several accuracy targets with ILUT_CRTP (sparse factors!) and
// RandQB_EI (dense factors), and reports the memory footprint of each
// surrogate next to the achieved error.
//
//   ./circuit_compression [--n=1200] [--k=24]

#include <cstdio>
#include <iostream>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "gen/families.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 1200);
  const Index k = cli.get_int("k", 24);
  cli.reject_unread();

  const CscMatrix a = circuit_like(n, 5, 3, 2026);
  std::printf("circuit operator: %ld x %ld, %ld nnz\n\n", a.rows(), a.cols(),
              a.nnz());

  Table table({"tau", "method", "rank", "its", "factor nnz / values",
               "memory vs A", "rel. error"});
  for (const double tau : {1e-1, 1e-2, 1e-3}) {
    // Sparse surrogate via ILUT_CRTP.
    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau;
    const LuCrtpResult il = ilut_crtp(a, lo);
    const Index il_mem = il.l.nnz() + il.u.nnz();
    table.row()
        .cell(sci(tau, 0))
        .cell("ILUT_CRTP")
        .cell(il.rank)
        .cell(il.iterations)
        .cell(il_mem)
        .cell(static_cast<double>(il_mem) / static_cast<double>(a.nnz()), 3)
        .cell(lu_crtp_exact_error(a, il) / il.anorm_f, 3);

    // Dense surrogate via RandQB_EI.
    RandQbOptions ro;
    ro.block_size = k;
    ro.tau = tau;
    ro.power = 1;
    const RandQbResult qb = randqb_ei(a, ro);
    const Index qb_mem = qb.q.size() + qb.b.size();
    table.row()
        .cell(sci(tau, 0))
        .cell("RandQB_EI")
        .cell(qb.rank)
        .cell(qb.iterations)
        .cell(qb_mem)
        .cell(static_cast<double>(qb_mem) / static_cast<double>(a.nnz()), 3)
        .cell(randqb_exact_error(a, qb) / qb.anorm_f, 3);
  }
  table.print(std::cout);
  std::printf("\nSparse LU factors keep the surrogate within a small multiple "
              "of nnz(A); dense QB factors grow as rank * (m + n).\n");
  return 0;
}
