// bench_threads — wall-clock thread scaling of the shared-memory kernel pool.
//
// Unlike every other bench in this directory (which reads *virtual* seconds
// off the message-passing simulator), this one measures real wall-clock of
// the pool-parallelized kernels: SpMM, SpMM^T, GEMM, TSQR, and the
// end-to-end sequential RandQB_EI solve that is dominated by them. Solver
// output is bitwise identical at every thread count (checked here on every
// run); only the wall-clock changes.
//
//   ./bench_threads [--preset=M6] [--scale=1.1] [--threads=1,2,4,8]
//                   [--k=32] [--tau=1e-3] [--max-rank=96] [--reps=3]
//                   [--out=bench_threads.csv]
//
// Expected on a >= 4-core machine at the default size (8800 x 8800):
// >= 2.5x speedup at 4 threads on the SpMM-dominated rows. On a 1-core
// machine the CSV still comes out, with speedups ~1.
//
// CSV columns: kernel, threads, seconds (best of --reps), speedup vs the
// 1-thread row of the same kernel.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/randqb_ei.hpp"
#include "dense/blas.hpp"
#include "dense/tsqr.hpp"
#include "sparse/ops.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const std::string preset = cli.get("preset", "M6");
  const double scale = cli.get_double("scale", 1.1);
  const Index k = cli.get_int("k", 32);
  const double tau = cli.get_double("tau", 1e-3);
  const Index max_rank = cli.get_int("max-rank", 96);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const std::string out = cli.get("out", "bench_threads.csv");
  std::vector<long long> threads_list =
      cli.get_int_list("threads", {1, 2, 4, 8});
  cli.reject_unread();

  bench::print_header("Thread scaling: wall-clock of the pool kernels",
                      "shared-memory companion to the virtual-time figures");

  const TestMatrix t = make_preset(preset, scale);
  const CscMatrix& a = t.a;
  std::printf("%s' %ld x %ld, %ld nnz; k = %ld, tau = %.1e, max_rank = %ld\n\n",
              preset.c_str(), a.rows(), a.cols(), a.nnz(), k, tau, max_rank);

  const Matrix omega = Matrix::gaussian(a.cols(), k, 42);
  const Matrix tall = Matrix::gaussian(a.rows(), k, 43);
  const Matrix small = Matrix::gaussian(k, k, 44);
  const Index tsqr_block = std::max<Index>(k, (a.rows() + 15) / 16);

  RandQbOptions qo;
  qo.block_size = k;
  qo.tau = tau;
  qo.max_rank = max_rank;

  // kernel -> threads -> best-of-reps seconds.
  std::map<std::string, std::map<int, double>> secs;
  auto time_best = [&](const std::string& kernel, int nthreads, auto&& fn) {
    double best = -1.0;
    for (int r = 0; r < reps; ++r) {
      Stopwatch clock;
      fn();
      const double s = clock.seconds();
      if (best < 0.0 || s < best) best = s;
    }
    secs[kernel][nthreads] = best;
  };

  Matrix ref_q, ref_b;  // 1st-thread-count RandQB factors, for the bit check
  bool identical = true;

  for (long long tl : threads_list) {
    const int nt = resolve_thread_count(tl, "--threads");
    ThreadPool::global().set_num_threads(nt);
    std::printf("  threads = %d ...\n", nt);

    time_best("spmm", nt, [&] { (void)spmm(a, omega); });
    time_best("spmm_t", nt, [&] { (void)spmm_t(a, tall); });
    time_best("gemm", nt, [&] { (void)matmul(tall, small); });
    time_best("tsqr", nt, [&] { (void)tsqr(tall, tsqr_block); });

    RandQbResult last;
    time_best("randqb_ei", nt, [&] { last = randqb_ei(a, qo); });
    if (ref_q.empty()) {
      ref_q = last.q;
      ref_b = last.b;
    } else if (!(last.q == ref_q) || !(last.b == ref_b)) {
      identical = false;
    }
  }

  const int base = static_cast<int>(
      resolve_thread_count(threads_list.front(), "--threads"));
  Table table({"kernel", "threads", "seconds", "speedup"});
  for (const auto& [kernel, by_threads] : secs) {
    const double s1 = by_threads.at(base);
    for (const auto& [nt, s] : by_threads) {
      table.row()
          .cell(kernel)
          .cell(nt)
          .cell(s, 6)
          .cell(s > 0.0 ? s1 / s : 0.0, 3);
    }
  }
  std::printf("\n");
  table.print(std::cout);
  table.write_csv(out);
  std::printf("\nwrote %s\n", out.c_str());
  std::printf("bitwise-identical RandQB factors across thread counts: %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}
