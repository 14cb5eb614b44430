#pragma once
// Deterministic fork-join thread pool — the shared-memory engine under the
// hot kernels (SpMM, GEMM, TSQR panel factorizations, SpGEMM/Schur updates).
//
// Design constraints, in order:
//
//   1. *Bitwise reproducibility at any thread count.* Work is split by
//      static range partitioning only; every output element is produced by
//      exactly one index of the loop, with the same inner accumulation order
//      as the serial code. Reductions go through a fixed chunk grid whose
//      geometry is independent of the worker count, and the per-chunk
//      partials are combined serially in chunk order. Running with 1, 4 or
//      64 workers therefore yields identical bits.
//
//   2. *Virtual-time neutrality.* The simulated-distributed runtime (par/
//      simcomm) charges each rank's compute with CLOCK_THREAD_CPUTIME_ID of
//      the rank's own thread. Any pool worker spawned inside a rank would
//      escape that accounting, so SimWorld::run() pins a ScopedSerial guard
//      on every rank thread: within simulated ranks all pool entry points
//      degrade to plain inline loops and the virtual clocks are bit-identical
//      to the single-threaded runtime. Real threads accelerate the
//      *sequential* engine (lra_cli approx without --np, the bench
//      harnesses); simulated ranks model distributed memory and stay
//      single-threaded per rank by design.
//
//   3. *No work stealing.* A stealing scheduler makes the partition depend
//      on runtime timing; static slicing keeps the performance profile
//      predictable and the partition a pure function of (range, nthreads).
//
//   4. *Cheap forks.* A solve opens its regions back to back, over a
//      thousand of them, many only microseconds long. A condition-variable
//      handoff costs ~10 us per region (wake, then join), so helpers spin on
//      an atomic job word, and the caller on the pending count at the join,
//      for a bounded window (50 us, a compile-time constant in pool.cpp)
//      before parking on the condition variables; the caller notifies only
//      parked helpers. A back-to-back empty 4-slice region then costs ~1 us,
//      and an idle pool still sleeps.
//
// The worker count comes from, in priority order: set_num_threads() (the
// --threads=N flag), the LRA_NUM_THREADS environment variable, and
// std::thread::hardware_concurrency(). A requested count of 0 or less falls
// back to 1 worker with a warning on stderr (never UB).
//
// Workers are long-lived threads, so each one carries a persistent
// thread_local workspace arena (support/workspace.hpp) that the simd
// kernels use for packing scratch; a worker makes it as it starts, and
// set_num_threads() folds torn-down workers' arena counters into the
// retired workspace tally.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "dense/matrix.hpp"  // for Index

namespace lra {

/// Aggregated statistics for one named parallel region (kernel label).
struct PoolKernelStat {
  std::uint64_t calls = 0;   ///< parallel invocations (inline runs excluded)
  double wall_seconds = 0.0; ///< total wall-clock spent inside the region
  int threads = 0;           ///< worker count used by the most recent call
};

class ThreadPool {
 public:
  /// The process-wide pool. First use creates the workers from
  /// LRA_NUM_THREADS (or hardware_concurrency when unset).
  static ThreadPool& global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return nthreads_; }

  /// Resize the worker set. `n <= 0` falls back to 1 with a stderr warning.
  /// Must not be called from inside a parallel region.
  void set_num_threads(int n);

  /// fn(i) for every i in [begin, end). The range is split into nthreads
  /// contiguous slices; slice s runs entirely on worker s. Results must not
  /// depend on which thread executes an index (each index must write
  /// disjoint outputs) — under that contract the output is bitwise identical
  /// at any thread count. Runs inline when the range is short, the pool has
  /// one worker, or a ScopedSerial guard is active on this thread.
  /// `label` names the region in kernel_stats(); `grain` is the minimum
  /// number of indices that justifies forking at all.
  template <typename F>
  void parallel_for(Index begin, Index end, const char* label, F&& fn,
                    Index grain = 2) {
    run_ranges(begin, end, label, grain,
               [&fn](Index lo, Index hi, int /*slice*/) {
                 for (Index i = lo; i < hi; ++i) fn(i);
               });
  }

  /// fn(lo, hi, slice) once per contiguous slice — for loops that carry
  /// per-worker scratch state (e.g. a sparse accumulator): construct the
  /// scratch once per slice instead of once per index. `slice` is the slice
  /// ordinal in [0, nthreads).
  void parallel_ranges(Index begin, Index end, const char* label, Index grain,
                       const std::function<void(Index, Index, int)>& fn) {
    run_ranges(begin, end, label, grain, fn);
  }

  /// Sum of fn(lo, hi) over a *fixed* chunk grid of size `chunk` (independent
  /// of the worker count), partials combined serially in chunk order — the
  /// rounding, and hence the bits, never depend on the thread count.
  double parallel_reduce_sum(Index begin, Index end, const char* label,
                             Index chunk,
                             const std::function<double(Index, Index)>& fn);

  /// Per-label stats of all parallel regions executed so far. Regions that
  /// ran inline because the range was below its grain, or because a
  /// ScopedSerial guard was active, are not counted; 1-worker runs are (they
  /// are the baseline rows of the thread-scaling CSVs).
  std::map<std::string, PoolKernelStat> kernel_stats() const;
  void reset_stats();

  /// RAII guard: while alive, every pool entry point on *this thread* runs
  /// inline on the caller. Used by SimWorld to keep simulated ranks
  /// single-threaded (see file comment) and safe for nested use.
  class ScopedSerial {
   public:
    ScopedSerial();
    ~ScopedSerial();
    ScopedSerial(const ScopedSerial&) = delete;
    ScopedSerial& operator=(const ScopedSerial&) = delete;
  };

  /// True when a ScopedSerial guard is active on the calling thread.
  static bool serial_scope();

 private:
  explicit ThreadPool(int nthreads);

  void run_ranges(Index begin, Index end, const char* label, Index grain,
                  const std::function<void(Index, Index, int)>& fn);
  void start_workers(int n);
  void stop_workers();
  void record(const char* label, double seconds, int threads);

  struct Impl;
  Impl* impl_;
  int nthreads_ = 1;
};

/// Resolve a requested worker count: values <= 0 warn on stderr (tagged with
/// `source`, e.g. "--threads" or "LRA_NUM_THREADS") and fall back to 1.
int resolve_thread_count(long long requested, const char* source);

/// Worker count implied by the environment: LRA_NUM_THREADS if set (0 or
/// negative values warn and clamp to 1), else hardware_concurrency().
int env_thread_count();

}  // namespace lra
