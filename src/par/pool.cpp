#include "par/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

// Serial scope (SimWorld ranks) and worker re-entrancy are both per-thread
// properties: a nested parallel_for issued from inside a slice must run
// inline, both for correctness (the fork-join slot is busy) and because the
// outer loop already owns the parallelism.
thread_local int tl_serial_depth = 0;
thread_local bool tl_inside_slice = false;

constexpr int kMaxThreads = 512;

// How long an idle helper waits for the next job, and the caller for the
// join, by spinning before parking on a condition variable. A solver opens
// its regions back to back (thousands per solve), and a condition-variable
// handoff costs ~10 us per region; spinning makes it ~1 us while the bound
// keeps an idle pool off the CPU.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

// A published job is (epoch << kSliceBits) | slices in one atomic word, so a
// helper learns whether it takes part from the same load that tells it a
// job is there.
constexpr int kSliceBits = 16;
constexpr std::uint64_t kSliceMask = (std::uint64_t{1} << kSliceBits) - 1;
static_assert(kMaxThreads <= static_cast<int>(kSliceMask),
              "slice count must fit the job word");

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins until done() holds or kSpinWindow has passed; returns done().
template <typename Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (unsigned i = 1;; ++i) {
    if (done()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
      return done();
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  // Current job. The caller writes job/job_begin/job_end and then publishes
  // them with a release store of `ticket` (epoch and slice count); helper w
  // takes part when w < slices. The caller rewrites the fields only after
  // every participant has checked out of `pending`, and a helper that sits
  // a job out never reads them.
  const std::function<void(Index, Index, int)>* job = nullptr;
  Index job_begin = 0;
  Index job_end = 0;
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<int> pending{0};  // helper slices still running
  std::atomic<bool> stopping{false};

  // Who sleeps on the condition variables, so that a handoff notifies only
  // when someone is parked. Each side stores its flag/count and then checks
  // the other side's word (all seq_cst), so a wakeup is never lost.
  std::atomic<int> parked_helpers{0};
  std::atomic<bool> caller_parked{false};

  std::vector<std::thread> helpers;  // workers 1 .. nthreads-1

  mutable std::mutex stats_mu;
  std::map<std::string, PoolKernelStat> stats;

  // Contiguous slice s of [begin, end) split into `slices` near-equal parts.
  static void slice_bounds(Index begin, Index end, int slices, int s,
                           Index* lo, Index* hi) {
    const Index n = end - begin;
    const Index base = n / slices, rem = n % slices;
    *lo = begin + s * base + std::min<Index>(s, rem);
    *hi = *lo + base + (s < rem ? 1 : 0);
  }

  // `seen` starts at the ticket current when the helper was (re)started —
  // starting from 0 after a set_num_threads() restart would make the helper
  // see the stale ticket of an already-finished job and chase its dangling
  // job pointer.
  void helper_loop(int worker, std::uint64_t seen) {
    const auto fresh = [&] { return stopping.load() || ticket.load() != seen; };
    for (;;) {
      if (!spin_until(fresh)) {
        std::unique_lock<std::mutex> lock(mu);
        parked_helpers.fetch_add(1);
        cv_work.wait(lock, fresh);
        parked_helpers.fetch_sub(1);
      }
      if (stopping.load()) return;
      seen = ticket.load(std::memory_order_acquire);
      const int slices = static_cast<int>(seen & kSliceMask);
      if (worker >= slices) continue;
      Index lo, hi;
      slice_bounds(job_begin, job_end, slices, worker, &lo, &hi);
      tl_inside_slice = true;
      (*job)(lo, hi, worker);
      tl_inside_slice = false;
      if (pending.fetch_sub(1) == 1 && caller_parked.load()) {
        std::lock_guard<std::mutex> lock(mu);
        cv_done.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(int nthreads) : impl_(new Impl) {
  start_workers(std::clamp(nthreads, 1, kMaxThreads));
}

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

ThreadPool& ThreadPool::global() {
  // Intentionally leaked: joining workers during static destruction races
  // with other teardown; the OS reclaims the threads at process exit.
  static ThreadPool* pool = new ThreadPool(env_thread_count());
  return *pool;
}

void ThreadPool::start_workers(int n) {
  nthreads_ = n;
  impl_->stopping.store(false);
  const std::uint64_t ticket_now = impl_->ticket.load();
  impl_->helpers.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w)
    impl_->helpers.emplace_back([this, w, ticket_now] {
      // The worker's arena is made as the thread starts, not inside its
      // first region: made lazily, distributed_np4's peak RSS read 156-185
      // MB over six runs against a steady 159-160.
      Workspace::current();
      impl_->helper_loop(w, ticket_now);
    });
}

void ThreadPool::stop_workers() {
  impl_->stopping.store(true);
  { std::lock_guard<std::mutex> lock(impl_->mu); }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->helpers) t.join();
  impl_->helpers.clear();
}

void ThreadPool::set_num_threads(int n) {
  if (n <= 0) n = resolve_thread_count(n, "set_num_threads");
  n = std::min(n, kMaxThreads);
  if (n == nthreads_) return;
  stop_workers();
  start_workers(n);
}

void ThreadPool::run_ranges(Index begin, Index end, const char* label,
                            Index grain,
                            const std::function<void(Index, Index, int)>& fn) {
  const Index n = end - begin;
  if (n <= 0) return;

  // Inline paths: serial scope (simulated ranks), nested invocation from a
  // slice, or a range too short to be worth forking. These bypass the stats
  // as well — inside SimWorld ranks even the mutexed bookkeeping would show
  // up in the CPU-time-charged virtual clocks.
  if (tl_serial_depth > 0 || tl_inside_slice || n < grain) {
    fn(begin, end, 0);
    return;
  }

  const int slices = static_cast<int>(
      std::min<Index>(nthreads_, std::max<Index>(1, n / grain)));
  Stopwatch clock;
  if (slices == 1) {
    tl_inside_slice = true;
    fn(begin, end, 0);
    tl_inside_slice = false;
    record(label, clock.seconds(), 1);
    return;
  }

  impl_->job = &fn;
  impl_->job_begin = begin;
  impl_->job_end = end;
  impl_->pending.store(slices - 1, std::memory_order_relaxed);
  const std::uint64_t epoch = (impl_->ticket.load() >> kSliceBits) + 1;
  impl_->ticket.store((epoch << kSliceBits) |
                      static_cast<std::uint64_t>(slices));
  if (impl_->parked_helpers.load() > 0) {
    { std::lock_guard<std::mutex> lock(impl_->mu); }
    impl_->cv_work.notify_all();
  }

  // The caller is worker 0.
  Index lo, hi;
  Impl::slice_bounds(begin, end, slices, 0, &lo, &hi);
  tl_inside_slice = true;
  fn(lo, hi, 0);
  tl_inside_slice = false;

  const auto joined = [&] { return impl_->pending.load() == 0; };
  if (!spin_until(joined)) {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->caller_parked.store(true);
    impl_->cv_done.wait(lock, joined);
    impl_->caller_parked.store(false);
  }
  impl_->job = nullptr;
  record(label, clock.seconds(), slices);
}

double ThreadPool::parallel_reduce_sum(
    Index begin, Index end, const char* label, Index chunk,
    const std::function<double(Index, Index)>& fn) {
  const Index n = end - begin;
  if (n <= 0) return 0.0;
  chunk = std::max<Index>(1, chunk);
  const Index nchunks = (n + chunk - 1) / chunk;
  if (nchunks == 1) return fn(begin, end);

  // The chunk grid depends only on (range, chunk) — never on the worker
  // count — and the partials are summed in chunk order, so the rounding is
  // identical at any thread count.
  std::vector<double> partial(static_cast<std::size_t>(nchunks));
  run_ranges(0, nchunks, label, 1, [&](Index c0, Index c1, int) {
    for (Index c = c0; c < c1; ++c) {
      const Index lo = begin + c * chunk;
      const Index hi = std::min<Index>(lo + chunk, end);
      partial[static_cast<std::size_t>(c)] = fn(lo, hi);
    }
  });
  double sum = 0.0;
  for (Index c = 0; c < nchunks; ++c)
    sum += partial[static_cast<std::size_t>(c)];
  return sum;
}

void ThreadPool::record(const char* label, double seconds, int threads) {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  PoolKernelStat& s = impl_->stats[label];
  s.calls += 1;
  s.wall_seconds += seconds;
  s.threads = threads;
}

std::map<std::string, PoolKernelStat> ThreadPool::kernel_stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

void ThreadPool::reset_stats() {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  impl_->stats.clear();
}

ThreadPool::ScopedSerial::ScopedSerial() { ++tl_serial_depth; }
ThreadPool::ScopedSerial::~ScopedSerial() { --tl_serial_depth; }

bool ThreadPool::serial_scope() { return tl_serial_depth > 0; }

int resolve_thread_count(long long requested, const char* source) {
  if (requested <= 0) {
    std::fprintf(stderr,
                 "lra: %s=%lld is not a valid worker count; "
                 "falling back to 1 thread\n",
                 source, requested);
    return 1;
  }
  return static_cast<int>(std::min<long long>(requested, kMaxThreads));
}

int env_thread_count() {
  if (const char* env = std::getenv("LRA_NUM_THREADS")) {
    char* rest = nullptr;
    const long long v = std::strtoll(env, &rest, 10);
    if (rest == env || *rest != '\0')
      return resolve_thread_count(0, "LRA_NUM_THREADS");
    return resolve_thread_count(v, "LRA_NUM_THREADS");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

}  // namespace lra
