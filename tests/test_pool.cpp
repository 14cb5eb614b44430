// Thread pool: static partitioning correctness, bitwise determinism across
// worker counts, inline fallbacks (nesting, ScopedSerial), kernel stats, the
// fork-join handoff under stress (back to back, after parking, across
// resizes), and the thread-count resolution / fallback rules.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "par/pool.hpp"

namespace lra {
namespace {

// Restores the pool's worker count on scope exit so tests don't leak their
// configuration into each other (the pool is process-global).
class PoolGuard {
 public:
  PoolGuard() : saved_(ThreadPool::global().num_threads()) {}
  ~PoolGuard() { ThreadPool::global().set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(PoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  const Index n = 10007;  // prime, so slices are uneven
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_for(0, n, "test", [&](Index i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (Index i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(PoolTest, ParallelForBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Index n = 4096;
  auto compute = [&](int nthreads) {
    ThreadPool::global().set_num_threads(nthreads);
    std::vector<double> out(static_cast<std::size_t>(n));
    ThreadPool::global().parallel_for(0, n, "test", [&](Index i) {
      // A value whose rounding would expose any reordering.
      double s = 0.0;
      for (int p = 1; p <= 17; ++p)
        s += std::sin(static_cast<double>(i) / p);
      out[static_cast<std::size_t>(i)] = s;
    });
    return out;
  };
  const std::vector<double> ref = compute(1);
  EXPECT_EQ(compute(2), ref);
  EXPECT_EQ(compute(3), ref);
  EXPECT_EQ(compute(8), ref);
}

TEST(PoolTest, ParallelRangesSlicesAreDisjointAndContiguous) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  const Index begin = 5, end = 1234;
  std::vector<int> owner(static_cast<std::size_t>(end), -1);
  ThreadPool::global().parallel_ranges(
      begin, end, "test", /*grain=*/1, [&](Index lo, Index hi, int slice) {
        ASSERT_LE(lo, hi);
        for (Index i = lo; i < hi; ++i) {
          ASSERT_EQ(owner[static_cast<std::size_t>(i)], -1);
          owner[static_cast<std::size_t>(i)] = slice;
        }
      });
  // Full coverage, and each slice is one contiguous run.
  int prev = -1;
  for (Index i = begin; i < end; ++i) {
    const int s = owner[static_cast<std::size_t>(i)];
    ASSERT_GE(s, 0) << "index " << i << " not covered";
    ASSERT_GE(s, prev) << "slices out of order at " << i;
    prev = s;
  }
}

TEST(PoolTest, ReduceSumBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Index n = 5000;
  auto compute = [&](int nthreads) {
    ThreadPool::global().set_num_threads(nthreads);
    return ThreadPool::global().parallel_reduce_sum(
        0, n, "test", /*chunk=*/64, [](Index lo, Index hi) {
          double s = 0.0;
          for (Index i = lo; i < hi; ++i)
            s += 1.0 / (1.0 + static_cast<double>(i));
          return s;
        });
  };
  const double ref = compute(1);
  EXPECT_EQ(compute(2), ref);  // bitwise, not near: fixed chunk grid
  EXPECT_EQ(compute(8), ref);
}

TEST(PoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  const Index n = 64;
  std::vector<double> out(static_cast<std::size_t>(n * n), 0.0);
  ThreadPool::global().parallel_for(0, n, "outer", [&](Index i) {
    // The inner call must degrade to a plain loop on the worker thread.
    ThreadPool::global().parallel_for(0, n, "inner", [&](Index j) {
      out[static_cast<std::size_t>(i * n + j)] =
          static_cast<double>(i) + static_cast<double>(j);
    });
  });
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      ASSERT_EQ(out[static_cast<std::size_t>(i * n + j)],
                static_cast<double>(i + j));
}

TEST(PoolTest, ScopedSerialPinsCallerInline) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  EXPECT_FALSE(ThreadPool::serial_scope());
  {
    ThreadPool::ScopedSerial serial;
    EXPECT_TRUE(ThreadPool::serial_scope());
    {
      ThreadPool::ScopedSerial nested;  // nesting is safe
      EXPECT_TRUE(ThreadPool::serial_scope());
    }
    EXPECT_TRUE(ThreadPool::serial_scope());

    // Work still runs (inline) and still covers the range.
    std::vector<int> hits(256, 0);
    ThreadPool::global().parallel_for(0, 256, "test",
                                      [&](Index i) { hits[i] = 1; });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
  EXPECT_FALSE(ThreadPool::serial_scope());
}

TEST(PoolTest, KernelStatsCountForkedRegions) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(2);
  ThreadPool::global().reset_stats();
  ThreadPool::global().parallel_for(
      0, 4096, "stats_kernel", [](Index) {}, /*grain=*/1);
  ThreadPool::global().parallel_for(
      0, 4096, "stats_kernel", [](Index) {}, /*grain=*/1);
  const auto stats = ThreadPool::global().kernel_stats();
  auto it = stats.find("stats_kernel");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.calls, 2u);
  EXPECT_EQ(it->second.threads, 2);
  EXPECT_GE(it->second.wall_seconds, 0.0);

  // Inline runs (below grain) are not counted.
  ThreadPool::global().reset_stats();
  ThreadPool::global().parallel_for(
      0, 4, "tiny_kernel", [](Index) {}, /*grain=*/1000000);
  EXPECT_EQ(ThreadPool::global().kernel_stats().count("tiny_kernel"), 0u);
}

// The fork-join handoff under load: back-to-back regions, regions after
// the pool has parked, and resizes between bursts. Each region writes one
// sum per slice; the sums must be the serial loop's, which also checks that
// every slice's writes are visible to the caller after the join.
constexpr Index kSliceLen = 64;

double slice_term(Index region, Index i) {
  return std::sqrt(static_cast<double>(region * 131 + i));
}

// Runs `regions` regions of 4 slices; region r's sums land in out[4r..4r+3].
void run_regions(Index first, Index regions, std::vector<double>& out) {
  for (Index r = first; r < first + regions; ++r) {
    ThreadPool::global().parallel_ranges(
        0, 4 * kSliceLen, "stress", kSliceLen,
        [&](Index lo, Index hi, int /*slice*/) {
          for (Index i = lo; i < hi; ++i)
            out[static_cast<std::size_t>(4 * r + i / kSliceLen)] +=
                slice_term(r, i);
        });
  }
}

std::vector<double> serial_sums(Index regions) {
  std::vector<double> want(static_cast<std::size_t>(4 * regions), 0.0);
  for (Index r = 0; r < regions; ++r)
    for (Index i = 0; i < 4 * kSliceLen; ++i)
      want[static_cast<std::size_t>(4 * r + i / kSliceLen)] +=
          slice_term(r, i);
  return want;
}

TEST(PoolTest, BackToBackRegionsMatchSerial) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  const Index regions = 20000;
  std::vector<double> out(static_cast<std::size_t>(4 * regions), 0.0);
  run_regions(0, regions, out);
  EXPECT_EQ(out, serial_sums(regions));
}

TEST(PoolTest, RegionsAfterIdleWakeParkedWorkers) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(4);
  const Index regions = 4;
  std::vector<double> out(static_cast<std::size_t>(4 * regions), 0.0);
  for (Index r = 0; r < regions; ++r) {
    // Far past the spin window: every helper has parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    run_regions(r, 1, out);
  }
  EXPECT_EQ(out, serial_sums(regions));

  // A helper slice that outlasts the spin window parks the caller at the
  // join; the last helper must wake it.
  std::atomic<int> done{0};
  ThreadPool::global().parallel_ranges(
      0, 4, "stress", 1, [&](Index lo, Index, int slice) {
        if (slice == 3)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(static_cast<int>(lo) + 1);
      });
  EXPECT_EQ(done.load(), 1 + 2 + 3 + 4);
}

TEST(PoolTest, ResizeBetweenBurstsKeepsResults) {
  PoolGuard guard;
  const int widths[] = {1, 4, 2, 4};
  const Index burst = 1000;
  std::vector<double> out(static_cast<std::size_t>(4 * burst * 4), 0.0);
  Index first = 0;
  for (int w : widths) {
    ThreadPool::global().set_num_threads(w);
    ASSERT_EQ(ThreadPool::global().num_threads(), w);
    run_regions(first, burst, out);
    first += burst;
  }
  EXPECT_EQ(out, serial_sums(first));
}

TEST(PoolTest, ResolveThreadCountFallsBackToOne) {
  EXPECT_EQ(resolve_thread_count(4, "test"), 4);
  EXPECT_EQ(resolve_thread_count(1, "test"), 1);
  EXPECT_EQ(resolve_thread_count(0, "--threads"), 1);
  EXPECT_EQ(resolve_thread_count(-7, "LRA_NUM_THREADS"), 1);
}

TEST(PoolTest, SetNumThreadsClampsNonPositiveToOne) {
  PoolGuard guard;
  ThreadPool::global().set_num_threads(0);
  EXPECT_EQ(ThreadPool::global().num_threads(), 1);
  ThreadPool::global().set_num_threads(-3);
  EXPECT_EQ(ThreadPool::global().num_threads(), 1);
  ThreadPool::global().set_num_threads(3);
  EXPECT_EQ(ThreadPool::global().num_threads(), 3);
}

}  // namespace
}  // namespace lra
