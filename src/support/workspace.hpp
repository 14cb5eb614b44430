#pragma once
// Per-thread workspace arenas for the kernel hot loops.
//
// Every thread that asks for scratch gets its own bump allocator
// (`Workspace::current()`, a thread_local). Kernels carve short-lived
// buffers out of it through a `Workspace::Scope`: allocation is a pointer
// bump, deallocation is the scope restoring the bump mark on destruction.
// Once an arena has grown to the task's working-set size, a steady-state
// solver iteration performs zero heap allocations — the bump pointer just
// oscillates inside already-reserved blocks. The arena never frees blocks
// until the owning thread exits, so pointers handed out by an inner scope
// stay valid for that scope's whole lifetime even when a later allocation
// forces a new block (the arena is chunked, not reallocated).
//
// Rules:
//   * Scopes must nest like stack frames (they restore marks LIFO). The
//     usual pattern is one Scope per kernel invocation or per pool slice.
//   * Buffers are uninitialized; callers overwrite them.
//   * A buffer must not outlive its Scope.
//   * Arenas are strictly per-thread: never share a returned pointer with
//     another thread unless the owning scope outlives the use (the kernels
//     that fan a caller-allocated buffer out to pool workers do exactly
//     that: the caller's scope is alive across the fork-join).
//
// Observability: every arena registers itself in a process-wide table;
// `Workspace::aggregate()` sums capacity / high-water / allocation counters
// over live and retired arenas, and obs/report emits the totals as a
// "workspace" JSONL record. The high-water mark is the steady-state
// zero-allocation witness: if it is stable across solver iterations, the
// hot loops stopped touching the heap (asserted in test_kernels_simd).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lra {

/// Arena counters, totalled over every arena.
struct WorkspaceStats {
  std::uint64_t arenas = 0;      ///< arenas ever created (live + retired)
  std::uint64_t capacity = 0;    ///< bytes reserved in arena blocks
  std::uint64_t high_water = 0;  ///< peak bytes simultaneously in use
  std::uint64_t allocs = 0;      ///< Scope allocations served
  std::uint64_t grows = 0;       ///< times a new block had to be reserved
};

class Workspace {
 public:
  /// The calling thread's arena (created on first use, destroyed at thread
  /// exit with its counters folded into the retired totals).
  static Workspace& current();

  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// RAII allocation frame on the calling thread's arena.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// `n` doubles, 64-byte aligned, uninitialized. Valid until this Scope
    /// is destroyed.
    double* doubles(std::size_t n);
    /// `n` doubles, zero-filled.
    double* zeroed_doubles(std::size_t n);
    /// Raw bytes, 64-byte aligned.
    void* bytes(std::size_t n);

   private:
    Workspace& ws_;
    std::size_t mark_block_;
    std::size_t mark_offset_;
    std::uint64_t mark_in_use_;
  };

  /// Totals over every arena ever created in this process (live arenas plus
  /// the retired tally of exited threads). Monotonic in allocs/grows.
  static WorkspaceStats aggregate();

 private:
  Workspace();

  void* allocate(std::size_t n);

  struct Block {
    char* data;
    std::size_t size;
  };
  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;   // block the bump pointer lives in
  std::size_t cur_offset_ = 0;  // bump offset within cur_block_
  std::uint64_t in_use_ = 0;    // bytes handed out (incl. alignment padding)
  // Written only by the owning thread (relaxed stores compile to plain
  // moves); atomics make the cross-thread reads in aggregate() race-free.
  std::atomic<std::uint64_t> high_water_{0};
  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> grows_{0};
};

}  // namespace lra
