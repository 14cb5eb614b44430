#pragma once
// Virtual-time message-passing runtime.
//
// SimWorld runs an SPMD body on P ranks, each backed by a std::thread with
// true distributed-memory semantics (ranks only exchange data through
// messages/collectives). Every rank carries a *virtual clock*:
//
//   * compute sections advance it by measured per-thread CPU time
//     (CLOCK_THREAD_CPUTIME_ID), which is immune to timesharing P simulated
//     ranks onto a single physical core;
//   * communication advances it per the alpha-beta CostModel (point-to-point:
//     receiver waits for sender's send timestamp + transfer cost; collectives:
//     all participants synchronize to max(entry clocks) + collective cost).
//
// This substitutes for the MPI cluster of the paper: strong-scaling curves
// are read off the final virtual clocks. See DESIGN.md.
//
// Nonblocking semantics (irecv/wait and the i-collectives): sends are
// buffered, so send_bytes never blocks and charges only the sender-side
// injection latency; posting a receive or a collective never touches the
// clock. Only a wait advances it, to max(own clock, message arrival) for
// p2p and max(own clock, collective finish) for collectives. A collective's
// finish time is computed from the ranks' *post-time* clocks, so compute
// performed between post and wait genuinely overlaps the modeled transfer —
// that is the modeled win the overlap counters report. Messages are matched
// per (src, tag) in post order: the k-th receive posted for a (src, tag)
// stream completes with the k-th message sent on it, so the final clock
// does not depend on the order of the waits, and blocking recv (= irecv +
// wait) keeps its FIFO semantics. Fault hooks (delay, dup, flip, straggle)
// are decided at send or post time on the same deterministic decision
// streams as the blocking paths.
//
// Payloads are bytes; the typed calls encode and decode them with the byte
// codec (support/bytes.hpp), which also packs the SPMD bodies' messages.
//
// Observability (src/obs): every rank always carries comm counters (integer
// increments outside the timed regions — they cannot perturb the clocks),
// and SimOptions::collect_trace additionally records compute/p2p/collective
// spans stamped with virtual begin/end times for Chrome-trace export;
// request spans run from post to completion. With tracing disabled the hooks
// reduce to a null-pointer check and the virtual-clock arithmetic is
// bit-identical to the uninstrumented runtime.
//
// Interaction with the shared-memory ThreadPool (par/pool.hpp): SimWorld
// pins a ThreadPool::ScopedSerial guard on every rank thread, so kernels
// invoked inside compute() never fork onto the pool — a pool worker's CPU
// time would escape the CLOCK_THREAD_CPUTIME_ID accounting. Simulated ranks
// are single-threaded per rank by design. Consequence: virtual-time results
// are independent of --threads / LRA_NUM_THREADS.
//
// The in-process context (RankCtx::in_process()) is the one place where an
// SPMD body forks onto the pool. Each method is written once, as an SPMD
// body; the sequential entry points (randqb_ei, randubv, lu_crtp,
// approximate) run that body as the single rank of this context, while
// `*_dist(..., 1)` keeps the simulated single rank above. On the context the
// body runs on the calling thread with no ScopedSerial; collectives hand
// back the caller's own contribution (no mailbox, no payload copy, no
// counters); compute() runs its lambda untimed; and vtime() is wall time
// since the context was created.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/prof/phase.hpp"
#include "obs/trace.hpp"
#include "par/cost_model.hpp"
#include "sim/fault/fault.hpp"
#include "support/bytes.hpp"
#include "support/stopwatch.hpp"

namespace lra {

class SimWorld;
class RankCtx;

/// The one configuration of a SimWorld and of every simulated entry point:
/// the alpha-beta cost model, event tracing, and an optional deterministic
/// fault plan (sim/fault). Default: fault-free, untraced, the default cost
/// model.
struct SimOptions {
  CostModel cost{};
  bool collect_trace = false;
  sim::FaultPlan faults{};  // faults.enabled() == false -> no fault layer
};

/// What every simulated entry point returns: the method's result, assembled
/// on rank 0, and what the runtime measured. A payload corruption injected
/// by the fault plan and detected by the transport aborts the run as
/// Status::kCommFault, with the clocks, counters and traces collected up to
/// the abort, never as a crash. The per-kernel compute seconds of Figs. 5-6
/// are a fold over `trace` (obs::kernel_seconds).
template <typename Result>
struct SimRun {
  Result result;
  double virtual_seconds = 0.0;       // max over ranks of the final clock
  obs::CommStats comm;                // per-rank comm counters (always on)
  std::vector<obs::RankTrace> trace;  // per-rank spans (collect_trace only)
};

/// Handle for a posted receive (irecv_bytes). Move-only value type; pass
/// it back to the RankCtx that issued it, whose wait() completes it and
/// hands over the payload.
class SimRequest {
 public:
  SimRequest() = default;

  bool valid() const { return peer_ >= 0; }

 private:
  friend class RankCtx;

  int peer_ = -1;
  int tag_ = 0;
  std::uint64_t ticket_ = 0;  // per-(src,tag) match sequence
  const char* phase_ = "";    // innermost PhaseScope at post time
  double post_vtime_ = 0.0;
  bool done_ = false;
  std::vector<std::byte> data_;
};

/// Handle for a nonblocking collective (iallreduce_sum / iallgatherv / the
/// generic iexchange posted by RankCtx). Completed by the matching wait_*
/// call on the issuing rank. All ranks must post collectives in the same
/// program order — the i-th collective posted on every rank forms one
/// world-wide operation — but each rank may compute freely between its post
/// and its wait.
class CollRequest {
 public:
  CollRequest() = default;
  bool valid() const { return gen_ >= 0; }
  bool completed() const { return done_; }

 private:
  friend class RankCtx;
  long gen_ = -1;  // world-wide collective generation index
  double post_vtime_ = 0.0;
  std::size_t nbytes_ = 0;  // local contribution size (counters)
  std::size_t elems_ = 0;   // element count for typed waits
  const char* label_ = "";
  const char* phase_ = "";  // innermost PhaseScope at post time
  bool done_ = false;
  std::vector<double> local_;  // the contribution, on the in-process context
};

/// Per-rank execution context handed to the SPMD body.
///
/// Ownership and lifetime: created and owned by SimWorld::run(); the
/// reference passed to the body is valid only for the duration of the body.
/// The in-process context is the exception: in_process() returns it by value
/// to the sequential entry point that runs the body.
/// Thread-safety: a RankCtx belongs to exactly one rank thread — never share
/// it across ranks. Cross-rank interaction goes exclusively through the
/// send/recv/collective calls below, which synchronize internally.
class RankCtx {
 public:
  /// The in-process context: one rank on the calling thread, with no
  /// SimWorld behind it (see the file comment). Its vtime() starts now.
  static RankCtx in_process() { return RankCtx(nullptr, 0); }

  int rank() const { return rank_; }
  int size() const;
  /// True on a SimWorld rank, false on the in-process context.
  bool simulated() const { return world_ != nullptr; }
  double vtime() const { return world_ ? vclock_ : wall_.seconds(); }
  /// Add modeled seconds to this rank's virtual clock.
  void charge(double seconds) {
    const double v0 = vclock_;
    vclock_ += seconds;
    trace_compute(obs::kChargeSpan, v0, seconds);
  }

  /// Phase-annotation stack (obs::prof::PhaseScope pushes/pops here). Pure
  /// pointer bookkeeping — never touches the clock or the heap.
  obs::prof::PhaseStack& phases() { return phases_; }

  /// Run `f`, charging its thread-CPU time to the virtual clock. On a
  /// traced world the section is one compute event named `kernel`: the
  /// trace is the per-kernel record Figs. 5-6 fold (obs::kernel_seconds).
  template <typename F>
  decltype(auto) compute(const std::string& kernel, F&& f) {
    if (!world_) return f();
    const double t0 = thread_cpu_seconds();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      charge_compute(kernel, t0);
    } else {
      decltype(auto) r = f();
      charge_compute(kernel, t0);
      return r;
    }
  }
  /// An unnamed section (obs::kUnnamedCompute, which the fold skips).
  template <typename F>
  decltype(auto) compute(F&& f) {
    return compute(obs::kUnnamedCompute, std::forward<F>(f));
  }

  // --- point-to-point (buffered send; blocking or posted receive) ---

  /// Buffered send: enqueues and returns immediately, charging only the
  /// sender-side injection latency (alpha); the payload is moved into the
  /// mailbox (no aliasing with the caller afterwards).
  /// @pre  0 <= dst < size(), dst != rank().
  void send_bytes(int dst, std::vector<std::byte> data, int tag = 0);
  /// Blocking receive from `src` with matching `tag` (irecv_bytes + wait);
  /// advances this rank's virtual clock to max(own clock, sender's send
  /// clock + transfer cost).
  /// @pre  0 <= src < size(), src != rank(). Messages from a given (src,
  /// tag) are delivered in send order; a receive with no matching send ever
  /// posted deadlocks, exactly like MPI.
  std::vector<std::byte> recv_bytes(int src, int tag = 0);

  template <typename T>
  void send(int dst, const std::vector<T>& v, int tag = 0) {
    send_bytes(dst, to_bytes(std::span<const T>(v)), tag);
  }
  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    std::vector<T> v;
    append_from_bytes(v, recv_bytes(src, tag));
    return v;
  }

  /// Post a receive: registers a match ticket for the next message on the
  /// (src, tag) stream without touching the clock.
  SimRequest irecv_bytes(int src, int tag = 0);
  /// Block until `req`'s message arrives; returns the payload and advances
  /// the clock to max(own clock, arrival). Compute between the post and
  /// this call counts as overlap.
  /// @pre  `req` is valid and not yet waited on.
  std::vector<std::byte> wait(SimRequest& req);

  // --- collectives (all ranks must call in the same order) ---

  /// Synchronize all ranks' virtual clocks to the max at entry.
  /// @pre  Every rank of the world calls it (mismatched collective order
  /// across ranks deadlocks, exactly like MPI).
  void barrier();
  /// Every rank receives every rank's contribution (the primitive all other
  /// collectives are built on). `cost` (its seconds, max over ranks) is
  /// added to the synchronized clock; pass the op's CostModel price. `label`
  /// names the operation in the comm counters and the event trace.
  std::vector<std::vector<std::byte>> exchange_all(
      std::vector<std::byte> contribution, Cost cost, const char* label);

  void bcast_bytes(std::vector<std::byte>& buf, int root);
  std::vector<double> allreduce_sum(std::vector<double> local);
  /// Elementwise sum over all ranks, written back into `buf` (the same sums
  /// as allreduce_sum).
  void allreduce_sum_inplace(std::span<double> buf);
  double allreduce_sum(double x);
  /// Concatenation of all ranks' vectors in rank order.
  std::vector<double> allgatherv(const std::vector<double>& local);
  std::vector<double> allgatherv(std::vector<double>&& local);

  // --- nonblocking collectives ---
  //
  // Post now, compute, wait later. The collective's finish time is
  // max(post-time clocks) + modeled cost, so compute between post and wait
  // overlaps the modeled transfer; the wait advances the clock to
  // max(own clock, finish). The blocking forms above are post + immediate
  // wait, bit-identical to the pre-nonblocking runtime.

  CollRequest iallreduce_sum(std::vector<double> local);
  std::vector<double> wait_allreduce_sum(CollRequest& req);
  CollRequest iallgatherv(const std::vector<double>& local);
  CollRequest iallgatherv(std::vector<double>&& local);
  std::vector<double> wait_allgatherv(CollRequest& req);

  /// This rank's communication counters (always collected).
  const obs::CommCounters& counters() const { return counters_; }

 private:
  friend class SimWorld;
  RankCtx(SimWorld* world, int rank) : world_(world), rank_(rank) {}

  /// Post a contribution to the next collective generation; does not block
  /// and does not advance the clock. The typed i-collectives and the
  /// blocking exchange_all are built on this.
  CollRequest ipost_exchange(std::vector<std::byte> contribution, Cost cost,
                             const char* label);
  /// Block until the request's generation completes; synchronizes the clock
  /// and returns every rank's contribution.
  std::vector<std::vector<std::byte>> wait_exchange(CollRequest& req);

  /// The in-process context's collectives: the request carries the caller's
  /// own contribution, and the wait hands it back.
  static CollRequest local_request(std::vector<double> contribution);
  static std::vector<double> take_local(CollRequest& req);

  /// Scan the request's mailbox (lock held by `lock`) for its matching
  /// message; on a hit consume it — clock advance, counters, checksum
  /// verification — releasing the lock, storing the payload in the request,
  /// and returning true. Injected duplicate copies encountered during the
  /// scan are dropped on sight, as in the blocking path.
  bool try_complete_recv(SimRequest& req, std::unique_lock<std::mutex>& lock);

  /// Close a compute section opened at thread-CPU time `t0`: advance the
  /// clock by the (straggled) CPU time and trace it under `kernel`.
  void charge_compute(const std::string& kernel, double t0) {
    const double dt = straggle(thread_cpu_seconds() - t0);
    const double v0 = vclock_;
    vclock_ += dt;
    trace_compute(kernel, v0, dt);
  }

  /// Record a compute span [v0, vclock_] for an advance of `dt` modeled
  /// seconds (v0 is the clock captured *before* the advance, so events tile
  /// the rank timeline exactly; cost_v = dt lets the profiler replay the
  /// advance bitwise). Runs after the CPU-time measurement window closes, so
  /// tracing never inflates the charged time.
  void trace_compute(const std::string& name, double v0, double dt) {
    if (trace_) {
      obs::TraceEvent e;
      e.name = name;
      e.op = obs::SpanOp::kCompute;
      e.phase = phases_.top();
      e.begin_v = v0;
      e.block_v = v0;
      e.end_v = vclock_;
      e.cost_v = dt;
      trace_->push(std::move(e));
    }
  }

  /// Straggler fault: inflate measured CPU time by the plan's factor. The
  /// factor is exactly 1.0 when no plan marks this rank, and x * 1.0 == x
  /// for every finite double, so unfaulted clocks stay bit-identical.
  double straggle(double dt) const { return dt * compute_factor_; }

  /// Zero-length fault marker on this rank's virtual timeline.
  void trace_fault(const char* name, std::uint64_t bytes = 0, int peer = -1) {
    if (trace_) {
      obs::TraceEvent e;
      e.name = name;
      e.op = obs::SpanOp::kFault;
      e.begin_v = vclock_;
      e.block_v = vclock_;
      e.end_v = vclock_;
      e.bytes = bytes;
      e.peer = peer;
      trace_->push(std::move(e));
    }
  }

  /// Overlap reclaimed by a request completing now (at the clock the wait
  /// began with) for work in flight since `post` finishing at `avail`: the
  /// stretch of [post, avail] the rank spent computing instead of blocked.
  /// Returns the credited seconds (0.0 when none) so the completion's trace
  /// event can carry it.
  double record_overlap(double post, double avail) {
    const double ov = std::min(vclock_, avail) - post;
    if (ov > 0.0) {
      counters_.overlap_seconds += ov;
      counters_.overlapped_requests += 1;
      return ov;
    }
    return 0.0;
  }

  SimWorld* world_;  // null on the in-process context
  int rank_;
  Stopwatch wall_;   // the in-process context's clock
  double vclock_ = 0.0;
  double compute_factor_ = 1.0;  // straggler CPU-time inflation
  // Per-destination send and per-rank collective sequence numbers: the keys
  // of the deterministic fault-decision streams (only advanced when a fault
  // plan is installed).
  std::vector<std::uint64_t> p2p_seq_;
  std::uint64_t coll_seq_ = 0;
  long coll_gen_ = 0;  // program-order index of this rank's collective posts
  obs::prof::PhaseStack phases_;
  obs::CommCounters counters_;
  obs::RankTrace* trace_ = nullptr;  // null = tracing disabled
};

/// The virtual-time SPMD world (see file comment for the clock semantics).
///
/// Usage: construct, call run() with the SPMD body, then read
/// elapsed_virtual() / comm_stats() / trace(). A SimWorld is reusable: each
/// run() resets per-run state.
/// Thread-safety: drive it from one controlling thread; run() itself spawns
/// and joins the rank threads internally.
class SimWorld {
 public:
  /// @pre nranks >= 1. The options are fixed for the world's lifetime. A
  /// disabled fault plan (the default) installs no fault layer: every fault
  /// hook reduces to a single null-pointer check and the virtual-clock
  /// arithmetic is bit-identical to the fault-free runtime.
  explicit SimWorld(int nranks, const SimOptions& opts = {});

  /// Installed plan, or null when fault injection is off.
  const sim::FaultPlan* fault_plan() const { return fault_plan_; }

  /// True when the last run() was torn down early by a rank's exception
  /// (e.g. a detected payload corruption). Peers blocked in recv/collectives
  /// are released and unwound without being recorded as errors themselves.
  bool aborted() const { return comm_stats_.aborted; }

  /// Execute the SPMD body on all ranks; returns when every rank finished.
  /// Exceptions thrown by any rank are rethrown here (first one wins).
  /// Each rank thread runs under a ThreadPool::ScopedSerial guard — see the
  /// file comment — so the body may freely call pool-parallel kernels; they
  /// execute inline on the rank.
  void run(const std::function<void(RankCtx&)>& body);

  int size() const { return nranks_; }

  /// Max over ranks of the final virtual clock (the "parallel runtime").
  double elapsed_virtual() const { return elapsed_virtual_; }

  /// Per-rank communication counters of the last run (always collected).
  const obs::CommStats& comm_stats() const { return comm_stats_; }

  /// Per-rank event buffers of the last run under collect_trace (empty
  /// otherwise). One entry per rank, events in program order.
  const std::vector<obs::RankTrace>& trace() const { return trace_bufs_; }
  std::vector<obs::RankTrace> take_trace() { return std::move(trace_bufs_); }

 private:
  friend class RankCtx;

  struct Message {
    int tag;
    std::vector<std::byte> data;
    double arrival_vtime;  // sender's clock at send + transfer cost
    std::uint64_t seq = 0; // per-(src,tag) send sequence (irecv matching)
    // Profiler metadata (never read by the clock arithmetic): the transfer
    // the sender charged (fault delays included), stamped onto the receive
    // event.
    Cost transfer{};
    // Fault-layer transport metadata (only meaningful when a plan is
    // installed; zero-initialized otherwise).
    std::uint64_t checksum = 0;  // FNV-1a of the payload *before* any flip
    bool has_checksum = false;   // plan installed at send time
    bool dup_copy = false;       // injected duplicate, discarded at receive
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> per_src_queue;  // indexed externally by (src)
    std::size_t depth_hwm = 0;          // high-water mark, guarded by mu
    // Per-tag match sequencing, guarded by mu: send_seq stamps messages in
    // enqueue order; recv_ticket hands the next expected stamp to each
    // posted receive. Pairing the k-th receive with the k-th send keeps
    // per-(src,tag) FIFO order under any wait interleaving.
    std::map<int, std::uint64_t> send_seq;
    std::map<int, std::uint64_t> recv_ticket;
  };
  // mailbox_[dst * nranks + src]
  std::vector<Mailbox> mailbox_;

  // One in-flight collective "generation" (the i-th collective posted by
  // every rank). Kept in a map so ranks may post generation g+1 before
  // generation g has been waited on; an entry dies once all ranks consumed
  // its result.
  struct CollGen {
    int arrived = 0;
    int consumed = 0;
    double vt_max = 0.0;  // max over post-time clocks
    Cost cost;            // max over modeled costs (fault delays included)
    double vt_out = 0.0;  // vt_max + cost.seconds, set when the last rank posts
    bool done = false;
    bool corrupt = false;  // flip injected into this generation
    std::vector<std::vector<std::byte>> contrib;
  };
  struct CollectiveCtx {
    std::mutex mu;
    std::condition_variable cv;
    std::map<long, CollGen> gens;
  } coll_;

  /// Tear the world down: mark aborted and wake every blocked rank so the
  /// run can unwind instead of deadlocking on a dead peer.
  void abort_run();

  int nranks_;
  CostModel cost_;
  bool tracing_;
  sim::FaultPlan faults_;                      // storage for the installed plan
  const sim::FaultPlan* fault_plan_ = nullptr; // null = fault layer off
  std::atomic<bool> aborted_{false};
  double elapsed_virtual_ = 0.0;
  obs::CommStats comm_stats_;
  std::vector<obs::RankTrace> trace_bufs_;
};

}  // namespace lra
