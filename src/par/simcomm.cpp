#include "par/simcomm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "par/pool.hpp"

namespace lra {
namespace {

/// Internal unwind signal: a peer rank raised an error and SimWorld::abort_run
/// released everyone blocked in recv/collectives. Not an application error —
/// the rank wrapper in SimWorld::run filters it out so only the originating
/// exception is reported.
struct SimAbort {};

/// Decision-stream key of the directed edge src -> dst.
std::uint64_t edge_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

void flip_bit(std::vector<std::byte>& data, std::uint64_t bit) {
  data[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::byte>(1u << (bit % 8));
}

/// A delay fault: the charged seconds and both shares grow by `factor`.
void inflate(Cost& c, double factor) {
  c.seconds *= factor;
  c.alpha_t *= factor;
  c.beta_t *= factor;
}

}  // namespace

int RankCtx::size() const { return world_ ? world_->nranks_ : 1; }

CollRequest RankCtx::local_request(std::vector<double> contribution) {
  CollRequest req;
  req.gen_ = 0;
  req.elems_ = contribution.size();
  req.local_ = std::move(contribution);
  return req;
}

std::vector<double> RankCtx::take_local(CollRequest& req) {
  if (!req.valid())
    throw std::logic_error("CollRequest: wait on an invalid request");
  if (req.done_)
    throw std::logic_error("CollRequest: collective already waited on");
  req.done_ = true;
  return std::move(req.local_);
}

// --- point-to-point ---

void RankCtx::send_bytes(int dst, std::vector<std::byte> data, int tag) {
  if (!world_)
    throw std::logic_error("RankCtx: the in-process context has no peers");
  if (world_->aborted_.load(std::memory_order_relaxed)) throw SimAbort{};
  SimWorld::Mailbox& box =
      world_->mailbox_[static_cast<std::size_t>(dst) * world_->nranks_ + rank_];
  const std::size_t nbytes = data.size();
  const double v0 = vclock_;

  Cost transfer = world_->cost_.p2p(nbytes);
  const sim::FaultPlan* fp = world_->fault_plan_;
  std::uint64_t edge = 0;
  std::uint64_t seq = 0;
  bool dup = false;
  if (fp) {
    edge = edge_key(rank_, dst);
    seq = p2p_seq_[static_cast<std::size_t>(dst)]++;
    if (fp->delay_prob > 0.0 &&
        sim::fault_uniform(fp->seed, sim::FaultStream::kDelay, edge, seq) <
            fp->delay_prob) {
      inflate(transfer, fp->delay_factor);
      counters_.msgs_delayed_to[dst] += 1;
      trace_fault("fault:delay", nbytes, dst);
    }
    dup = fp->dup_prob > 0.0 &&
          sim::fault_uniform(fp->seed, sim::FaultStream::kDup, edge, seq) <
              fp->dup_prob;
  }
  const double arrival = vclock_ + transfer.seconds;

  SimWorld::Message msg{tag, std::move(data), arrival};
  msg.transfer = transfer;
  if (fp) {
    // Checksum the payload *before* any flip, like a sender-side CRC; the
    // receiver recomputes and detects the in-flight corruption.
    msg.has_checksum = true;
    msg.checksum = sim::payload_checksum(msg.data.data(), msg.data.size());
    if (fp->flip_prob > 0.0 && !msg.data.empty() &&
        sim::fault_uniform(fp->seed, sim::FaultStream::kFlip, edge, seq) <
            fp->flip_prob) {
      flip_bit(msg.data, sim::fault_hash(fp->seed, sim::FaultStream::kBitIndex,
                                         edge, seq) %
                             (8 * msg.data.size()));
      counters_.msgs_corrupted_to[dst] += 1;
      trace_fault("fault:flip", nbytes, dst);
    }
  }

  // Buffered send: the sender pays only the injection latency.
  vclock_ += world_->cost_.alpha;
  std::uint64_t match_seq = 0;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    match_seq = box.send_seq[tag]++;
    msg.seq = match_seq;
    if (dup) {
      SimWorld::Message copy = msg;  // same payload (post-flip), arrival, seq
      copy.dup_copy = true;
      box.per_src_queue.push_back(std::move(msg));
      box.per_src_queue.push_back(std::move(copy));
    } else {
      box.per_src_queue.push_back(std::move(msg));
    }
    box.depth_hwm = std::max(box.depth_hwm, box.per_src_queue.size());
  }
  box.cv.notify_all();
  if (dup) counters_.msgs_duplicated_to[dst] += 1;
  counters_.msgs_sent_to[dst] += 1;
  counters_.bytes_sent_to[dst] += nbytes;
  if (trace_) {
    obs::TraceEvent e;
    e.name = "send->" + std::to_string(dst);
    e.op = obs::SpanOp::kSend;
    e.phase = phases_.top();
    e.begin_v = v0;
    e.block_v = v0;
    e.end_v = vclock_;          // injection-latency charge
    e.bytes = nbytes;
    e.peer = dst;
    e.cost_v = world_->cost_.alpha;     // the exact charged double
    e.avail_v = arrival;                // transfer completion on the wire
    e.cost_alpha_v = transfer.alpha_t;  // transfer decomposition (edge cost)
    e.cost_beta_v = transfer.beta_t;
    e.flow = obs::p2p_flow_key(tag, match_seq);
    trace_->push(std::move(e));
  }
  // Marker after the kSend event: the clock already advanced past v0, so
  // emitting it earlier would break the tiling contract (block_v must equal
  // the previous event's end_v).
  if (dup) trace_fault("fault:dup", nbytes, dst);
}

SimRequest RankCtx::irecv_bytes(int src, int tag) {
  if (!world_)
    throw std::logic_error("RankCtx: the in-process context has no peers");
  if (world_->aborted_.load(std::memory_order_relaxed)) throw SimAbort{};
  SimWorld::Mailbox& box =
      world_->mailbox_[static_cast<std::size_t>(rank_) * world_->nranks_ + src];
  SimRequest req;
  req.peer_ = src;
  req.tag_ = tag;
  req.phase_ = phases_.top();  // the phase that initiated the transfer
  req.post_vtime_ = vclock_;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    req.ticket_ = box.recv_ticket[tag]++;
  }
  return req;
}

bool RankCtx::try_complete_recv(SimRequest& req,
                                std::unique_lock<std::mutex>& lock) {
  const int src = req.peer_;
  SimWorld::Mailbox& box =
      world_->mailbox_[static_cast<std::size_t>(rank_) * world_->nranks_ + src];
  auto& q = box.per_src_queue;
  for (auto it = q.begin(); it != q.end();) {
    if (it->dup_copy) {
      // Injected duplicate: the transport discards it on sight (sequence-
      // number dedup) and keeps scanning for the real message.
      it = q.erase(it);
      counters_.dups_dropped_from[src] += 1;
      trace_fault("fault:dup-drop", 0, src);
      continue;
    }
    if (it->tag == req.tag_ && it->seq == req.ticket_) {
      SimWorld::Message msg = std::move(*it);
      q.erase(it);
      lock.unlock();
      const double ov = record_overlap(req.post_vtime_, msg.arrival_vtime);
      const double v_block = vclock_;  // tiling clock, before the fold
      vclock_ = std::max(vclock_, msg.arrival_vtime);
      counters_.msgs_recv_from[src] += 1;
      counters_.bytes_recv_from[src] += msg.data.size();
      if (trace_) {
        obs::TraceEvent e;
        e.name = "recv<-" + std::to_string(src);
        e.op = obs::SpanOp::kRecv;
        e.phase = req.phase_;
        e.begin_v = req.post_vtime_;
        e.block_v = v_block;
        e.end_v = vclock_;
        e.bytes = msg.data.size();
        e.peer = src;
        e.avail_v = msg.arrival_vtime;
        e.cost_v = msg.transfer.seconds;
        e.cost_alpha_v = msg.transfer.alpha_t;
        e.cost_beta_v = msg.transfer.beta_t;
        e.overlap_v = ov;
        e.flow = obs::p2p_flow_key(req.tag_, msg.seq);
        trace_->push(std::move(e));
      }
      if (msg.has_checksum &&
          sim::payload_checksum(msg.data.data(), msg.data.size()) !=
              msg.checksum) {
        counters_.corrupt_detected_from[src] += 1;
        trace_fault("fault:detect", msg.data.size(), src);
        world_->abort_run();
        throw sim::CommFaultError(
            "corrupted payload detected: " + std::to_string(msg.data.size()) +
                "-byte message from rank " + std::to_string(src) +
                " to rank " + std::to_string(rank_) + " failed its checksum",
            src, rank_);
      }
      req.done_ = true;
      req.data_ = std::move(msg.data);
      return true;
    }
    ++it;
  }
  return false;
}

std::vector<std::byte> RankCtx::wait(SimRequest& req) {
  if (!req.valid())
    throw std::logic_error("SimRequest: wait on an invalid request");
  if (req.done_)
    throw std::logic_error("SimRequest: receive already waited on");
  SimWorld::Mailbox& box =
      world_->mailbox_[static_cast<std::size_t>(rank_) * world_->nranks_ +
                       req.peer_];
  std::unique_lock<std::mutex> lock(box.mu);
  while (!try_complete_recv(req, lock)) {  // a hit releases the lock
    if (world_->aborted_.load(std::memory_order_relaxed)) throw SimAbort{};
    box.cv.wait(lock);
  }
  return std::move(req.data_);
}

std::vector<std::byte> RankCtx::recv_bytes(int src, int tag) {
  SimRequest req = irecv_bytes(src, tag);
  return wait(req);
}

// --- collectives ---

CollRequest RankCtx::ipost_exchange(std::vector<std::byte> contribution,
                                    Cost cost, const char* label) {
  const sim::FaultPlan* fp = world_->fault_plan_;
  bool flip_here = false;
  if (fp) {
    const std::uint64_t seq = coll_seq_++;
    const auto me = static_cast<std::uint64_t>(rank_);
    if (fp->delay_prob > 0.0 &&
        sim::fault_uniform(fp->seed, sim::FaultStream::kCollDelay, me, seq) <
            fp->delay_prob) {
      inflate(cost, fp->delay_factor);
      counters_.coll_delay_faults += 1;
      trace_fault("fault:coll-delay", contribution.size());
    }
    // Empty contributions (barrier, non-root bcast) carry no bits to flip.
    flip_here =
        fp->flip_prob > 0.0 && !contribution.empty() &&
        sim::fault_uniform(fp->seed, sim::FaultStream::kCollFlip, me, seq) <
            fp->flip_prob;
    if (flip_here) {
      flip_bit(contribution,
               sim::fault_hash(fp->seed, sim::FaultStream::kBitIndex, me, seq) %
                   (8 * contribution.size()));
      counters_.coll_flip_faults += 1;
      trace_fault("fault:coll-flip", contribution.size());
    }
  }

  CollRequest req;
  req.gen_ = coll_gen_++;
  req.post_vtime_ = vclock_;
  req.nbytes_ = contribution.size();
  req.label_ = label;
  req.phase_ = phases_.top();

  // Zero-length post marker: the dependency-DAG source of this collective's
  // cross-rank edge (the finish time is a max over these post clocks), and
  // the replay anchor for the profiler's what-if projections.
  if (trace_) {
    obs::TraceEvent e;
    e.name = label;
    e.op = obs::SpanOp::kCollPost;
    e.phase = req.phase_;
    e.begin_v = vclock_;
    e.block_v = vclock_;
    e.end_v = vclock_;
    e.bytes = req.nbytes_;
    e.flow = static_cast<std::uint64_t>(req.gen_) + 1;
    trace_->push(std::move(e));
  }

  SimWorld::CollectiveCtx& c = world_->coll_;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (world_->aborted_.load(std::memory_order_relaxed)) throw SimAbort{};
    SimWorld::CollGen& g = c.gens[req.gen_];
    if (g.contrib.empty())
      g.contrib.assign(static_cast<std::size_t>(world_->nranks_), {});
    g.contrib[rank_] = std::move(contribution);
    if (flip_here) g.corrupt = true;
    g.vt_max = std::max(g.vt_max, vclock_);
    if (cost.seconds > g.cost.seconds) g.cost = cost;
    if (++g.arrived == world_->nranks_) {
      // Finish time is computed from the *post* clocks: ranks that post
      // early and compute until their wait genuinely overlap the transfer.
      g.vt_out = g.vt_max + g.cost.seconds;
      g.done = true;
      c.cv.notify_all();
    }
  }
  return req;
}

std::vector<std::vector<std::byte>> RankCtx::wait_exchange(CollRequest& req) {
  if (!req.valid())
    throw std::logic_error("CollRequest: wait on an invalid request");
  if (req.done_)
    throw std::logic_error("CollRequest: collective already waited on");
  SimWorld::CollectiveCtx& c = world_->coll_;
  std::unique_lock<std::mutex> lock(c.mu);
  auto it = c.gens.find(req.gen_);
  if (it == c.gens.end())
    throw std::logic_error("CollRequest: unknown collective generation");
  SimWorld::CollGen& g = it->second;
  c.cv.wait(lock, [&] {
    return g.done || world_->aborted_.load(std::memory_order_relaxed);
  });
  // Torn down before the collective completed: unwind, don't deliver.
  if (!g.done) throw SimAbort{};
  const double vt_out = g.vt_out;
  const Cost cost = g.cost;
  const bool corrupt = g.corrupt;
  std::vector<std::vector<std::byte>> result = g.contrib;  // every rank's copy
  // The generation record lives until all ranks consumed it; a corrupted one
  // is kept so every participant observes the flag before the world unwinds.
  if (!corrupt && ++g.consumed == world_->nranks_) c.gens.erase(it);
  lock.unlock();

  const double ov = record_overlap(req.post_vtime_, vt_out);
  const double v_block = vclock_;  // tiling clock, before the fold
  vclock_ = std::max(vclock_, vt_out);
  req.done_ = true;
  counters_.collective_calls[req.label_] += 1;
  counters_.collective_bytes[req.label_] += req.nbytes_;
  counters_.coll_seconds += cost.seconds;
  if (trace_) {
    obs::TraceEvent e;
    e.name = req.label_;
    e.op = obs::SpanOp::kCollWait;
    e.phase = req.phase_;
    e.begin_v = req.post_vtime_;
    e.block_v = v_block;
    e.end_v = vclock_;
    e.bytes = req.nbytes_;
    e.avail_v = vt_out;
    e.cost_v = cost.seconds;
    e.cost_alpha_v = cost.alpha_t;
    e.cost_beta_v = cost.beta_t;
    e.overlap_v = ov;
    e.flow = static_cast<std::uint64_t>(req.gen_) + 1;
    trace_->push(std::move(e));
  }
  if (corrupt) {
    world_->abort_run();
    throw sim::CommFaultError(
        std::string(req.label_) +
            ": corrupted collective contribution detected at rank " +
            std::to_string(rank_),
        /*src=*/-1, rank_);
  }
  return result;
}

std::vector<std::vector<std::byte>> RankCtx::exchange_all(
    std::vector<std::byte> contribution, Cost cost, const char* label) {
  if (!world_) {
    std::vector<std::vector<std::byte>> mine;
    mine.push_back(std::move(contribution));
    return mine;
  }
  CollRequest req = ipost_exchange(std::move(contribution), cost, label);
  return wait_exchange(req);
}

void RankCtx::barrier() {
  if (!world_) return;
  exchange_all({}, world_->cost_.tree(world_->nranks_, 8), "barrier");
}

void RankCtx::bcast_bytes(std::vector<std::byte>& buf, int root) {
  if (!world_) return;
  std::vector<std::byte> contrib = rank_ == root ? buf : std::vector<std::byte>{};
  // Non-roots do not know the size yet; the cost max over ranks is what
  // counts, and the root supplies the true one.
  const Cost cost =
      rank_ == root ? world_->cost_.tree(world_->nranks_, buf.size()) : Cost{};
  auto all = exchange_all(std::move(contrib), cost, "bcast");
  buf = std::move(all[root]);
}

CollRequest RankCtx::iallreduce_sum(std::vector<double> local) {
  if (!world_) return local_request(std::move(local));
  const std::size_t nbytes = local.size() * sizeof(double);
  CollRequest req = ipost_exchange(
      to_bytes(std::span<const double>(local)),
      world_->cost_.allreduce(world_->nranks_, nbytes), "allreduce");
  req.elems_ = local.size();
  return req;
}

std::vector<double> RankCtx::wait_allreduce_sum(CollRequest& req) {
  if (!world_) return take_local(req);
  const std::size_t elems = req.elems_;
  auto all = wait_exchange(req);
  std::vector<double> out(elems, 0.0);
  // Summed straight from the received buffers: no decoded copies.
  for (const auto& blob : all) {
    const std::size_t n = std::min(blob.size() / sizeof(double), elems);
    for (std::size_t i = 0; i < n; ++i) out[i] += element_at<double>(blob, i);
  }
  return out;
}

std::vector<double> RankCtx::allreduce_sum(std::vector<double> local) {
  CollRequest req = iallreduce_sum(std::move(local));
  return wait_allreduce_sum(req);
}

void RankCtx::allreduce_sum_inplace(std::span<double> buf) {
  if (!world_ || buf.empty()) return;
  const std::vector<double> sum =
      allreduce_sum(std::vector<double>(buf.begin(), buf.end()));
  std::copy(sum.begin(), sum.end(), buf.begin());
}

double RankCtx::allreduce_sum(double x) {
  return allreduce_sum(std::vector<double>{x})[0];
}

CollRequest RankCtx::iallgatherv(std::vector<double>&& local) {
  if (!world_) return local_request(std::move(local));
  return iallgatherv(static_cast<const std::vector<double>&>(local));
}

CollRequest RankCtx::iallgatherv(const std::vector<double>& local) {
  if (!world_) return local_request(local);
  const std::size_t nbytes = local.size() * sizeof(double);
  // Total volume is only known post-exchange; approximate with P * local
  // size, which is exact for the uniform distributions used here.
  return ipost_exchange(
      to_bytes(std::span<const double>(local)),
      world_->cost_.allgather(world_->nranks_, world_->nranks_ * nbytes),
      "allgatherv");
}

std::vector<double> RankCtx::wait_allgatherv(CollRequest& req) {
  if (!world_) return take_local(req);
  const auto all = wait_exchange(req);
  std::vector<double> out;
  for (const auto& blob : all) append_from_bytes(out, blob);
  return out;
}

std::vector<double> RankCtx::allgatherv(const std::vector<double>& local) {
  CollRequest req = iallgatherv(local);
  return wait_allgatherv(req);
}

std::vector<double> RankCtx::allgatherv(std::vector<double>&& local) {
  CollRequest req = iallgatherv(std::move(local));
  return wait_allgatherv(req);
}

SimWorld::SimWorld(int nranks, const SimOptions& opts)
    : mailbox_(static_cast<std::size_t>(nranks) * nranks),
      nranks_(nranks),
      cost_(opts.cost),
      tracing_(opts.collect_trace),
      faults_(opts.faults),
      fault_plan_(faults_.enabled() ? &faults_ : nullptr) {}

void SimWorld::abort_run() {
  aborted_.store(true);
  // Wake everything that could be blocked. Taking each lock before notifying
  // closes the race against a rank that checked the flag and is about to
  // wait: it either sees the flag or is woken after it waits.
  for (Mailbox& box : mailbox_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(coll_.mu);
    coll_.cv.notify_all();
  }
}

void SimWorld::run(const std::function<void(RankCtx&)>& body) {
  // Reset per-run state (an aborted previous run may have stranded mail and
  // half-arrived collective generations).
  aborted_.store(false);
  for (Mailbox& box : mailbox_) {
    box.per_src_queue.clear();
    box.depth_hwm = 0;
    box.send_seq.clear();
    box.recv_ticket.clear();
  }
  coll_.gens.clear();
  trace_bufs_.clear();
  if (tracing_) trace_bufs_.resize(static_cast<std::size_t>(nranks_));

  std::vector<RankCtx> ctx;
  ctx.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ctx.push_back(RankCtx(this, r));
    ctx.back().counters_.resize(nranks_);
    if (tracing_) ctx.back().trace_ = &trace_bufs_[static_cast<std::size_t>(r)];
    if (fault_plan_) {
      ctx.back().compute_factor_ = faults_.compute_factor(r);
      ctx.back().p2p_seq_.assign(static_cast<std::size_t>(nranks_), 0);
    }
  }

  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex err_mu;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      // Virtual clocks charge CLOCK_THREAD_CPUTIME_ID of *this* thread; any
      // pool worker forked inside a rank would escape the accounting, so the
      // thread-pool kernels run inline within simulated ranks and the
      // virtual clocks stay bit-identical to the single-threaded runtime.
      ThreadPool::ScopedSerial serial;
      try {
        body(ctx[r]);
      } catch (const SimAbort&) {
        // Peer unwound by abort_run: not an error of this rank.
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort_run();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Aggregate before rethrowing: an aborted run still reports its virtual
  // times, counters and traces (the harness asserts on them).
  elapsed_virtual_ = 0.0;
  comm_stats_.per_rank.clear();
  comm_stats_.per_rank.reserve(static_cast<std::size_t>(nranks_));
  comm_stats_.aborted = aborted_.load();
  for (const auto& c : ctx) {
    elapsed_virtual_ = std::max(elapsed_virtual_, c.vtime());
    comm_stats_.per_rank.push_back(c.counters());
  }
  // Queue-depth high-water marks live in the destination mailboxes; fold the
  // max over a rank's incoming boxes into that rank's counters.
  for (int dst = 0; dst < nranks_; ++dst) {
    std::uint64_t hwm = 0;
    for (int src = 0; src < nranks_; ++src) {
      Mailbox& box = mailbox_[static_cast<std::size_t>(dst) * nranks_ + src];
      hwm = std::max(hwm, static_cast<std::uint64_t>(box.depth_hwm));
      // Duplicate copies still in the mailbox were discarded by the
      // transport at teardown (connection close), completing the
      // duplicated == dropped accounting for trailing messages.
      if (fault_plan_) {
        for (const Message& m : box.per_src_queue)
          if (m.dup_copy)
            comm_stats_.per_rank[static_cast<std::size_t>(dst)]
                .dups_dropped_from[src] += 1;
      }
    }
    comm_stats_.per_rank[static_cast<std::size_t>(dst)].max_queue_depth = hwm;
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lra
