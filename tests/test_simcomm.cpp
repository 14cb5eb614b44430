#include "par/simcomm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace lra {
namespace {

class WorldSizes : public ::testing::TestWithParam<int> {};

TEST_P(WorldSizes, AllreduceSumIsGlobal) {
  SimWorld w(GetParam());
  std::atomic<int> failures{0};
  w.run([&](RankCtx& ctx) {
    const double s = ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
    const double expect = ctx.size() * (ctx.size() + 1) / 2.0;
    if (s != expect) ++failures;
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(WorldSizes, AllgathervConcatenatesVariableSizes) {
  SimWorld w(GetParam());
  std::atomic<int> failures{0};
  w.run([&](RankCtx& ctx) {
    std::vector<double> mine(static_cast<std::size_t>(ctx.rank() + 1),
                             static_cast<double>(ctx.rank()));
    const auto all = ctx.allgatherv(mine);
    std::size_t expect_len = 0;
    for (int r = 0; r < ctx.size(); ++r) expect_len += r + 1;
    if (all.size() != expect_len) ++failures;
    // Block r should contain value r repeated r+1 times.
    std::size_t pos = 0;
    for (int r = 0; r < ctx.size(); ++r)
      for (int t = 0; t <= r; ++t)
        if (all[pos++] != r) ++failures;
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(WorldSizes, BcastDeliversRootPayload) {
  SimWorld w(GetParam());
  std::atomic<int> failures{0};
  const int root = GetParam() - 1;
  w.run([&](RankCtx& ctx) {
    std::vector<std::byte> buf;
    if (ctx.rank() == root) {
      buf.resize(3);
      buf[0] = std::byte{7};
      buf[2] = std::byte{9};
    }
    ctx.bcast_bytes(buf, root);
    if (buf.size() != 3 || buf[0] != std::byte{7} || buf[2] != std::byte{9})
      ++failures;
  });
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorldSizes, ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(SimComm, PointToPointDelivers) {
  SimWorld w(2);
  std::atomic<int> failures{0};
  w.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<double>(1, {1.5, 2.5}, 3);
    } else {
      const auto v = ctx.recv<double>(0, 3);
      if (v.size() != 2 || v[0] != 1.5 || v[1] != 2.5) ++failures;
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, TagsAreRespected) {
  SimWorld w(2);
  std::atomic<int> failures{0};
  w.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, {111}, 1);
      ctx.send<int>(1, {222}, 2);
    } else {
      // Receive out of order by tag.
      if (ctx.recv<int>(0, 2)[0] != 222) ++failures;
      if (ctx.recv<int>(0, 1)[0] != 111) ++failures;
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, NegativeTagRoundTripsAndCountsLikePositive) {
  // Regression: tags key the per-(src, tag) sequence maps directly, so a
  // negative tag must flow through the exact same delivery and counting path
  // as a positive one — blocking and nonblocking receives alike.
  SimWorld w(2);
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<double>(1, {4.5, 5.5}, /*tag=*/-3);
      ctx.send<double>(1, {6.5}, /*tag=*/-7);
    } else {
      const auto v = ctx.recv<double>(0, /*tag=*/-3);
      if (v.size() != 2 || v[0] != 4.5 || v[1] != 5.5)
        throw std::runtime_error("negative-tag payload corrupted");
      SimRequest r = ctx.irecv_bytes(0, /*tag=*/-7);
      const std::vector<std::byte> b = ctx.wait(r);
      double val = 0.0;
      if (b.size() == sizeof(double)) std::memcpy(&val, b.data(), sizeof(val));
      if (b.size() != sizeof(double) || val != 6.5)
        throw std::runtime_error("negative-tag irecv payload corrupted");
    }
  });
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.per_rank[0].msgs_sent_to[1], 2u);
  EXPECT_EQ(st.per_rank[1].msgs_recv_from[0], 2u);
  EXPECT_EQ(st.per_rank[1].bytes_recv_from[0], 3 * sizeof(double));
  EXPECT_EQ(st.check_invariants(), "");
}

TEST(CommCountersTest, SingleRankCollectivesCountLikeMultiRank) {
  // Regression: a 1-rank world's collectives cost zero modeled seconds but
  // must still increment the same call/byte counters as at P > 1 (they run
  // through the same post + wait machinery).
  SimWorld w(1);
  w.run([](RankCtx& ctx) {
    const auto g = ctx.allgatherv({1.0, 2.0});
    if (g != std::vector<double>({1.0, 2.0}))
      throw std::runtime_error("1-rank allgatherv is not the identity");
    (void)ctx.allreduce_sum(3.0);
    ctx.barrier();
  });
  const obs::CommCounters& c = w.comm_stats().per_rank[0];
  EXPECT_EQ(c.collective_calls.at("allgatherv"), 1u);
  EXPECT_EQ(c.collective_bytes.at("allgatherv"), 2 * sizeof(double));
  EXPECT_EQ(c.collective_calls.at("allreduce"), 1u);
  EXPECT_EQ(c.collective_calls.at("barrier"), 1u);
  EXPECT_EQ(c.coll_seconds, 0.0);
  EXPECT_EQ(w.elapsed_virtual(), 0.0);
  EXPECT_EQ(w.comm_stats().check_invariants(), "");
}

TEST(SimComm, InProcessContextHandsBackOwnContribution) {
  // The context the sequential solvers run their SPMD bodies on: one rank,
  // collectives return the caller's data untouched (a -0.0 stays -0.0, no
  // 0.0 + x fold), nothing is counted, there are no peers, and compute()
  // only runs its lambda.
  RankCtx ctx = RankCtx::in_process();
  EXPECT_EQ(ctx.size(), 1);
  EXPECT_EQ(ctx.rank(), 0);
  const std::vector<double> v = {-0.0, 1.5, -2.25};
  const std::vector<double> s = ctx.allreduce_sum(v);
  ASSERT_EQ(s.size(), v.size());
  EXPECT_TRUE(std::signbit(s[0]));
  EXPECT_EQ(s[1], 1.5);
  std::vector<double> in_place = v;
  ctx.allreduce_sum_inplace(in_place);
  EXPECT_TRUE(std::signbit(in_place[0]));
  EXPECT_EQ(ctx.allgatherv(v), v);
  CollRequest req = ctx.iallgatherv(v);
  EXPECT_EQ(ctx.wait_allgatherv(req), v);
  EXPECT_THROW(ctx.wait_allgatherv(req), std::logic_error);
  std::vector<std::byte> blob = {std::byte{1}, std::byte{2}};
  ctx.bcast_bytes(blob, 0);
  EXPECT_EQ(blob.size(), 2u);
  ctx.barrier();
  EXPECT_THROW(ctx.send(0, v), std::logic_error);
  EXPECT_EQ(ctx.compute("k", [] { return 42; }), 42);
  EXPECT_TRUE(ctx.counters().collective_calls.empty());
  EXPECT_GE(ctx.vtime(), 0.0);
}

TEST(SimComm, VirtualTimeAdvancesWithComm) {
  SimWorld w(4);
  w.run([&](RankCtx& ctx) {
    const double t0 = ctx.vtime();
    ctx.barrier();
    EXPECT_GT(ctx.vtime(), t0);
  });
  EXPECT_GT(w.elapsed_virtual(), 0.0);
}

TEST(SimComm, CollectiveSynchronizesClocks) {
  SimWorld w(3);
  std::atomic<int> failures{0};
  w.run([&](RankCtx& ctx) {
    ctx.charge(ctx.rank() * 0.5);  // skew the clocks
    ctx.barrier();
    // All clocks must now be at least the max skew (1.0).
    if (ctx.vtime() < 1.0) ++failures;
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, ReceiverWaitsForSenderVirtualTime) {
  SimWorld w(2);
  w.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(2.0);  // sender is "slow"
      ctx.send<int>(1, {1});
    } else {
      (void)ctx.recv<int>(0);
      EXPECT_GE(ctx.vtime(), 2.0);
    }
  });
}

TEST(SimComm, ComputeChargesKernelTimers) {
  SimWorld w(2, {.collect_trace = true});
  w.run([&](RankCtx& ctx) {
    ctx.compute("work", [&] {
      volatile double s = 0.0;
      for (int i = 0; i < 2000000; ++i)
        s = s + std::sqrt(static_cast<double>(i));
    });
  });
  const auto kt = obs::kernel_seconds(w.trace());
  ASSERT_TRUE(kt.count("work"));
  EXPECT_GT(kt.at("work"), 0.0);
  EXPECT_GE(w.elapsed_virtual(), kt.at("work"));
}

TEST(SimComm, ExceptionsPropagateToCaller) {
  SimWorld w(1);  // single rank: no peers stuck in collectives
  EXPECT_THROW(
      w.run([&](RankCtx&) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

// --- ByteReader hardening: corrupted payloads must throw, never memcpy ---

TEST(ByteReaderTest, RoundTripsHeterogeneousPayload) {
  ByteWriter w;
  w.put<std::int64_t>(-7);
  w.put<double>(2.5);
  w.put_vec<int>({1, 2, 3});
  const std::vector<std::byte> blob = w.take();
  ByteReader rd(blob);
  EXPECT_EQ(rd.get<std::int64_t>(), -7);
  EXPECT_EQ(rd.get<double>(), 2.5);
  EXPECT_EQ(rd.get_vec<int>(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(rd.done());
}

TEST(ByteReaderTest, TruncatedScalarThrows) {
  std::vector<std::byte> blob(3);  // shorter than a double
  ByteReader rd(blob);
  EXPECT_THROW(rd.get<double>(), std::out_of_range);
}

TEST(ByteReaderTest, ReadPastEndThrows) {
  ByteWriter w;
  w.put<int>(42);
  const std::vector<std::byte> blob = w.take();
  ByteReader rd(blob);
  EXPECT_EQ(rd.get<int>(), 42);
  EXPECT_THROW(rd.get<int>(), std::out_of_range);
}

TEST(ByteReaderTest, CorruptedVectorLengthThrows) {
  ByteWriter w;
  w.put_vec<double>({1.0, 2.0});
  std::vector<std::byte> blob = w.take();
  // Overwrite the length prefix with a count larger than the payload.
  const std::uint64_t bogus = 1000;
  std::memcpy(blob.data(), &bogus, sizeof(bogus));
  ByteReader rd(blob);
  EXPECT_THROW(rd.get_vec<double>(), std::out_of_range);
}

TEST(ByteReaderTest, HugeVectorLengthDoesNotOverflow) {
  ByteWriter w;
  w.put_vec<double>({1.0});
  std::vector<std::byte> blob = w.take();
  // 2^61 elements: n * sizeof(double) wraps to 0 in 64-bit arithmetic, so a
  // naive `n * sizeof(T) > remaining` check would pass and memcpy wildly.
  const std::uint64_t bogus = std::uint64_t{1} << 61;
  std::memcpy(blob.data(), &bogus, sizeof(bogus));
  ByteReader rd(blob);
  EXPECT_THROW(rd.get_vec<double>(), std::out_of_range);
}

TEST(ByteReaderTest, TruncatedVectorBodyThrows) {
  ByteWriter w;
  w.put_vec<double>({1.0, 2.0, 3.0});
  std::vector<std::byte> blob = w.take();
  blob.resize(blob.size() - 1);  // drop the last byte of the body
  ByteReader rd(blob);
  EXPECT_THROW(rd.get_vec<double>(), std::out_of_range);
}

// --- comm-counter invariants on a mixed p2p/collective workload ---

namespace {

// Ring p2p (each rank sends to rank+1), a barrier, an allreduce, and a
// two-element bcast: exercises both counting paths on every rank.
void mixed_workload(RankCtx& ctx) {
  const int p = ctx.size();
  const int next = (ctx.rank() + 1) % p;
  const int prev = (ctx.rank() + p - 1) % p;
  if (p > 1) {
    ctx.send<double>(next, {1.0, 2.0, 3.0});
    (void)ctx.recv<double>(prev);
    // A second, bigger message to make per-peer byte totals distinctive.
    ctx.send<double>(next, std::vector<double>(std::size_t(ctx.rank() + 1), 0.5));
    (void)ctx.recv<double>(prev);
  }
  ctx.barrier();
  (void)ctx.allreduce_sum(1.0);
  std::vector<std::byte> buf(16);
  ctx.bcast_bytes(buf, 0);
}

}  // namespace

TEST(CommCountersTest, MixedWorkloadSatisfiesInvariants) {
  for (const int p : {2, 3, 5}) {
    SimWorld w(p);
    w.run(mixed_workload);
    const obs::CommStats& stats = w.comm_stats();
    ASSERT_EQ(stats.per_rank.size(), static_cast<std::size_t>(p));

    // Bytes and messages sent to dst == bytes and messages dst received
    // from src, for every (src, dst) pair: all mail was drained.
    for (int src = 0; src < p; ++src)
      for (int dst = 0; dst < p; ++dst) {
        EXPECT_EQ(stats.per_rank[src].msgs_sent_to[dst],
                  stats.per_rank[dst].msgs_recv_from[src])
            << "msgs " << src << "->" << dst;
        EXPECT_EQ(stats.per_rank[src].bytes_sent_to[dst],
                  stats.per_rank[dst].bytes_recv_from[src])
            << "bytes " << src << "->" << dst;
      }

    // Global totals agree.
    std::uint64_t sent = 0, recvd = 0, bsent = 0, brecvd = 0;
    for (const auto& c : stats.per_rank) {
      sent += c.total_msgs_sent();
      recvd += c.total_msgs_recv();
      bsent += c.total_bytes_sent();
      brecvd += c.total_bytes_recv();
    }
    EXPECT_EQ(sent, recvd);
    EXPECT_EQ(bsent, brecvd);
    if (p > 1) {
      EXPECT_GT(sent, 0u);
    }

    // Every rank participated in the same collectives the same number of
    // times (barrier, allreduce, bcast).
    for (int r = 1; r < p; ++r)
      EXPECT_EQ(stats.per_rank[r].collective_calls,
                stats.per_rank[0].collective_calls)
          << "rank " << r;
    EXPECT_EQ(stats.per_rank[0].collective_calls.at("barrier"), 1u);
    EXPECT_EQ(stats.per_rank[0].collective_calls.at("allreduce"), 1u);
    EXPECT_EQ(stats.per_rank[0].collective_calls.at("bcast"), 1u);

    // The registry's own consistency check agrees.
    EXPECT_EQ(stats.check_invariants(), "");
    if (p > 1) {
      EXPECT_GE(stats.max_queue_depth(), 1u);
    }
  }
}

TEST(CommCountersTest, P2PCountsExactBytes) {
  SimWorld w(2);
  w.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0)
      ctx.send<double>(1, {1.0, 2.0, 3.0, 4.0});
    else
      (void)ctx.recv<double>(0);
  });
  const obs::CommStats& stats = w.comm_stats();
  EXPECT_EQ(stats.per_rank[0].msgs_sent_to[1], 1u);
  EXPECT_EQ(stats.per_rank[0].bytes_sent_to[1], 4 * sizeof(double));
  EXPECT_EQ(stats.per_rank[1].bytes_recv_from[0], 4 * sizeof(double));
  EXPECT_EQ(stats.per_rank[1].total_msgs_sent(), 0u);
  EXPECT_EQ(stats.check_invariants(), "");
}

TEST(CommCountersTest, QueueDepthSeesBacklog) {
  SimWorld w(2);
  w.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) ctx.send<int>(1, {i}, /*tag=*/i);
      ctx.barrier();
    } else {
      ctx.barrier();  // let the backlog build before draining
      for (int i = 4; i >= 0; --i) (void)ctx.recv<int>(0, /*tag=*/i);
    }
  });
  EXPECT_GE(w.comm_stats().max_queue_depth(), 5u);
}

// --- deterministic fault injection (sim/fault) -------------------------------

SimOptions with_plan(sim::FaultPlan p) {
  SimOptions o;
  o.faults = std::move(p);
  return o;
}

std::uint64_t sum_vec(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

TEST(FaultInjection, NoPlanRecordsNoFaultEvents) {
  SimWorld w(3);
  w.run(mixed_workload);
  EXPECT_EQ(w.comm_stats().total_fault_events(), 0u);
  EXPECT_FALSE(w.aborted());
}

TEST(FaultInjection, DelayInflatesVirtualTimeNotPayloads) {
  // A pure-communication ring: no compute() spans, so both runs advance their
  // clocks by modeled costs only and the comparison is deterministic.
  auto ring = [](RankCtx& ctx) {
    const int p = ctx.size();
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    ctx.send<double>(next, {1.5, 2.5});
    const auto v = ctx.recv<double>(prev);
    if (v.size() != 2 || v[0] != 1.5 || v[1] != 2.5)
      throw std::runtime_error("payload changed under delay faults");
  };
  SimWorld clean(4);
  clean.run(ring);

  sim::FaultPlan p;
  p.delay_prob = 1.0;
  p.delay_factor = 16.0;
  SimWorld faulted(4, with_plan(p));
  faulted.run(ring);

  EXPECT_GT(faulted.elapsed_virtual(), clean.elapsed_virtual());
  const obs::CommStats& st = faulted.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  EXPECT_FALSE(st.aborted);
  std::uint64_t delayed = 0;
  for (const auto& c : st.per_rank) delayed += sum_vec(c.msgs_delayed_to);
  EXPECT_EQ(delayed, 4u);  // prob 1: every message delayed
  // Delivered payload volume is untouched by delay faults.
  EXPECT_EQ(st.total_bytes(), clean.comm_stats().total_bytes());
}

TEST(FaultInjection, DuplicatesAreDiscardedAndBalanced) {
  sim::FaultPlan p;
  p.dup_prob = 1.0;
  SimWorld w(2, with_plan(p));
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, {111}, /*tag=*/1);
      ctx.send<int>(1, {222}, /*tag=*/2);
    } else {
      // Receiving tag 2 first forces the transport to scan past (and drop)
      // the duplicate copy of the tag-1 message.
      if (ctx.recv<int>(0, /*tag=*/2)[0] != 222)
        throw std::runtime_error("dup fault corrupted a payload");
      if (ctx.recv<int>(0, /*tag=*/1)[0] != 111)
        throw std::runtime_error("dup fault corrupted a payload");
    }
  });
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  EXPECT_EQ(sum_vec(st.per_rank[0].msgs_duplicated_to), 2u);
  // Every duplicate was discarded — by the receive scan or the post-join
  // sweep of trailing copies — never delivered to the application.
  EXPECT_EQ(sum_vec(st.per_rank[1].dups_dropped_from), 2u);
  EXPECT_EQ(st.per_rank[1].msgs_recv_from[0], 2u);
}

TEST(FaultInjection, TrailingDuplicateCountedAsDropped) {
  // One message, one matching recv: the duplicate copy is still in the
  // mailbox when the ranks join, and run() must sweep it into the dropped
  // count so duplicated == dropped holds for clean runs.
  sim::FaultPlan p;
  p.dup_prob = 1.0;
  SimWorld w(2, with_plan(p));
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0)
      ctx.send<int>(1, {42});
    else
      (void)ctx.recv<int>(0);
  });
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  EXPECT_EQ(sum_vec(st.per_rank[0].msgs_duplicated_to), 1u);
  EXPECT_EQ(sum_vec(st.per_rank[1].dups_dropped_from), 1u);
}

TEST(FaultInjection, FlipRaisesCommFaultAndAborts) {
  sim::FaultPlan p;
  p.flip_prob = 1.0;
  SimWorld w(2, with_plan(p));
  EXPECT_THROW(w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0)
      ctx.send<double>(1, {3.14});
    else
      (void)ctx.recv<double>(0);
  }),
               sim::CommFaultError);
  EXPECT_TRUE(w.aborted());
  const obs::CommStats& st = w.comm_stats();
  EXPECT_TRUE(st.aborted);
  EXPECT_EQ(st.check_invariants(), "");  // invariants are abort-aware
  EXPECT_GE(sum_vec(st.per_rank[1].corrupt_detected_from), 1u);
  EXPECT_GE(sum_vec(st.per_rank[0].msgs_corrupted_to), 1u);
}

TEST(FaultInjection, CollectiveFlipAbortsAllRanks) {
  sim::FaultPlan p;
  p.flip_prob = 1.0;
  SimWorld w(4, with_plan(p));
  EXPECT_THROW(
      w.run([](RankCtx& ctx) { (void)ctx.allreduce_sum(1.0); }),
      sim::CommFaultError);
  EXPECT_TRUE(w.aborted());
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  std::uint64_t flips = 0;
  for (const auto& c : st.per_rank) flips += c.coll_flip_faults;
  EXPECT_GE(flips, 1u);
}

TEST(FaultInjection, DecisionsAreDeterministicAcrossRuns) {
  // Fault decisions are pure functions of (seed, stream, edge, seq): two
  // runs of the same workload under the same plan must agree on every fault
  // counter and — since the workload never measures CPU time — on the
  // virtual clock, bit for bit.
  sim::FaultPlan p;
  p.seed = 99;
  p.delay_prob = 0.5;
  p.delay_factor = 4.0;
  p.dup_prob = 0.5;
  SimWorld w1(3, with_plan(p));
  w1.run(mixed_workload);
  SimWorld w2(3, with_plan(p));
  w2.run(mixed_workload);
  const obs::CommStats& a = w1.comm_stats();
  const obs::CommStats& b = w2.comm_stats();
  ASSERT_EQ(a.per_rank.size(), b.per_rank.size());
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    EXPECT_EQ(a.per_rank[r].msgs_delayed_to, b.per_rank[r].msgs_delayed_to);
    EXPECT_EQ(a.per_rank[r].msgs_duplicated_to,
              b.per_rank[r].msgs_duplicated_to);
    EXPECT_EQ(a.per_rank[r].dups_dropped_from, b.per_rank[r].dups_dropped_from);
    EXPECT_EQ(a.per_rank[r].coll_delay_faults, b.per_rank[r].coll_delay_faults);
  }
  EXPECT_EQ(a.total_fault_events(), b.total_fault_events());
  EXPECT_EQ(w1.elapsed_virtual(), w2.elapsed_virtual());
  EXPECT_EQ(a.check_invariants(), "");
}

TEST(FaultInjection, StragglerInflatesComputeTime) {
  // The straggler multiplies *measured* CPU time, which is noisy between
  // runs — a 64x factor dwarfs any plausible scheduling noise.
  auto spin = [](RankCtx& ctx) {
    ctx.compute("spin", [] {
      volatile double s = 0.0;
      for (int i = 0; i < 2000000; ++i)
        s = s + std::sqrt(static_cast<double>(i));
    });
  };
  SimWorld clean(1);
  clean.run(spin);

  sim::FaultPlan p;
  p.straggler_ranks = {0};
  p.straggle_factor = 64.0;
  SimWorld faulted(1, with_plan(p));
  faulted.run(spin);

  EXPECT_GT(faulted.elapsed_virtual(), clean.elapsed_virtual());
  EXPECT_EQ(faulted.comm_stats().check_invariants(), "");
}

TEST(CostModelTest, MonotoneInSizeAndRanks) {
  CostModel cm;
  EXPECT_GT(cm.p2p(1000).seconds, cm.p2p(10).seconds);
  EXPECT_GT(cm.tree(8, 100).seconds, cm.tree(2, 100).seconds);
  EXPECT_EQ(cm.tree(1, 100).seconds, 0.0);
  EXPECT_EQ(CostModel::ceil_log2(1), 0);
  EXPECT_EQ(CostModel::ceil_log2(2), 1);
  EXPECT_EQ(CostModel::ceil_log2(5), 3);
  EXPECT_EQ(CostModel::ceil_log2(1024), 10);
}

}  // namespace
}  // namespace lra
