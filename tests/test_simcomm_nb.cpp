// Property suite for the nonblocking point-to-point layer (buffered send,
// irecv, wait): randomized schedules must deliver exactly the payloads the
// blocking runtime delivers, in per-(src, tag) post order, and finish with
// bitwise-identical per-rank virtual clocks whatever the post and wait
// orders. All schedules use
// charge() (modeled seconds) rather than compute() (measured CPU seconds),
// so both runs are fully deterministic and the comparison is exact.

#include "par/simcomm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace lra {
namespace {

// World sizes exercised by the randomized schedules. The CI comm matrix
// re-runs the suite with LRA_COMM_RANKS=P to pin one extra size.
std::vector<int> property_world_sizes() {
  std::vector<int> sizes{2, 3, 4, 5, 8};
  if (const char* env = std::getenv("LRA_COMM_RANKS")) {
    const int p = std::atoi(env);
    if (p >= 2 && std::find(sizes.begin(), sizes.end(), p) == sizes.end())
      sizes.push_back(p);
  }
  return sizes;
}

struct ScheduledMsg {
  int src = 0, dst = 0, tag = 0;
  std::vector<double> payload;
};

struct Schedule {
  int nranks = 2;
  std::vector<ScheduledMsg> msgs;      // global generation (= send) order
  std::vector<double> pre_charge;      // per rank, before the sends
  std::vector<double> mid_charge;      // per rank, between posts and waits
  // Per rank: permutations of that rank's incoming message indices (into
  // msgs), fixing the irecv post order and the wait order independently.
  std::vector<std::vector<std::size_t>> post_order;
  std::vector<std::vector<std::size_t>> wait_order;
};

Schedule make_schedule(int nranks, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Schedule s;
  s.nranks = nranks;
  std::uniform_int_distribution<int> rank_dist(0, nranks - 1);
  std::uniform_int_distribution<int> tag_dist(-2, 3);  // negative tags too
  std::uniform_int_distribution<int> count_dist(3, 10);
  std::uniform_int_distribution<int> len_dist(0, 6);   // empty payloads too
  std::uniform_real_distribution<double> val_dist(-8.0, 8.0);
  std::uniform_real_distribution<double> charge_dist(0.0, 1e-3);

  const int n = count_dist(rng);
  for (int i = 0; i < n; ++i) {
    ScheduledMsg m;
    m.src = rank_dist(rng);
    do m.dst = rank_dist(rng); while (m.dst == m.src);
    m.tag = tag_dist(rng);
    m.payload.resize(static_cast<std::size_t>(len_dist(rng)));
    for (double& v : m.payload) v = val_dist(rng);
    s.msgs.push_back(std::move(m));
  }
  for (int r = 0; r < nranks; ++r) {
    s.pre_charge.push_back(charge_dist(rng));
    s.mid_charge.push_back(charge_dist(rng));
    std::vector<std::size_t> incoming;
    for (std::size_t i = 0; i < s.msgs.size(); ++i)
      if (s.msgs[i].dst == r) incoming.push_back(i);
    std::vector<std::size_t> post = incoming, wait = incoming;
    std::shuffle(post.begin(), post.end(), rng);
    std::shuffle(wait.begin(), wait.end(), rng);
    s.post_order.push_back(std::move(post));
    s.wait_order.push_back(std::move(wait));
  }
  return s;
}

/// The payload the k-th posted irecv on stream (src, tag) must deliver: the
/// k-th message generated (= sent) on that stream.
std::vector<double> expected_stream_payload(const Schedule& s, int dst,
                                            int src, int tag,
                                            std::size_t stream_pos) {
  std::size_t seen = 0;
  for (const ScheduledMsg& m : s.msgs) {
    if (m.src == src && m.dst == dst && m.tag == tag) {
      if (seen == stream_pos) return m.payload;
      ++seen;
    }
  }
  throw std::logic_error("schedule has no such stream message");
}

/// Blocking reference: send everything, then recv everything; returns the
/// final per-rank virtual clocks.
std::vector<double> run_blocking(const Schedule& s) {
  std::vector<double> clocks(static_cast<std::size_t>(s.nranks), 0.0);
  SimWorld w(s.nranks);
  w.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    ctx.charge(s.pre_charge[static_cast<std::size_t>(r)]);
    for (const ScheduledMsg& m : s.msgs)
      if (m.src == r) ctx.send<double>(m.dst, m.payload, m.tag);
    ctx.charge(s.mid_charge[static_cast<std::size_t>(r)]);
    for (const ScheduledMsg& m : s.msgs)
      if (m.dst == r) {
        const auto v = ctx.recv<double>(m.src, m.tag);
        if (v != m.payload)
          throw std::runtime_error("blocking reference payload mismatch");
      }
    clocks[static_cast<std::size_t>(r)] = ctx.vtime();
  });
  return clocks;
}

/// Nonblocking run: send everything, post irecvs in post_order, charge,
/// wait in wait_order; checks per-stream ordering, returns final clocks.
std::vector<double> run_nonblocking(const Schedule& s) {
  std::vector<double> clocks(static_cast<std::size_t>(s.nranks), 0.0);
  SimWorld w(s.nranks);
  w.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    ctx.charge(s.pre_charge[static_cast<std::size_t>(r)]);
    for (const ScheduledMsg& m : s.msgs)
      if (m.src == r) ctx.send<double>(m.dst, m.payload, m.tag);
    ctx.charge(s.mid_charge[static_cast<std::size_t>(r)]);

    // Post in post_order; the k-th post on a (src, tag) stream takes that
    // stream's k-th ticket regardless of the global permutation.
    std::map<std::size_t, std::size_t> req_of_msg;  // msg index -> request
    std::map<std::pair<int, int>, std::size_t> stream_pos;
    std::vector<SimRequest> reqs;
    std::vector<std::vector<double>> expect;
    for (const std::size_t mi : s.post_order[static_cast<std::size_t>(r)]) {
      const ScheduledMsg& m = s.msgs[mi];
      req_of_msg[mi] = reqs.size();
      reqs.push_back(ctx.irecv_bytes(m.src, m.tag));
      const std::size_t pos = stream_pos[{m.src, m.tag}]++;
      expect.push_back(expected_stream_payload(s, r, m.src, m.tag, pos));
    }
    for (const std::size_t mi : s.wait_order[static_cast<std::size_t>(r)]) {
      const std::size_t ri = req_of_msg.at(mi);
      std::vector<double> got;
      append_from_bytes(got, ctx.wait(reqs[ri]));
      if (got != expect[ri])
        throw std::runtime_error("per-(src,tag) ordering violated");
    }
    clocks[static_cast<std::size_t>(r)] = ctx.vtime();
  });
  return clocks;
}

TEST(SimCommNbProperty, RandomSchedulesMatchBlockingBitwise) {
  const std::vector<int> sizes = property_world_sizes();
  constexpr int kSchedules = 210;
  for (int iter = 0; iter < kSchedules; ++iter) {
    const int p = sizes[static_cast<std::size_t>(iter) % sizes.size()];
    const Schedule s = make_schedule(p, static_cast<std::uint64_t>(iter));
    const std::vector<double> ref = run_blocking(s);
    const std::vector<double> got = run_nonblocking(s);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t r = 0; r < ref.size(); ++r)
      EXPECT_EQ(ref[r], got[r])  // bitwise: identical charges and max-folds
          << "schedule " << iter << " (P=" << p << ") rank " << r;
  }
}

TEST(SimCommNb, PerStreamOrderingUnderReversedWaits) {
  // Five messages on one (src, tag) stream, waited in reverse post order:
  // the i-th *posted* receive still yields the i-th *sent* payload.
  SimWorld w(2);
  w.run([](RankCtx& ctx) {
    constexpr int kN = 5;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kN; ++i)
        ctx.send<int>(1, {100 + i}, /*tag=*/4);
    } else {
      std::vector<SimRequest> reqs;
      for (int i = 0; i < kN; ++i) reqs.push_back(ctx.irecv_bytes(0, 4));
      for (int i = kN - 1; i >= 0; --i) {
        const auto b = ctx.wait(reqs[static_cast<std::size_t>(i)]);
        int v = -1;
        std::memcpy(&v, b.data(), sizeof(v));
        if (v != 100 + i)
          throw std::runtime_error("stream order broken under reversed waits");
      }
    }
  });
  EXPECT_EQ(w.comm_stats().check_invariants(), "");
}

TEST(SimCommNb, OverlapCountersSeeComputeBetweenPostAndWait) {
  // Receiver posts, charges modeled compute longer than the transfer, then
  // waits: the whole transfer window counts as overlap and the wait is free.
  SimWorld w(2);
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<double>(1, {1.0, 2.0, 3.0});
    } else {
      SimRequest req = ctx.irecv_bytes(0);
      ctx.charge(1.0);  // far exceeds alpha + 24 * beta
      (void)ctx.wait(req);
    }
  });
  const obs::CommCounters& c = w.comm_stats().per_rank[1];
  EXPECT_EQ(c.overlapped_requests, 1u);
  EXPECT_GT(c.overlap_seconds, 0.0);
  // Sender overlaps nothing: a buffered send has no wait.
  EXPECT_EQ(w.comm_stats().per_rank[0].overlapped_requests, 0u);
}

TEST(SimCommNb, DupFaultsComposeWithNonblockingDelivery) {
  sim::FaultPlan p;
  p.dup_prob = 1.0;
  SimOptions o;
  o.faults = p;
  SimWorld w(2, o);
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, {11}, /*tag=*/1);
      ctx.send<int>(1, {22}, /*tag=*/2);
    } else {
      SimRequest r2 = ctx.irecv_bytes(0, /*tag=*/2);
      SimRequest r1 = ctx.irecv_bytes(0, /*tag=*/1);
      // Waiting tag 2 first scans past (and drops) the tag-1 duplicate.
      int v = 0;
      std::memcpy(&v, ctx.wait(r2).data(), sizeof(v));
      if (v != 22) throw std::runtime_error("dup corrupted tag-2 payload");
      std::memcpy(&v, ctx.wait(r1).data(), sizeof(v));
      if (v != 11) throw std::runtime_error("dup corrupted tag-1 payload");
    }
  });
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  std::uint64_t dup = 0, dropped = 0;
  for (std::uint64_t x : st.per_rank[0].msgs_duplicated_to) dup += x;
  for (std::uint64_t x : st.per_rank[1].dups_dropped_from) dropped += x;
  EXPECT_EQ(dup, 2u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(st.per_rank[1].msgs_recv_from[0], 2u);
}

TEST(SimCommNb, FlipFaultSurfacesAtWaitOnInFlightRequest) {
  sim::FaultPlan p;
  p.flip_prob = 1.0;
  SimOptions o;
  o.faults = p;
  SimWorld w(2, o);
  EXPECT_THROW(w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<double>(1, {3.5});
    } else {
      SimRequest req = ctx.irecv_bytes(0);
      ctx.charge(0.5);  // request genuinely in flight before the wait
      (void)ctx.wait(req);
    }
  }),
               sim::CommFaultError);
  EXPECT_TRUE(w.aborted());
  const obs::CommStats& st = w.comm_stats();
  EXPECT_EQ(st.check_invariants(), "");
  EXPECT_GE(st.per_rank[1].corrupt_detected_from[0], 1u);
}

TEST(SimCommNb, BenignFaultsKeepNonblockingClocksDeterministic) {
  // delay + dup under two identical nonblocking runs: fault decisions are
  // pure functions of (seed, stream, edge, seq), so the final clocks agree
  // bit for bit (the schedule uses charge(), never measured CPU time).
  const Schedule s = make_schedule(4, /*seed=*/42);
  sim::FaultPlan p;
  p.seed = 5;
  p.delay_prob = 0.5;
  p.delay_factor = 8.0;
  p.dup_prob = 0.5;
  auto run_once = [&] {
    std::vector<double> clocks(4, 0.0);
    SimOptions o;
    o.faults = p;
    SimWorld w(4, o);
    w.run([&](RankCtx& ctx) {
      const int r = ctx.rank();
      ctx.charge(s.pre_charge[static_cast<std::size_t>(r)]);
      for (const ScheduledMsg& m : s.msgs)
        if (m.src == r) ctx.send<double>(m.dst, m.payload, m.tag);
      std::vector<SimRequest> reqs;
      for (const std::size_t mi : s.post_order[static_cast<std::size_t>(r)])
        reqs.push_back(
            ctx.irecv_bytes(s.msgs[mi].src, s.msgs[mi].tag));
      for (SimRequest& q : reqs) (void)ctx.wait(q);
      clocks[static_cast<std::size_t>(r)] = ctx.vtime();
    });
    if (w.comm_stats().check_invariants() != "")
      throw std::runtime_error("comm invariants violated under benign faults");
    return clocks;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lra
