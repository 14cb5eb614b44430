// The network model of the simulated runtime: tree collectives, each
// operation priced once by CostModel (charged seconds plus their alpha/beta
// split), and a runtime that charges exactly that price and delivers every
// contribution.

#include "par/cost_model.hpp"
#include "par/simcomm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace lra {
namespace {

TEST(CollectiveCost, FormulasMatchTheirDefinitions) {
  const CostModel cm;
  // Full payload on every hop: ceil(log2 P) hops for bcast/barrier and
  // allgather, 2*ceil(log2 P) for allreduce.
  EXPECT_EQ(cm.p2p(100).seconds, cm.alpha + cm.beta * 100.0);
  EXPECT_EQ(cm.tree(8, 100).seconds, 3.0 * cm.p2p(100).seconds);
  EXPECT_EQ(cm.allreduce(4, 100).seconds, 2.0 * 2.0 * cm.p2p(100).seconds);
  EXPECT_EQ(cm.allreduce(5, 100).seconds, 2.0 * 3.0 * cm.p2p(100).seconds);
  EXPECT_EQ(cm.allgather(8, 640).seconds, 3.0 * cm.p2p(640).seconds);
  // The split counts the same hops: alpha per hop, beta per byte per hop.
  EXPECT_EQ(cm.p2p(100).alpha_t, cm.alpha);
  EXPECT_EQ(cm.p2p(100).beta_t, cm.beta * 100.0);
  EXPECT_EQ(cm.allreduce(4, 100).alpha_t, 4.0 * cm.alpha);
  EXPECT_EQ(cm.allreduce(4, 100).beta_t, 4.0 * cm.beta * 100.0);
  EXPECT_EQ(cm.allgather(8, 640).alpha_t, 3.0 * cm.alpha);
  EXPECT_EQ(cm.tree(5, 8).beta_t, 3.0 * cm.beta * 8.0);
}

TEST(CollectiveCost, SplitAddsUpToTheChargedSeconds) {
  const CostModel cm;
  for (const int p : {2, 3, 4, 8, 64}) {
    for (const std::size_t b : {0, 8, 1000, 1 << 20}) {
      for (const Cost c : {cm.p2p(b), cm.tree(p, b), cm.allreduce(p, b),
                           cm.allgather(p, b)}) {
        EXPECT_GT(c.seconds, 0.0) << "P=" << p << " B=" << b;
        EXPECT_NEAR(c.alpha_t + c.beta_t, c.seconds, 1e-15 * c.seconds)
            << "P=" << p << " B=" << b;
      }
    }
  }
}

TEST(CollectiveCost, DegenerateWorldsAreFree) {
  const CostModel cm;
  for (const int p : {0, 1}) {
    for (const Cost c :
         {cm.tree(p, 4096), cm.allreduce(p, 4096), cm.allgather(p, 4096)}) {
      EXPECT_EQ(c.seconds, 0.0);
      EXPECT_EQ(c.alpha_t, 0.0);
      EXPECT_EQ(c.beta_t, 0.0);
    }
  }
}

TEST(CollectiveCost, MonotoneInPayloadAndRanks) {
  const CostModel cm;
  const std::vector<std::size_t> sizes{0, 8, 64, 512, 1024, 4096, 65536};
  for (const int p : {2, 3, 4, 8}) {
    double prev_r = -1.0, prev_g = -1.0;
    for (const std::size_t b : sizes) {
      const double r = cm.allreduce(p, b).seconds;
      const double g = cm.allgather(p, b).seconds;
      EXPECT_GE(r, prev_r) << "P=" << p << " B=" << b;
      EXPECT_GE(g, prev_g) << "P=" << p << " B=" << b;
      prev_r = r;
      prev_g = g;
    }
    EXPECT_LE(cm.allreduce(p, 64).seconds, cm.allreduce(2 * p, 64).seconds);
  }
}

// --- the runtime charges the model's price ----------------------------------

/// Contribution of `len` doubles from `rank`, deterministic and rank-unique.
std::vector<double> contribution(int rank, std::size_t len) {
  std::vector<double> v(len);
  for (std::size_t i = 0; i < len; ++i)
    v[i] = 0.5 * static_cast<double>(rank + 1) +
           0.25 * static_cast<double>(i % 7);
  return v;
}

TEST(CollectiveRuntime, DeliversEveryContributionAtTheModeledPrice) {
  // Empty, length-1, non-divisible-by-P and large payloads: every rank gets
  // the elementwise sum and the rank-order concatenation, every clock and
  // coll_seconds advance by exactly the two modeled prices (no compute is
  // charged), and each wait event carries that price and its split.
  const CostModel cm;
  for (const int p : {1, 2, 3, 4, 8}) {
    for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                  std::size_t{5}, std::size_t{1000}}) {
      std::vector<std::vector<double>> reduced(static_cast<std::size_t>(p));
      std::vector<std::vector<double>> gathered(static_cast<std::size_t>(p));
      SimWorld w(p, {.collect_trace = true});
      w.run([&](RankCtx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        reduced[r] = ctx.allreduce_sum(contribution(ctx.rank(), len));
        gathered[r] = ctx.allgatherv(contribution(ctx.rank(), len));
      });
      ASSERT_EQ(w.comm_stats().check_invariants(), "");

      std::vector<double> expect_sum(len, 0.0), expect_gather;
      for (int r = 0; r < p; ++r) {
        const std::vector<double> c = contribution(r, len);
        for (std::size_t i = 0; i < len; ++i) expect_sum[i] += c[i];
        expect_gather.insert(expect_gather.end(), c.begin(), c.end());
      }
      const std::size_t bytes = len * sizeof(double);
      const Cost reduce = cm.allreduce(p, bytes);
      const Cost gather = cm.allgather(p, p * bytes);
      for (int r = 0; r < p; ++r) {
        const auto rr = static_cast<std::size_t>(r);
        EXPECT_EQ(reduced[rr], expect_sum) << "P=" << p << " len=" << len;
        EXPECT_EQ(gathered[rr], expect_gather) << "P=" << p << " len=" << len;
        EXPECT_EQ(w.comm_stats().per_rank[rr].coll_seconds,
                  reduce.seconds + gather.seconds);
        std::vector<Cost> charged;
        for (const obs::TraceEvent& e : w.trace()[rr].events)
          if (e.op == obs::SpanOp::kCollWait)
            charged.push_back({e.cost_v, e.cost_alpha_v, e.cost_beta_v});
        ASSERT_EQ(charged.size(), 2u);
        for (int i = 0; i < 2; ++i) {
          const Cost& want = i == 0 ? reduce : gather;
          EXPECT_EQ(charged[i].seconds, want.seconds);
          EXPECT_EQ(charged[i].alpha_t, want.alpha_t);
          EXPECT_EQ(charged[i].beta_t, want.beta_t);
        }
      }
      EXPECT_EQ(w.elapsed_virtual(), reduce.seconds + gather.seconds);
    }
  }
}

// --- nonblocking collective semantics ---------------------------------------

TEST(CollectiveNb, FinishTimeComesFromPostClocksAndOverlapIsCredited) {
  // Rank r enters the iallreduce at clock r (modeled charges), computes
  // 0.25 s between post and wait. Finish = max post clocks + cost = 2 + cost
  // with cost << 0.25, so:
  //   * ranks 0 and 1 reach their wait before the finish: their whole 0.25 s
  //     window overlaps the transfer up to the finish time, and they leave
  //     the wait at exactly 2 + cost;
  //   * rank 2 (last poster) overlaps only the transfer itself (cost) and
  //     its clock stays at 2.25.
  const CostModel cm;
  const double cost = cm.allreduce(3, sizeof(double)).seconds;
  ASSERT_GT(cost, 0.0);
  ASSERT_LT(cost, 0.25);
  const double vt_out = 2.0 + cost;  // same fl(+) as the runtime's finish
  std::vector<double> clocks(3, -1.0);
  SimWorld w(3);
  w.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    ctx.charge(static_cast<double>(r));
    CollRequest req = ctx.iallreduce_sum({static_cast<double>(r)});
    if (req.completed()) throw std::runtime_error("complete before wait");
    ctx.charge(0.25);
    const std::vector<double> sum = ctx.wait_allreduce_sum(req);
    if (!req.completed()) throw std::runtime_error("incomplete after wait");
    if (sum != std::vector<double>{3.0})  // 0 + 1 + 2
      throw std::runtime_error("wrong allreduce sum");
    clocks[static_cast<std::size_t>(r)] = ctx.vtime();
  });
  ASSERT_EQ(w.comm_stats().check_invariants(), "");
  EXPECT_EQ(clocks[0], vt_out);
  EXPECT_EQ(clocks[1], vt_out);
  EXPECT_EQ(clocks[2], 2.25);
  for (int r = 0; r < 3; ++r) {
    const obs::CommCounters& c =
        w.comm_stats().per_rank[static_cast<std::size_t>(r)];
    EXPECT_EQ(c.overlapped_requests, 1u) << "rank " << r;
    // Ranks 0/1 overlap their whole 0.25 s window; rank 2's window extends
    // past the finish, so only [post, vt_out] counts.
    EXPECT_EQ(c.overlap_seconds, r < 2 ? 0.25 : vt_out - 2.0) << "rank " << r;
    EXPECT_EQ(c.coll_seconds, cost) << "rank " << r;
  }
}

TEST(CollectiveNb, BlockingFormEqualsPostPlusImmediateWait) {
  auto run = [](bool nonblocking) {
    std::vector<double> clocks(4, -1.0);
    SimWorld w(4);
    w.run([&](RankCtx& ctx) {
      ctx.charge(1e-3 * static_cast<double>(ctx.rank() + 1));
      std::vector<double> out;
      if (nonblocking) {
        CollRequest req = ctx.iallgatherv(contribution(ctx.rank(), 6));
        out = ctx.wait_allgatherv(req);
      } else {
        out = ctx.allgatherv(contribution(ctx.rank(), 6));
      }
      if (out.size() != 24) throw std::runtime_error("bad gather length");
      clocks[static_cast<std::size_t>(ctx.rank())] = ctx.vtime();
    });
    return clocks;
  };
  EXPECT_EQ(run(false), run(true));  // bitwise: same max-folds, same cost
}

TEST(CollectiveNb, DoubleWaitIsALogicError) {
  SimWorld w(2);
  EXPECT_THROW(w.run([](RankCtx& ctx) {
    CollRequest req = ctx.iallreduce_sum({1.0});
    (void)ctx.wait_allreduce_sum(req);
    (void)ctx.wait_allreduce_sum(req);
  }),
               std::logic_error);
}

}  // namespace
}  // namespace lra
