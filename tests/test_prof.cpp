// Tests for the causal profiling subsystem (src/obs/prof): the tiling /
// conservation contract of the tracer, flow pairing under nonblocking comm,
// bitwise stability across thread-pool widths, solver-level conservation for
// all four distributed engines (clean and under a benign fault plan), the
// what-if projection ordering, trace-file round-trips, and the zero-cost
// guarantee when tracing is off. All synthetic schedules use charge()
// (modeled seconds), so their clocks and traces are exactly reproducible;
// solver runs use measured CPU time, so those checks are per-run invariants
// (conservation, ordering) rather than cross-run equality.

#include "obs/prof/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv_dist.hpp"
#include "gen/presets.hpp"
#include "obs/prof/phase.hpp"
#include "obs/prof/trace_io.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "par/simcomm.hpp"
#include "sim/fault/fault.hpp"

namespace lra {
namespace {

using obs::RankTrace;
using obs::SpanOp;
using obs::TraceEvent;
using obs::prof::PhaseScope;
using obs::prof::Profile;

// Deterministic charge-only schedule exercising every event kind: phased
// compute, a p2p ring waited in shuffled order, a nonblocking allreduce
// with compute in its shadow, and a barrier. seed varies the wait order.
std::vector<RankTrace> run_synthetic(int p, bool trace_on, std::uint64_t seed,
                                     std::vector<double>* clocks_out) {
  SimOptions o;
  o.collect_trace = trace_on;
  SimWorld w(p, o);
  std::vector<double> clocks(static_cast<std::size_t>(p), 0.0);
  w.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    {
      PhaseScope ph(ctx, "sketch");
      ctx.charge(1e-4 * (r + 1));
    }
    if (p > 1) {
      PhaseScope ph(ctx, "power");
      std::vector<SimRequest> reqs;
      for (int k = 0; k < 3; ++k)
        reqs.push_back(ctx.irecv_bytes((r + p - 1) % p, k));
      for (int k = 0; k < 3; ++k) {
        const std::vector<double> payload(8, static_cast<double>(r + k));
        ctx.send((r + 1) % p, payload, k);
      }
      ctx.charge(5e-5);
      std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(r));
      std::shuffle(reqs.begin(), reqs.end(), rng);
      for (SimRequest& q : reqs) (void)ctx.wait(q);
    }
    {
      PhaseScope ph(ctx, "tsqr");
      CollRequest cr = ctx.iallreduce_sum(std::vector<double>(4, 1.0));
      ctx.charge(2e-5);
      (void)ctx.wait_allreduce_sum(cr);
    }
    ctx.barrier();
    clocks[static_cast<std::size_t>(r)] = ctx.vtime();
  });
  if (clocks_out) *clocks_out = clocks;
  return w.take_trace();
}

void expect_conserved(const Profile& p, const std::string& what) {
  EXPECT_TRUE(p.conserved) << what;
  for (const std::string& v : p.violations)
    ADD_FAILURE() << what << ": " << v;
}

void expect_whatif_ordered(const Profile& p, const std::string& what) {
  const auto& w = p.whatif;
  EXPECT_EQ(w.measured, p.makespan) << what;  // bitwise replay check
  EXPECT_LE(w.compute_only, w.alpha0) << what;
  EXPECT_LE(w.compute_only, w.beta0) << what;
  EXPECT_LE(w.compute_only, w.full_overlap) << what;
  EXPECT_LE(w.alpha0, w.measured) << what;
  EXPECT_LE(w.beta0, w.measured) << what;
  EXPECT_LE(w.full_overlap, w.measured) << what;
}

TEST(Prof, SyntheticTilingAndConservation) {
  for (int p : {1, 2, 4, 8}) {
    std::vector<double> clocks;
    const auto trace = run_synthetic(p, true, 1, &clocks);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(p));
    const Profile prof = obs::prof::build_profile(trace);
    expect_conserved(prof, "P=" + std::to_string(p));
    expect_whatif_ordered(prof, "P=" + std::to_string(p));
    EXPECT_EQ(prof.makespan,
              *std::max_element(clocks.begin(), clocks.end()));
    // The phased regions must show up under their taxonomy names.
    EXPECT_GT(prof.phases.at("sketch").compute, 0.0);
    EXPECT_GT(prof.phases.at("tsqr").compute, 0.0);
    // Attribution partitions each rank's timeline exactly (tiling).
    for (int r = 0; r < p; ++r) {
      const auto& rp = prof.ranks[static_cast<std::size_t>(r)];
      EXPECT_EQ(rp.total, clocks[static_cast<std::size_t>(r)]);
      EXPECT_NEAR(rp.compute + rp.comm + rp.idle, rp.total,
                  1e-9 * std::max(1.0, rp.total));
    }
  }
}

TEST(Prof, P2PFlowsPairAcrossRanksCausally) {
  for (int p : {2, 8}) {
    const auto trace = run_synthetic(p, true, 2, nullptr);
    // Index all sends by (sender implied by rank, flow).
    std::map<std::pair<int, std::uint64_t>, const TraceEvent*> sends;
    for (int r = 0; r < p; ++r)
      for (const TraceEvent& e : trace[static_cast<std::size_t>(r)].events)
        if (e.op == SpanOp::kSend) {
          const auto key = std::make_pair(r, e.flow);
          EXPECT_EQ(sends.count(key), 0u) << "duplicate send flow";
          sends[key] = &e;
        }
    std::size_t recvs = 0;
    for (int r = 0; r < p; ++r)
      for (const TraceEvent& e : trace[static_cast<std::size_t>(r)].events)
        if (e.op == SpanOp::kRecv) {
          ++recvs;
          ASSERT_GE(e.peer, 0);
          const auto it = sends.find({e.peer, e.flow});
          ASSERT_NE(it, sends.end())
              << "recv flow " << e.flow << " has no matching send";
          // Causal order: the message arrives no earlier than the sender
          // entered its send, and the receive completes at or after arrival.
          EXPECT_GE(e.avail_v, it->second->block_v);
          EXPECT_GE(e.end_v, e.avail_v);
          EXPECT_EQ(e.bytes, it->second->bytes);
        }
    EXPECT_EQ(recvs, sends.size()) << "every send must be received (P=" << p
                                   << ")";
  }
}

TEST(Prof, CollectivePostWaitPairsOnEveryRank) {
  for (int p : {2, 8}) {
    const auto trace = run_synthetic(p, true, 3, nullptr);
    // Per rank: post and wait flows must pair up 1:1; across ranks, every
    // collective generation appears on all ranks.
    std::map<std::uint64_t, int> world_waits;
    for (int r = 0; r < p; ++r) {
      std::multiset<std::uint64_t> posts, waits;
      for (const TraceEvent& e : trace[static_cast<std::size_t>(r)].events) {
        if (e.op == SpanOp::kCollPost) posts.insert(e.flow);
        if (e.op == SpanOp::kCollWait) {
          waits.insert(e.flow);
          ++world_waits[e.flow];
          EXPECT_GE(e.end_v, e.begin_v);  // completes at/after its post
        }
      }
      EXPECT_EQ(posts, waits) << "rank " << r << " (P=" << p << ")";
      EXPECT_FALSE(posts.empty());
    }
    for (const auto& [flow, count] : world_waits)
      EXPECT_EQ(count, p) << "collective " << flow
                          << " missing on some rank (P=" << p << ")";
  }
}

TEST(Prof, WaitOrderKeepsClocksAndComputeAttribution) {
  // Different wait orders re-shuffle where idle lands between events, but
  // the final clocks, the compute attribution, and conservation are order-
  // independent.
  for (int p : {2, 8}) {
    std::vector<double> c1, c2;
    const auto t1 = run_synthetic(p, true, 10, &c1);
    const auto t2 = run_synthetic(p, true, 11, &c2);
    EXPECT_EQ(c1, c2);
    const Profile p1 = obs::prof::build_profile(t1);
    const Profile p2 = obs::prof::build_profile(t2);
    expect_conserved(p1, "perm A");
    expect_conserved(p2, "perm B");
    EXPECT_EQ(p1.makespan, p2.makespan);
    EXPECT_EQ(p1.compute, p2.compute);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(p1.ranks[static_cast<std::size_t>(r)].compute,
                p2.ranks[static_cast<std::size_t>(r)].compute);
      // comm + idle together cover the non-compute time either way.
      EXPECT_NEAR(p1.ranks[static_cast<std::size_t>(r)].comm +
                      p1.ranks[static_cast<std::size_t>(r)].idle,
                  p2.ranks[static_cast<std::size_t>(r)].comm +
                      p2.ranks[static_cast<std::size_t>(r)].idle,
                  1e-12);
    }
  }
}

TEST(Prof, TraceAndProfileBitwiseStableAcrossPoolWidths) {
  const int old_threads = ThreadPool::global().num_threads();
  auto run_at_width = [&](int width) {
    ThreadPool::global().set_num_threads(width);
    return run_synthetic(4, true, 5, nullptr);
  };
  const auto t1 = run_at_width(1);
  const auto t8 = run_at_width(8);
  ThreadPool::global().set_num_threads(old_threads);
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t r = 0; r < t1.size(); ++r) {
    ASSERT_EQ(t1[r].events.size(), t8[r].events.size()) << "rank " << r;
    for (std::size_t i = 0; i < t1[r].events.size(); ++i) {
      const TraceEvent& a = t1[r].events[i];
      const TraceEvent& b = t8[r].events[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.op, b.op);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.begin_v, b.begin_v);
      EXPECT_EQ(a.block_v, b.block_v);
      EXPECT_EQ(a.end_v, b.end_v);
      EXPECT_EQ(a.cost_v, b.cost_v);
      EXPECT_EQ(a.avail_v, b.avail_v);
      EXPECT_EQ(a.flow, b.flow);
    }
  }
  const Profile p1 = obs::prof::build_profile(t1);
  const Profile p8 = obs::prof::build_profile(t8);
  EXPECT_EQ(p1.makespan, p8.makespan);
  EXPECT_EQ(p1.whatif.alpha0, p8.whatif.alpha0);
  EXPECT_EQ(p1.whatif.beta0, p8.whatif.beta0);
  EXPECT_EQ(p1.whatif.full_overlap, p8.whatif.full_overlap);
  EXPECT_EQ(p1.whatif.compute_only, p8.whatif.compute_only);
  std::ostringstream s1, s8;
  obs::prof::print_profile(s1, p1);
  obs::prof::print_profile(s8, p8);
  EXPECT_EQ(s1.str(), s8.str());
}

TEST(Prof, TracingOffRecordsNothingAndKeepsClocksBitwise) {
  std::vector<double> on, off;
  (void)run_synthetic(4, true, 7, &on);
  const auto none = run_synthetic(4, false, 7, &off);
  EXPECT_EQ(on, off);  // modeled clocks identical with tracing on or off
  EXPECT_TRUE(none.empty());  // a disabled run hands back no buffers
}

// ---------------------------------------------------------------------------
// Solver-level checks. Small matrix, all four engines, P in {1, 2, 8},
// clean runs and a benign (delay + dup) fault plan.

struct SolverRun {
  Status status = Status::kMaxIterations;
  double vsec = 0.0;
  std::vector<RankTrace> trace;
};

const CscMatrix& test_matrix() {
  static const TestMatrix t = make_preset("M1", 0.1);
  return t.a;
}

SolverRun run_solver(const std::string& method, int np, const SimOptions& sim) {
  const CscMatrix& a = test_matrix();
  SolverRun out;
  if (method == "randqb") {
    RandQbOptions o;
    o.block_size = 8;
    o.tau = 1e-2;
    auto d = randqb_ei_dist(a, o, np, sim);
    out = {d.result.status, d.virtual_seconds, std::move(d.trace)};
  } else if (method == "ubv") {
    RandUbvOptions o;
    o.block_size = 8;
    o.tau = 1e-2;
    auto d = randubv_dist(a, o, np, sim);
    out = {d.result.status, d.virtual_seconds, std::move(d.trace)};
  } else {
    LuCrtpOptions o;
    o.block_size = 8;
    o.tau = 1e-2;
    if (method == "ilut") o.threshold = ThresholdMode::kIlut;
    auto d = lu_crtp_dist(a, o, np, sim);
    out = {d.result.status, d.virtual_seconds, std::move(d.trace)};
  }
  return out;
}

void check_solver_profile(const SolverRun& run, const std::string& what) {
  ASSERT_FALSE(run.trace.empty()) << what;
  const Profile p = obs::prof::build_profile(run.trace);
  expect_conserved(p, what);
  expect_whatif_ordered(p, what);
  EXPECT_EQ(p.makespan, run.vsec) << what;
  // Every attributed phase is either unphased ("") or in the documented
  // taxonomy — a typo'd PhaseScope literal fails here.
  for (const auto& [phase, cost] : p.phases)
    EXPECT_TRUE(phase.empty() || obs::prof::is_documented_phase(phase))
        << what << ": undocumented phase \"" << phase << "\"";
  EXPECT_GT(p.compute, 0.0) << what;
}

TEST(ProfSolvers, ConservationCleanAllEnginesAllWorldSizes) {
  for (const char* method : {"randqb", "lu", "ilut", "ubv"}) {
    for (int np : {1, 2, 8}) {
      SimOptions sim;
      sim.collect_trace = true;
      const SolverRun run = run_solver(method, np, sim);
      const std::string what =
          std::string(method) + " np=" + std::to_string(np);
      EXPECT_NE(run.status, Status::kCommFault) << what;
      check_solver_profile(run, what);
    }
  }
}

TEST(ProfSolvers, ConservationUnderBenignFaultPlan) {
  sim::FaultPlan fp;
  fp.seed = 3;
  fp.delay_prob = 0.5;
  fp.delay_factor = 8.0;
  fp.dup_prob = 0.3;
  for (const char* method : {"randqb", "lu", "ilut", "ubv"}) {
    for (int np : {2, 8}) {
      SimOptions sim;
      sim.collect_trace = true;
      sim.faults = fp;
      const SolverRun run = run_solver(method, np, sim);
      const std::string what =
          std::string(method) + " np=" + std::to_string(np) + " faults";
      EXPECT_NE(run.status, Status::kCommFault) << what;
      check_solver_profile(run, what);
    }
  }
}

TEST(ProfSolvers, ConservationHoldsAtEveryPoolWidth) {
  const int old_threads = ThreadPool::global().num_threads();
  for (int width : {1, 8}) {
    ThreadPool::global().set_num_threads(width);
    SimOptions sim;
    sim.collect_trace = true;
    const SolverRun run = run_solver("randqb", 2, sim);
    check_solver_profile(run, "width=" + std::to_string(width));
  }
  ThreadPool::global().set_num_threads(old_threads);
}

TEST(ProfSolvers, AbortedRunStillYieldsAnalyzableTrace) {
  sim::FaultPlan fp;
  fp.flip_prob = 1.0;
  SimOptions sim;
  sim.collect_trace = true;
  sim.faults = fp;
  const SolverRun run = run_solver("randqb", 2, sim);
  EXPECT_EQ(run.status, Status::kCommFault);
  ASSERT_FALSE(run.trace.empty());
  const Profile p = obs::prof::build_profile(run.trace);
  expect_conserved(p, "aborted run");
  EXPECT_GT(p.makespan, 0.0);
  // Attribution exact over the truncated [0, abort] timeline on every rank.
  for (const auto& rp : p.ranks)
    EXPECT_NEAR(rp.compute + rp.comm + rp.idle, rp.total,
                1e-9 * std::max(1.0, rp.total));
}

TEST(ProfSolvers, TraceFileRoundTripsToBitwiseIdenticalProfile) {
  // Clean, and under a benign plan whose fault markers must round-trip too.
  sim::FaultPlan benign;
  benign.seed = 3;
  benign.delay_prob = 0.5;
  benign.delay_factor = 8.0;
  benign.dup_prob = 0.3;
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "benign faults" : "fault-free");
    SimOptions sim;
    sim.collect_trace = true;
    if (faulted) sim.faults = benign;
    const SolverRun run = run_solver("randqb", 4, sim);
    const Profile live = obs::prof::build_profile(run.trace);
    expect_conserved(live, "live");

    const std::string path =
        ::testing::TempDir() + "prof_roundtrip_trace.json";
    obs::write_chrome_trace_file(path, run.trace);
    const std::vector<RankTrace> reread =
        obs::prof::read_chrome_trace_file(path);
    std::remove(path.c_str());
    ASSERT_EQ(reread.size(), run.trace.size());
    std::size_t markers = 0;
    for (std::size_t r = 0; r < reread.size(); ++r) {
      ASSERT_EQ(reread[r].events.size(), run.trace[r].events.size());
      for (std::size_t i = 0; i < reread[r].events.size(); ++i) {
        EXPECT_EQ(reread[r].events[i].op, run.trace[r].events[i].op);
        if (reread[r].events[i].op == SpanOp::kFault) ++markers;
      }
    }
    EXPECT_EQ(markers > 0, faulted);
    const Profile back = obs::prof::build_profile(reread);
    expect_conserved(back, "reread");

    EXPECT_EQ(live.makespan, back.makespan);
    EXPECT_EQ(live.whatif.measured, back.whatif.measured);
    EXPECT_EQ(live.whatif.alpha0, back.whatif.alpha0);
    EXPECT_EQ(live.whatif.beta0, back.whatif.beta0);
    EXPECT_EQ(live.whatif.full_overlap, back.whatif.full_overlap);
    EXPECT_EQ(live.whatif.compute_only, back.whatif.compute_only);
    EXPECT_EQ(live.crit_length, back.crit_length);
    ASSERT_EQ(live.ranks.size(), back.ranks.size());
    for (std::size_t r = 0; r < live.ranks.size(); ++r) {
      EXPECT_EQ(live.ranks[r].total, back.ranks[r].total);
      EXPECT_EQ(live.ranks[r].compute, back.ranks[r].compute);
      EXPECT_EQ(live.ranks[r].comm, back.ranks[r].comm);
      EXPECT_EQ(live.ranks[r].idle, back.ranks[r].idle);
      EXPECT_EQ(live.ranks[r].overlap, back.ranks[r].overlap);
    }
    ASSERT_EQ(live.phases.size(), back.phases.size());
    for (const auto& [phase, cost] : live.phases) {
      const auto it = back.phases.find(phase);
      ASSERT_NE(it, back.phases.end()) << phase;
      EXPECT_EQ(cost.compute, it->second.compute) << phase;
      EXPECT_EQ(cost.comm, it->second.comm) << phase;
    }
    // The printed reports agree byte for byte.
    std::ostringstream a, b;
    obs::prof::print_profile(a, live);
    obs::prof::print_profile(b, back);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(Prof, JsonlRecordsCarrySchemaFields) {
  const auto trace = run_synthetic(4, true, 9, nullptr);
  const Profile p = obs::prof::build_profile(trace);
  std::ostringstream ss;
  obs::prof::write_profile_jsonl(ss, p, "synthetic");
  const std::string out = ss.str();
  for (const char* needle :
       {"\"type\":\"profile\"", "\"type\":\"profile_rank\"",
        "\"type\":\"profile_phase\"", "\"whatif\"", "\"makespan\"",
        "\"crit_length\"", "\"conserved\":true", "\"run\":\"synthetic\""})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Prof, PhaseTaxonomyCoversSolverAnnotations) {
  // Every literal the solvers use must be documented; a representative from
  // each engine keeps this aligned with ARCHITECTURE.md's taxonomy table.
  for (const char* name :
       {"sketch", "tsqr", "power", "reorth", "b_update", "error_check",
        "replicate", "tournament", "panel", "row_perm", "solve_a21", "schur",
        "threshold", "assemble"})
    EXPECT_TRUE(obs::prof::is_documented_phase(name)) << name;
  EXPECT_FALSE(obs::prof::is_documented_phase("sketchy"));
  EXPECT_FALSE(obs::prof::is_documented_phase(""));
}

}  // namespace
}  // namespace lra
