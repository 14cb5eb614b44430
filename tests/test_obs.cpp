// Observability layer: JSON emission, Chrome traces, comm counters wiring,
// per-iteration telemetry, JSONL reports, and the kernel-breakdown clamp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/driver.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv_dist.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "obs/json.hpp"
#include "obs/jsonin.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/simcomm.hpp"
#include "support/autotune.hpp"

namespace lra {
namespace {

CscMatrix test_matrix(Index n = 120, std::uint64_t seed = 3) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.9),
                      {.left_passes = 2, .right_passes = 2, .bandwidth = 0,
                       .seed = seed});
}

// --- JSON helpers ---

TEST(JsonTest, EscapesSpecials) {
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonTest, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(1.0 / 0.0), "null");
}

TEST(JsonTest, ReaderRejectsDuplicateKeysAndDeepNesting) {
  EXPECT_THROW(obs::parse_json("{\"a\": 1, \"a\": 2}"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("{\"o\": {\"b\": \"x\", \"b\": \"x\"}}"),
               std::runtime_error);
  // Nesting is bounded, so hostile input is an error, not a stack overflow.
  EXPECT_THROW(obs::parse_json(std::string(1 << 20, '[')), std::runtime_error);
}

TEST(JsonTest, ReaderKeepsIntegerLiteralsExact) {
  const obs::JsonValue v = obs::parse_json(
      "{\"u\": 18446744073709551615, \"n\": -9223372036854775808, "
      "\"f\": 1.0, \"e\": 1e3, \"big\": 18446744073709551616}");
  std::uint64_t u = 0;
  std::int64_t i = 0;
  EXPECT_TRUE(v.find("u")->exact_uint64(&u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(v.find("u")->exact_int64(&i));
  EXPECT_TRUE(v.find("n")->exact_int64(&i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_FALSE(v.find("n")->exact_uint64(&u));
  for (const char* key : {"f", "e", "big"}) {
    EXPECT_FALSE(v.find(key)->exact_int64(&i)) << key;
    EXPECT_FALSE(v.find(key)->exact_uint64(&u)) << key;
  }
}

TEST(JsonTest, ObjBuildsInInsertionOrder) {
  obs::JsonObj o;
  o.field("a", 1).field("b", "two").field("c", true).raw("d", "[1,2]");
  EXPECT_EQ(o.str(), "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":[1,2]}");
}

// --- Chrome trace export ---

TEST(TraceTest, ChromeExportHasTracksAndCats) {
  // Each event's Chrome category follows from its op.
  auto event = [](const char* name, obs::SpanOp op, double b, double e,
                  std::uint64_t bytes = 0, int peer = -1) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.op = op;
    ev.begin_v = ev.block_v = b;
    ev.end_v = e;
    ev.bytes = bytes;
    ev.peer = peer;
    return ev;
  };
  std::vector<obs::RankTrace> ranks(2);
  ranks[0].push(event("spmm", obs::SpanOp::kCompute, 0.0, 1.5));
  ranks[0].push(event("send->1", obs::SpanOp::kSend, 1.5, 1.6, 64, 1));
  ranks[0].push(event("fault:dup", obs::SpanOp::kFault, 1.6, 1.6, 64, 1));
  ranks[1].push(event("allreduce", obs::SpanOp::kCollWait, 0.0, 2.0, 8));
  std::ostringstream os;
  obs::write_chrome_trace(os, ranks);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"p2p\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"collective\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(s.find("\"op\":\"fault\""), std::string::npos);
  EXPECT_NE(s.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(s.find("rank 1"), std::string::npos);
  // 1.5 virtual seconds -> 1.5e6 microseconds of duration.
  EXPECT_NE(s.find("\"dur\":1500000"), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  long depth = 0;
  for (char c : s) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, SimWorldRecordsAllCategoriesPerRank) {
  SimWorld w(2, {.collect_trace = true});
  w.run([&](RankCtx& ctx) {
    ctx.compute("work", [] {
      volatile double s = 0;
      for (int i = 0; i < 1000; ++i) s = s + i;
    });
    if (ctx.rank() == 0)
      ctx.send<int>(1, {1, 2, 3});
    else
      (void)ctx.recv<int>(0);
    (void)ctx.allreduce_sum(1.0);
  });
  const auto& tr = w.trace();
  ASSERT_EQ(tr.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    bool has_compute = false, has_p2p = false, has_coll = false;
    for (const auto& ev : tr[static_cast<std::size_t>(r)].events) {
      EXPECT_GE(ev.end_v, ev.begin_v);
      const std::string cat = obs::category(ev.op);
      if (cat == "compute") has_compute = true;
      if (cat == "p2p") has_p2p = true;
      if (cat == "collective") has_coll = true;
    }
    EXPECT_TRUE(has_compute) << "rank " << r;
    EXPECT_TRUE(has_p2p) << "rank " << r;
    EXPECT_TRUE(has_coll) << "rank " << r;
  }
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  SimWorld w(2);
  w.run([&](RankCtx& ctx) {
    ctx.compute("work", [] {});
    ctx.barrier();
  });
  EXPECT_TRUE(w.trace().empty());
}

// Acceptance guard: the same workload yields bit-identical virtual clocks
// with tracing on and off (spans are recorded outside the timed regions).
TEST(TraceTest, TracingDoesNotPerturbVirtualClocks) {
  auto body = [](RankCtx& ctx) {
    ctx.charge(0.25 * (ctx.rank() + 1));
    if (ctx.rank() == 0)
      ctx.send<double>(1, {1.0, 2.0});
    else
      (void)ctx.recv<double>(0);
    (void)ctx.allreduce_sum(static_cast<double>(ctx.rank()));
    ctx.charge(0.125);
  };
  SimWorld off(2);
  off.run(body);
  SimWorld on(2, {.collect_trace = true});
  on.run(body);
  EXPECT_EQ(off.elapsed_virtual(), on.elapsed_virtual());
  EXPECT_FALSE(on.trace().empty());
}

// --- telemetry through the solvers and the driver ---

TEST(TelemetryTest, SequentialSolversEmitPerIterationSamples) {
  const CscMatrix a = test_matrix();
  for (const Method m : {Method::kRandQbEi, Method::kLuCrtp, Method::kIlutCrtp,
                         Method::kRandUbv}) {
    ApproxOptions o;
    o.method = m;
    o.tau = 1e-2;
    o.block_size = 10;
    const LowRankApprox r = approximate(a, o);
    const obs::TelemetrySeries& t = r.telemetry();
    ASSERT_FALSE(t.empty()) << to_string(m);
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(t[i].iteration, static_cast<long long>(i) + 1);
      EXPECT_EQ(t[i].tau, o.tau);
      EXPECT_GE(t[i].indicator_rel, 0.0);
      if (i > 0) {
        EXPECT_GE(t[i].rank, t[i - 1].rank);
        EXPECT_GE(t[i].time_seconds, t[i - 1].time_seconds);
      }
    }
    // Converged runs end below tau; LU-family carries fill diagnostics.
    EXPECT_LT(t.back().indicator_rel, o.tau) << to_string(m);
    const bool lu_family = m == Method::kLuCrtp || m == Method::kIlutCrtp;
    EXPECT_EQ(t.back().schur_nnz >= 0, lu_family) << to_string(m);
    EXPECT_EQ(t.back().fill_density >= 0.0, lu_family) << to_string(m);
  }
}

TEST(TelemetryTest, DistributedEnginesEmitTelemetryAndComm) {
  const CscMatrix a = test_matrix(80);
  RandQbOptions qo;
  qo.block_size = 8;
  qo.tau = 1e-2;
  const DistRandQbResult qb =
      randqb_ei_dist(a, qo, 3, {.collect_trace = true});
  ASSERT_FALSE(qb.result.telemetry.empty());
  EXPECT_EQ(qb.result.telemetry.size(),
            static_cast<std::size_t>(qb.result.iterations));
  EXPECT_GT(qb.result.telemetry.back().time_seconds, 0.0);
  EXPECT_EQ(qb.comm.per_rank.size(), 3u);
  EXPECT_EQ(qb.comm.check_invariants(), "");
  EXPECT_GT(qb.comm.per_rank[0].total_collective_calls(), 0u);
  ASSERT_EQ(qb.trace.size(), 3u);
  EXPECT_FALSE(qb.trace[0].events.empty());

  LuCrtpOptions lo;
  lo.block_size = 8;
  lo.tau = 1e-2;
  const DistLuResult lu = lu_crtp_dist(a, lo, 2);
  ASSERT_FALSE(lu.result.telemetry.empty());
  EXPECT_GE(lu.result.telemetry.back().schur_nnz, 0);
  EXPECT_GE(lu.result.telemetry.back().factor_nnz, 0);
  EXPECT_EQ(lu.comm.check_invariants(), "");
  EXPECT_TRUE(lu.trace.empty());  // collect_trace not requested

  RandUbvOptions uo;
  uo.block_size = 8;
  uo.tau = 1e-2;
  const DistRandUbvResult ubv =
      randubv_dist(a, uo, 2, {.collect_trace = true});
  ASSERT_FALSE(ubv.result.telemetry.empty());
  EXPECT_EQ(ubv.comm.check_invariants(), "");
  ASSERT_EQ(ubv.trace.size(), 2u);
}

TEST(TelemetryTest, DistAutoPrefersDeterministicAtModerateTau) {
  const CscMatrix a = test_matrix();  // dense-ish: sequential auto -> randqb
  ApproxOptions o;
  o.tau = 1e-3;
  EXPECT_EQ(choose_method(a, o), Method::kRandQbEi);
  EXPECT_EQ(choose_method_dist(a, o), Method::kLuCrtp);
  o.tau = 1e-8;  // tight tolerance: randomized wins in parallel too
  EXPECT_EQ(choose_method_dist(a, o), Method::kRandQbEi);
  o.method = Method::kRandUbv;  // explicit choice always wins
  EXPECT_EQ(choose_method_dist(a, o), Method::kRandUbv);
}

// --- JSONL report writer ---

TEST(ReportTest, WritesOneObjectPerLine) {
  const std::string path = "test_obs_report.jsonl";
  {
    obs::ReportWriter w(path);
    obs::JsonObj meta;
    meta.field("type", "meta").field("tool", "test");
    w.write(meta);

    obs::TelemetrySeries series;
    obs::IterationSample s;
    s.iteration = 1;
    s.rank = 8;
    s.indicator_rel = 0.5;
    s.tau = 1e-2;
    s.time_seconds = 0.125;
    series.push_back(s);
    s.iteration = 2;
    s.rank = 16;
    s.schur_nnz = 42;       // LU-family extras appear only when >= 0
    s.fill_density = 0.25;
    s.factor_nnz = 77;
    series.push_back(s);
    obs::write_telemetry(w, "lu_crtp", series);

    obs::CommStats stats;
    stats.per_rank.resize(2);
    for (auto& c : stats.per_rank) c.resize(2);
    stats.per_rank[0].msgs_sent_to[1] = 3;
    stats.per_rank[0].bytes_sent_to[1] = 96;
    stats.per_rank[1].msgs_recv_from[0] = 3;
    stats.per_rank[1].bytes_recv_from[0] = 96;
    stats.per_rank[0].collective_calls["barrier"] = 2;
    stats.per_rank[1].collective_calls["barrier"] = 2;
    obs::write_comm_stats(w, stats);
    EXPECT_EQ(w.records(), 4);  // meta + 2 iterations + comm
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"type\":"), std::string::npos);
  }
  EXPECT_NE(lines[1].find("\"type\":\"iteration\""), std::string::npos);
  EXPECT_EQ(lines[1].find("schur_nnz"), std::string::npos);  // sentinel omitted
  EXPECT_NE(lines[2].find("\"schur_nnz\":42"), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"comm\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"consistent\":true"), std::string::npos);
  EXPECT_NE(lines[3].find("\"total_bytes\":96"), std::string::npos);
  EXPECT_NE(lines[3].find("\"aborted\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"fault_events\":0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportTest, CommRecordFlagsInconsistency) {
  const std::string path = "test_obs_report_bad.jsonl";
  {
    obs::ReportWriter w(path);
    obs::CommStats stats;
    stats.per_rank.resize(2);
    for (auto& c : stats.per_rank) c.resize(2);
    stats.per_rank[0].msgs_sent_to[1] = 1;  // never received
    EXPECT_NE(stats.check_invariants(), "");
    obs::write_comm_stats(w, stats);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"consistent\":false"), std::string::npos);
  EXPECT_NE(line.find("\"violation\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportTest, MetaRecordCarriesBuildProvenance) {
  const obs::JsonValue meta = obs::parse_json(obs::meta_record("test").str());
  EXPECT_EQ(meta.string_or("type", ""), "meta");
  EXPECT_NE(meta.string_or("build_type", ""), "");
  EXPECT_EQ(meta.string_or("autotune", ""),
            kernel_config_summary(kernel_config()));
}

// --- kernel breakdown "other" row never goes negative (regression) ---

TEST(KernelBreakdownTest, OtherRowClampsAtZero) {
  std::map<std::string, double> times{{"spmm", 2.0}, {"orth", 1.5}};
  std::ostringstream os;
  // Accounted (3.5s) exceeds the claimed total (1.0s): the remainder must
  // clamp to zero rather than printing a negative duration.
  obs::print_kernel_breakdown(os, times, {"spmm", "orth"}, 1.0);
  const std::string s = os.str();
  EXPECT_NE(s.find("other"), std::string::npos);
  EXPECT_EQ(s.find("-2.5"), std::string::npos);
  EXPECT_EQ(s.find("other     : -"), std::string::npos);
  std::ostringstream os2;
  obs::print_kernel_breakdown(os2, times, {"spmm", "orth"},
                              std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(os2.str().find("nan"), std::string::npos);
}

}  // namespace
}  // namespace lra
