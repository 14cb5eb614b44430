// Tests for the communication counters: resize() must restore a fresh set
// of counters whatever the run left in them, and the JSONL "comm" record
// must carry the nonblocking-request fields and the per-kind fault
// breakdown.

#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/jsonin.hpp"
#include "obs/report.hpp"
#include "par/simcomm.hpp"
#include "sim/fault/fault.hpp"

namespace lra {
namespace {

TEST(CommCounters, ResizeRestoresAFreshSet) {
  obs::CommCounters fresh;
  fresh.resize(3);
  EXPECT_EQ(fresh.msgs_sent_to, std::vector<std::uint64_t>(3, 0));
  EXPECT_EQ(fresh.corrupt_detected_from, std::vector<std::uint64_t>(3, 0));

  // Dirty every field...
  obs::CommCounters c;
  for (auto* v : {&c.msgs_sent_to, &c.bytes_sent_to, &c.msgs_recv_from,
                  &c.bytes_recv_from, &c.msgs_delayed_to,
                  &c.msgs_duplicated_to, &c.msgs_corrupted_to,
                  &c.dups_dropped_from, &c.corrupt_detected_from})
    v->assign(2, 7);
  c.collective_calls["poison"] = 7;
  c.collective_bytes["poison"] = 7;
  c.overlap_seconds = 7.0;
  c.overlapped_requests = 7;
  c.coll_seconds = 7.0;
  c.coll_delay_faults = 7;
  c.coll_flip_faults = 7;
  c.max_queue_depth = 7;
  EXPECT_FALSE(c == fresh);

  // ...and resize must restore the fresh state. operator== is compiler-
  // generated (memberwise over all fields), so a reset that misses any
  // field fails this comparison.
  c.resize(3);
  EXPECT_TRUE(c == fresh);
}

TEST(CommCounters, ReportCarriesOverlapFieldsAndFaultBreakdown) {
  // Two tagged messages under a certain-duplicate plan, waited in reverse
  // post order so the transport scans past (and drops) both duplicates; the
  // receiver charges compute between post and wait to exercise overlap.
  sim::FaultPlan fp;
  fp.dup_prob = 1.0;
  SimOptions o;
  o.faults = fp;
  SimWorld w(2, o);
  w.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, {11}, /*tag=*/1);
      ctx.send<int>(1, {22}, /*tag=*/2);
    } else {
      SimRequest r2 = ctx.irecv_bytes(0, /*tag=*/2);
      SimRequest r1 = ctx.irecv_bytes(0, /*tag=*/1);
      ctx.charge(1e-3);
      int v = 0;
      std::memcpy(&v, ctx.wait(r2).data(), sizeof(v));
      if (v != 22) throw std::runtime_error("tag-2 payload corrupted");
      std::memcpy(&v, ctx.wait(r1).data(), sizeof(v));
      if (v != 11) throw std::runtime_error("tag-1 payload corrupted");
    }
  });
  ASSERT_EQ(w.comm_stats().check_invariants(), "");

  const std::string path = ::testing::TempDir() + "counters_report.jsonl";
  {
    obs::ReportWriter rw(path);
    obs::write_comm_stats(rw, w.comm_stats());
  }
  const std::vector<obs::JsonValue> recs = obs::parse_jsonl_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(recs.size(), 1u);
  const obs::JsonValue& rec = recs[0];
  EXPECT_EQ(rec.string_or("type", ""), "comm");

  // PR 5 nonblocking-request fields present (and overlap was exercised).
  ASSERT_NE(rec.find("overlapped_requests"), nullptr);
  EXPECT_GE(rec.find("overlapped_requests")->as_uint(), 1u);
  ASSERT_NE(rec.find("overlap_seconds"), nullptr);
  EXPECT_GT(rec.find("overlap_seconds")->as_double(), 0.0);
  EXPECT_NE(rec.find("coll_seconds_max"), nullptr);

  // Per-kind fault breakdown: both duplicates injected and both dropped,
  // nothing else fired.
  const obs::JsonValue* fb = rec.find("fault_breakdown");
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fb->find("msgs_duplicated")->as_uint(), 2u);
  EXPECT_EQ(fb->find("dups_dropped")->as_uint(), 2u);
  EXPECT_EQ(fb->find("msgs_corrupted")->as_uint(), 0u);
  EXPECT_EQ(fb->find("corrupt_detected")->as_uint(), 0u);
  EXPECT_EQ(fb->find("msgs_delayed")->as_uint(), 0u);
  EXPECT_EQ(fb->find("coll_delay")->as_uint(), 0u);
  EXPECT_EQ(fb->find("coll_flip")->as_uint(), 0u);
  EXPECT_EQ(rec.find("fault_events")->as_uint(), 4u);
}

}  // namespace
}  // namespace lra
