#include "obs/prof/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <tuple>

#include "obs/json.hpp"

namespace lra::obs::prof {
namespace {

constexpr double kRelTol = 1e-9;  // FP-summation slack for sum-style checks

bool is_wait(SpanOp op) {
  return op == SpanOp::kRecv || op == SpanOp::kCollWait;
}

double rel_tol(double scale) { return kRelTol * std::max(1.0, scale); }

// --- what-if cost policies -------------------------------------------------

enum class Policy { kMeasured, kAlpha0, kBeta0, kFullOverlap, kComputeOnly };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kMeasured: return "measured";
    case Policy::kAlpha0: return "alpha0";
    case Policy::kBeta0: return "beta0";
    case Policy::kFullOverlap: return "full_overlap";
    case Policy::kComputeOnly: return "compute_only";
  }
  return "?";
}

/// Counterfactual cost of the comm edge a wait observes. The min-clamps
/// guarantee projected <= measured even when the informational alpha/beta
/// decomposition does not sum exactly to the charged cost; an edge with a
/// nonzero cost but an all-zero decomposition is "unknown" and keeps its
/// full cost under alpha0/beta0 (conservative).
double wait_edge_cost(Policy p, const TraceEvent& e) {
  switch (p) {
    case Policy::kMeasured:
      return e.cost_v;
    case Policy::kAlpha0:
      if (e.cost_alpha_v == 0.0 && e.cost_beta_v == 0.0) return e.cost_v;
      return std::min(e.cost_v, e.cost_beta_v);
    case Policy::kBeta0:
      if (e.cost_alpha_v == 0.0 && e.cost_beta_v == 0.0) return e.cost_v;
      return std::min(e.cost_v, e.cost_alpha_v);
    case Policy::kFullOverlap:
    case Policy::kComputeOnly:
      // Transfers are free, but the dependency (sender must have posted)
      // remains: a true data dependence cannot be overlapped away.
      return 0.0;
  }
  return e.cost_v;
}

/// Counterfactual sender-side injection charge of a kSend (pure latency).
double send_charge(Policy p, const TraceEvent& e) {
  switch (p) {
    case Policy::kMeasured:
    case Policy::kBeta0:
    case Policy::kFullOverlap:
      return e.cost_v;
    case Policy::kAlpha0:
    case Policy::kComputeOnly:
      return 0.0;
  }
  return e.cost_v;
}

struct ReplayResult {
  std::vector<double> clocks;
  bool ok = true;
  std::string error;
};

/// Re-execute the recorded DAG under a cost policy. Under kMeasured the
/// arithmetic is operation-for-operation identical to the runtime's
/// (t += cost for compute/send charges, t = max(t, source + cost) for
/// waits), so the replayed clocks reproduce the recorded ones bitwise.
ReplayResult replay(const std::vector<RankTrace>& ranks, Policy p) {
  const std::size_t nr = ranks.size();
  ReplayResult res;
  res.clocks.assign(nr, 0.0);
  std::vector<std::size_t> cur(nr, 0);

  // (src, dst, flow) -> replayed clock at the matching send's entry.
  std::map<std::tuple<int, int, std::uint64_t>, double> send_entry;
  // flow -> {posts executed, max replayed post clock}; a wait is ready once
  // every post of its generation (pre-scanned count) has executed.
  std::map<std::uint64_t, std::pair<int, double>> coll_state;
  std::map<std::uint64_t, int> coll_need;
  for (const RankTrace& rt : ranks)
    for (const TraceEvent& e : rt.events)
      if (e.op == SpanOp::kCollPost) coll_need[e.flow] += 1;

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t r = 0; r < nr; ++r) {
      double& t = res.clocks[r];
      while (cur[r] < ranks[r].events.size()) {
        const TraceEvent& e = ranks[r].events[cur[r]];
        if (e.op == SpanOp::kRecv) {
          auto it = send_entry.find({e.peer, static_cast<int>(r), e.flow});
          if (it == send_entry.end()) break;  // sender not replayed yet
          t = std::max(t, it->second + wait_edge_cost(p, e));
          send_entry.erase(it);
        } else if (e.op == SpanOp::kCollWait) {
          auto it = coll_state.find(e.flow);
          if (it == coll_state.end() || it->second.first < coll_need[e.flow])
            break;  // some participant has not posted yet
          t = std::max(t, it->second.second + wait_edge_cost(p, e));
        } else if (e.op == SpanOp::kCollPost) {
          auto& slot = coll_state[e.flow];
          slot.first += 1;
          slot.second = std::max(slot.second, t);
        } else if (e.op == SpanOp::kSend) {
          send_entry[{static_cast<int>(r), e.peer, e.flow}] = t;
          t += send_charge(p, e);
        } else if (e.op == SpanOp::kCompute) {
          t += e.cost_v;
        }
        ++cur[r];
        progress = true;
      }
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    if (cur[r] < ranks[r].events.size()) {
      res.ok = false;
      res.error = std::string("replay(") + policy_name(p) +
                  "): deadlock at rank " + std::to_string(r) + " event " +
                  std::to_string(cur[r]) + " (" +
                  ranks[r].events[cur[r]].name + ")";
      return res;
    }
  }
  return res;
}

// --- critical path ---------------------------------------------------------

void extract_critical_path(const std::vector<RankTrace>& ranks, Profile* p) {
  const std::size_t nr = ranks.size();
  // Edge-source lookups on the recorded (measured) trace.
  std::map<std::tuple<int, int, std::uint64_t>, std::size_t> send_at;
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> max_post;
  std::size_t total_events = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t i = 0; i < ranks[r].events.size(); ++i) {
      const TraceEvent& e = ranks[r].events[i];
      if (e.op == SpanOp::kSend)
        send_at[{static_cast<int>(r), e.peer, e.flow}] = i;
      else if (e.op == SpanOp::kCollPost) {
        auto it = max_post.find(e.flow);
        if (it == max_post.end() ||
            e.begin_v > ranks[it->second.first].events[it->second.second]
                            .begin_v)
          max_post[e.flow] = {r, i};
      }
    }
    total_events += ranks[r].events.size();
  }

  // Start from the rank that sets the makespan.
  std::size_t r = 0;
  for (std::size_t q = 1; q < nr; ++q)
    if (p->ranks[q].total > p->ranks[r].total) r = q;
  std::ptrdiff_t i =
      static_cast<std::ptrdiff_t>(ranks[r].events.size()) - 1;
  double t = p->ranks[r].total;

  std::vector<CritStep> steps;
  std::size_t guard = 0;
  while (t > 0.0) {
    if (++guard > total_events + nr + 16) {
      p->violations.push_back("critical path: walk did not terminate");
      break;
    }
    if (i < 0) {
      p->violations.push_back(
          "critical path: ran out of events on rank " + std::to_string(r) +
          " at t=" + std::to_string(t));
      break;
    }
    const TraceEvent& e = ranks[r].events[static_cast<std::size_t>(i)];
    if (is_wait(e.op) && e.avail_v > e.block_v) {
      // Remote-bound wait: the path enters over the comm edge. Hop to the
      // edge's source — the matching send, or the latest-posting rank of
      // the collective generation — and keep walking there.
      CritStep s;
      s.rank = static_cast<int>(r);
      s.comm_edge = true;
      s.name = e.name;
      s.phase = e.phase;
      s.end = e.end_v;
      if (e.op == SpanOp::kRecv) {
        auto it = send_at.find({e.peer, static_cast<int>(r), e.flow});
        if (it == send_at.end()) {
          p->violations.push_back("critical path: unmatched recv edge " +
                                  e.name);
          break;
        }
        const std::size_t nr2 = static_cast<std::size_t>(e.peer);
        s.begin = ranks[nr2].events[it->second].begin_v;
        r = nr2;
        i = static_cast<std::ptrdiff_t>(it->second) - 1;
      } else {
        auto it = max_post.find(e.flow);
        if (it == max_post.end()) {
          p->violations.push_back("critical path: unmatched collective edge " +
                                  e.name);
          break;
        }
        s.begin = ranks[it->second.first].events[it->second.second].begin_v;
        r = it->second.first;
        i = static_cast<std::ptrdiff_t>(it->second.second) - 1;
      }
      t = s.begin;
      steps.push_back(std::move(s));
    } else {
      // Local event: its tile [block, end] lies on the path (zero-length
      // tiles — markers, hidden waits — contribute nothing and are skipped).
      const double adv = e.end_v - e.block_v;
      if (adv > 0.0) {
        CritStep s;
        s.rank = static_cast<int>(r);
        s.comm_edge = e.op == SpanOp::kSend || is_wait(e.op);
        s.name = e.name;
        s.phase = e.phase;
        s.begin = e.block_v;
        s.end = e.end_v;
        steps.push_back(std::move(s));
      }
      t = e.block_v;
      --i;
    }
  }
  std::reverse(steps.begin(), steps.end());

  for (const CritStep& s : steps) {
    const double d = s.end - s.begin;
    p->crit_length += d;
    if (s.comm_edge)
      p->crit_comm += d;
    else
      p->crit_compute += d;
    p->crit_phases[s.phase] += d;
  }
  p->critical_path = std::move(steps);
}

}  // namespace

Profile build_profile(const std::vector<RankTrace>& ranks) {
  Profile p;
  p.nranks = static_cast<int>(ranks.size());
  p.ranks.resize(ranks.size());

  auto violate = [&](std::string msg) {
    p.conserved = false;
    p.violations.push_back(std::move(msg));
  };

  // --- per-rank attribution + tiling check ---
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    RankProfile& rp = p.ranks[r];
    double prev_end = 0.0;
    bool tiled = true;
    for (const TraceEvent& e : ranks[r].events) {
      if (e.block_v != prev_end || e.end_v < e.block_v) tiled = false;
      prev_end = e.end_v;
      switch (e.op) {
        case SpanOp::kCompute:
          rp.phases[e.phase].compute += e.end_v - e.begin_v;
          break;
        case SpanOp::kSend:
          rp.phases[e.phase].comm += e.end_v - e.begin_v;
          break;
        case SpanOp::kRecv:
        case SpanOp::kCollWait: {
          // The wait's tile is the clock jump; the modeled cost bounds how
          // much of it is communication, the excess is idle (blocked on a
          // peer that had not even reached its send/post yet).
          const double jump = e.end_v - e.block_v;
          const double comm_t = std::min(jump, e.cost_v);
          rp.phases[e.phase].comm += comm_t;
          rp.idle += jump - comm_t;
          rp.overlap += e.overlap_v;
          break;
        }
        case SpanOp::kCollPost:
        case SpanOp::kFault:
          break;  // zero-length markers
      }
    }
    rp.total = prev_end;
    if (!tiled)
      violate("rank " + std::to_string(r) +
              ": events do not tile the timeline (block_v != previous end_v)");
    for (const auto& [phase, pc] : rp.phases) {
      rp.compute += pc.compute;
      rp.comm += pc.comm;
    }
    const double attributed = rp.compute + rp.comm + rp.idle;
    if (std::abs(attributed - rp.total) > rel_tol(rp.total))
      violate("rank " + std::to_string(r) + ": attribution sums to " +
              std::to_string(attributed) + " but the final clock is " +
              std::to_string(rp.total));
    p.makespan = std::max(p.makespan, rp.total);
  }

  // --- aggregate over ranks ---
  for (const RankProfile& rp : p.ranks) {
    p.compute += rp.compute;
    p.comm += rp.comm;
    p.idle += rp.idle;
    p.overlap += rp.overlap;
    for (const auto& [phase, pc] : rp.phases) {
      p.phases[phase].compute += pc.compute;
      p.phases[phase].comm += pc.comm;
    }
  }

  // --- measured replay: must reproduce every final clock bitwise ---
  const ReplayResult measured = replay(ranks, Policy::kMeasured);
  if (!measured.ok) {
    violate(measured.error);
  } else {
    for (std::size_t r = 0; r < ranks.size(); ++r)
      if (measured.clocks[r] != p.ranks[r].total)
        violate("rank " + std::to_string(r) +
                ": measured replay clock differs from the recorded clock by " +
                std::to_string(measured.clocks[r] - p.ranks[r].total));
    p.whatif.measured =
        *std::max_element(measured.clocks.begin(), measured.clocks.end());
  }

  // --- counterfactual projections ---
  auto project = [&](Policy pol) {
    const ReplayResult rr = replay(ranks, pol);
    if (!rr.ok) {
      violate(rr.error);
      return 0.0;
    }
    return *std::max_element(rr.clocks.begin(), rr.clocks.end());
  };
  if (!ranks.empty()) {
    p.whatif.alpha0 = project(Policy::kAlpha0);
    p.whatif.beta0 = project(Policy::kBeta0);
    p.whatif.full_overlap = project(Policy::kFullOverlap);
    p.whatif.compute_only = project(Policy::kComputeOnly);
    const double lo = p.whatif.compute_only;
    const double hi = p.whatif.measured;
    for (double v : {p.whatif.alpha0, p.whatif.beta0, p.whatif.full_overlap})
      if (v < lo - rel_tol(hi) || v > hi + rel_tol(hi))
        violate("what-if projection " + std::to_string(v) +
                " escapes [compute_only, measured] = [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "]");
  }

  // --- critical path ---
  if (!ranks.empty() && p.makespan > 0.0) {
    extract_critical_path(ranks, &p);
    if (std::abs(p.crit_length - p.makespan) > rel_tol(p.makespan))
      violate("critical path length " + std::to_string(p.crit_length) +
              " != makespan " + std::to_string(p.makespan));
  }
  if (!p.violations.empty()) p.conserved = false;
  return p;
}

void print_profile(std::ostream& os, const Profile& p) {
  char buf[256];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    os << buf << "\n";
  };
  const double span = p.makespan > 0.0 ? p.makespan : 1.0;
  const double rank_seconds = span * std::max(1, p.nranks);

  line("profile: %d rank(s), makespan %.6e virtual s", p.nranks, p.makespan);
  line("  %-14s %14s %14s %7s", "phase", "compute [s]", "comm [s]", "share");
  for (const auto& [phase, pc] : p.phases) {
    const char* name = phase.empty() ? "(none)" : phase.c_str();
    line("  %-14s %14.6e %14.6e %6.1f%%", name, pc.compute, pc.comm,
         100.0 * (pc.compute + pc.comm) / rank_seconds);
  }
  line("  totals: compute %.6e, comm %.6e, idle %.6e, overlap %.6e",
       p.compute, p.comm, p.idle, p.overlap);
  for (std::size_t r = 0; r < p.ranks.size(); ++r) {
    const RankProfile& rp = p.ranks[r];
    line("  rank %-3zu total %.6e  compute %5.1f%%  comm %5.1f%%  idle "
         "%5.1f%%  overlap %.3e",
         r, rp.total, 100.0 * rp.compute / span, 100.0 * rp.comm / span,
         100.0 * rp.idle / span, rp.overlap);
  }
  line("  critical path: %.6e s in %zu step(s): compute %.6e (%.1f%%), "
       "comm %.6e (%.1f%%)",
       p.crit_length, p.critical_path.size(), p.crit_compute,
       100.0 * p.crit_compute / span, p.crit_comm,
       100.0 * p.crit_comm / span);
  for (const auto& [phase, secs] : p.crit_phases) {
    const char* name = phase.empty() ? "(none)" : phase.c_str();
    line("    on-path %-14s %14.6e (%5.1f%%)", name, secs,
         100.0 * secs / span);
  }
  auto speedup = [&](double v) { return v > 0.0 ? p.whatif.measured / v : 0.0; };
  line("  what-if: measured     %.6e", p.whatif.measured);
  line("           alpha=0      %.6e (speedup bound %.3fx)", p.whatif.alpha0,
       speedup(p.whatif.alpha0));
  line("           beta=0       %.6e (speedup bound %.3fx)", p.whatif.beta0,
       speedup(p.whatif.beta0));
  line("           full overlap %.6e (speedup bound %.3fx)",
       p.whatif.full_overlap, speedup(p.whatif.full_overlap));
  line("           compute only %.6e (speedup bound %.3fx)",
       p.whatif.compute_only, speedup(p.whatif.compute_only));
  if (p.conserved) {
    os << "  conservation: ok\n";
  } else {
    os << "  conservation: VIOLATED\n";
    for (const std::string& v : p.violations) os << "    " << v << "\n";
  }
}

void write_profile_jsonl(std::ostream& os, const Profile& p,
                         const std::string& run) {
  {
    JsonObj whatif;
    whatif.field("measured", p.whatif.measured)
        .field("alpha0", p.whatif.alpha0)
        .field("beta0", p.whatif.beta0)
        .field("full_overlap", p.whatif.full_overlap)
        .field("compute_only", p.whatif.compute_only);
    JsonObj o;
    o.field("type", "profile")
        .field("run", run)
        .field("nranks", p.nranks)
        .field("makespan", p.makespan)
        .field("compute", p.compute)
        .field("comm", p.comm)
        .field("idle", p.idle)
        .field("overlap", p.overlap)
        .field("crit_length", p.crit_length)
        .field("crit_compute", p.crit_compute)
        .field("crit_comm", p.crit_comm)
        .field("crit_steps", static_cast<long long>(p.critical_path.size()))
        .raw("whatif", whatif.str())
        .field("conserved", p.conserved);
    if (!p.violations.empty()) {
      std::string arr = "[";
      for (std::size_t i = 0; i < p.violations.size(); ++i) {
        if (i) arr += ",";
        arr += "\"" + json_escape(p.violations[i]) + "\"";
      }
      arr += "]";
      o.raw("violations", arr);
    }
    os << o.str() << "\n";
  }
  for (std::size_t r = 0; r < p.ranks.size(); ++r) {
    const RankProfile& rp = p.ranks[r];
    JsonObj o;
    o.field("type", "profile_rank")
        .field("run", run)
        .field("rank", static_cast<long long>(r))
        .field("total", rp.total)
        .field("compute", rp.compute)
        .field("comm", rp.comm)
        .field("idle", rp.idle)
        .field("overlap", rp.overlap);
    os << o.str() << "\n";
  }
  for (const auto& [phase, pc] : p.phases) {
    auto it = p.crit_phases.find(phase);
    JsonObj o;
    o.field("type", "profile_phase")
        .field("run", run)
        .field("phase", phase)
        .field("compute", pc.compute)
        .field("comm", pc.comm)
        .field("crit", it == p.crit_phases.end() ? 0.0 : it->second);
    os << o.str() << "\n";
  }
}

}  // namespace lra::obs::prof
