#pragma once
// Shared helpers for the table/figure reproduction harnesses.

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_record.hpp"
#include "gen/presets.hpp"
#include "obs/prof/profile.hpp"
#include "obs/report.hpp"
#include "par/pool.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace lra::bench {

/// Apply --threads=N to the shared-memory kernel pool (0 or negative warns
/// and falls back to 1 worker); returns the active worker count.
inline int configure_threads(const Cli& cli) {
  if (cli.has("threads")) {
    const int n = resolve_thread_count(cli.get_int("threads", 0), "--threads");
    ThreadPool::global().set_num_threads(n);
  }
  return ThreadPool::global().num_threads();
}

/// Labels requested via --matrices=M1,M2 (default: all).
inline std::vector<std::string> requested_labels(const Cli& cli) {
  const std::string arg = cli.get("matrices", "");
  if (arg.empty()) return preset_labels();
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t next = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, next == std::string::npos ? arg.npos : next - pos);
    if (!tok.empty()) out.push_back(tok);
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("=============================================================\n");
  std::printf("%s\n  reproduces: %s\n", what, paper_ref);
  std::printf("  (synthetic analogs M1'-M6'; shapes comparable, absolute\n"
              "   numbers differ from the paper's VSC4 runs -- see DESIGN.md)\n");
  std::printf("=============================================================\n\n");
}

/// "-" for sentinel values in tables.
inline std::string or_dash(long long v, long long sentinel = -1) {
  return v == sentinel ? "-" : std::to_string(v);
}

/// JSONL report requested via --report=FILE (nullptr when absent); writes the
/// leading "meta" record.
inline std::unique_ptr<obs::ReportWriter> open_report(const Cli& cli,
                                                      const char* tool) {
  const std::string path = cli.get("report", "");
  if (path.empty()) return nullptr;
  auto w = std::make_unique<obs::ReportWriter>(path);
  w->write(obs::meta_record(tool));
  return w;
}

/// One "summary" record (summary_record) for one run of `method` on
/// `matrix`: a method result or a simulated run (SimRun).
template <typename Run>
void report_run(obs::ReportWriter* w, const std::string& matrix,
                const std::string& method, int np, double tau, const Run& r) {
  if (!w) return;
  obs::JsonObj rec = summary_record(r);
  rec.field("matrix", matrix)
      .field("method", method)
      .field("np", np)
      .field("tau", tau);
  w->write(rec);
}

/// Full profiler record block (profile / profile_rank / profile_phase, see
/// EXPERIMENTS.md) for one traced run. Returns false when a conservation
/// invariant or the what-if ordering (compute_only <= each projection <=
/// measured = makespan) failed — callers should surface that as a harness
/// failure, since it means the trace contradicts the cost model's replay.
inline bool report_profile(obs::ReportWriter* w,
                           const std::vector<obs::RankTrace>& trace,
                           const std::string& run) {
  if (trace.empty()) return true;
  const obs::prof::Profile p = obs::prof::build_profile(trace);
  if (w) {
    std::ostringstream ss;
    obs::prof::write_profile_jsonl(ss, p, run);
    w->write_lines(ss.str());
  }
  const obs::prof::WhatIf& wi = p.whatif;
  return p.conserved && wi.measured == p.makespan &&
         wi.compute_only <= wi.alpha0 && wi.compute_only <= wi.beta0 &&
         wi.compute_only <= wi.full_overlap && wi.alpha0 <= wi.measured &&
         wi.beta0 <= wi.measured && wi.full_overlap <= wi.measured;
}

}  // namespace lra::bench
