#pragma once
// The "summary" record a run report (obs/report.hpp) closes each run with,
// built here once for every method result and both engines: lra_cli approx
// and the bench harnesses all write it. Its "meta" counterpart is
// obs::meta_record.

#include <vector>

#include "core/driver.hpp"
#include "obs/json.hpp"

namespace lra {

/// "summary": status, rank, iterations and indicator_rel. Callers append
/// their own keys (matrix, method, ...).
obs::JsonObj summary_record(Status status, Index rank, Index iterations,
                            double indicator_rel);
inline obs::JsonObj summary_record(const LowRankApprox& r) {
  return summary_record(r.status(), r.rank(), r.iterations(),
                        r.indicator_rel());
}
/// The same from a method's own result (RandQbResult, LuCrtpResult, ...).
template <typename Result>
obs::JsonObj summary_record(const Result& r) {
  return summary_record(r.status, r.rank, r.iterations,
                        relative_indicator(r.status, r.indicator, r.anorm_f));
}

/// Append what a simulated run measured: virtual_seconds, total_msgs,
/// total_bytes and, for a traced run, "phases": per-phase compute and comm
/// virtual seconds in the profiler's schema ("" = outside every PhaseScope).
void add_sim_fields(obs::JsonObj& o, double virtual_seconds,
                    const obs::CommStats& comm,
                    const std::vector<obs::RankTrace>& trace);
template <typename Result>
obs::JsonObj summary_record(const SimRun<Result>& run) {
  obs::JsonObj o = summary_record(run.result);
  add_sim_fields(o, run.virtual_seconds, run.comm, run.trace);
  return o;
}

}  // namespace lra
