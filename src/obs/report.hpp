#pragma once
// Structured JSONL run reports: one JSON object per line, suitable for both
// the CLI (--report=FILE) and the bench harnesses (--report=FILE), so
// trajectory data comes out of the tools machine-readable instead of being
// scraped from printed tables. Every record carries a "type" discriminator:
//   meta        — one per run: tool, kernel provenance (meta_record), then
//                 the tool's matrix, method and parameters
//   iteration   — one per solver iteration (from obs::TelemetrySeries)
//   comm        — aggregated communication counters of a distributed run
//   pool_kernel — one per thread-pool kernel label: calls, wall seconds,
//                 worker count (sequential runs only; simulated ranks
//                 never fork onto the pool)
//   workspace   — one per run: aggregated per-thread arena counters
//                 (capacity, high-water mark, allocation/grow counts) — the
//                 zero-allocation witness of the kernel hot loops
//   summary     — one per run: status, final rank/indicator, total seconds
//                 (built by lra::summary_record, core/run_record.hpp)

#include <fstream>
#include <map>
#include <string>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "par/pool.hpp"
#include "support/workspace.hpp"

namespace lra::obs {

class ReportWriter {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error on failure.
  explicit ReportWriter(const std::string& path);

  /// Append one record as a single line.
  void write(const JsonObj& obj);

  /// Append pre-serialized JSONL text (one record per '\n'-terminated line),
  /// e.g. the profiler's record block from prof::write_profile_jsonl.
  void write_lines(const std::string& jsonl);

  int records() const { return records_; }

 private:
  std::ofstream out_;
  int records_ = 0;
};

/// The "meta" record every report opens with: `tool`, and the kernel
/// provenance the solve benchmark stamps on its own outputs —
/// kernel_variant, isa, autotune (the compiled tile,
/// kernel_config_summary()), build_type (CMAKE_BUILD_TYPE) and pool_threads.
/// Callers append their run parameters before writing it.
JsonObj meta_record(const std::string& tool);

/// One "iteration" record per sample, tagged with the method name.
void write_telemetry(ReportWriter& w, const std::string& method,
                     const TelemetrySeries& series);

/// One "comm" record summarizing a distributed run's counters.
void write_comm_stats(ReportWriter& w, const CommStats& stats);

/// One "pool_kernel" record per label from ThreadPool::kernel_stats().
void write_pool_stats(ReportWriter& w,
                      const std::map<std::string, PoolKernelStat>& stats);

/// One "workspace" record from Workspace::aggregate(): totals over every
/// per-thread scratch arena (live and retired).
void write_workspace_stats(ReportWriter& w, const WorkspaceStats& stats);

}  // namespace lra::obs
