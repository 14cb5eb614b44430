#include "obs/report.hpp"

#include <stdexcept>

#include "support/autotune.hpp"
#include "support/simd.hpp"

namespace lra::obs {

ReportWriter::ReportWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open report file: " + path);
}

void ReportWriter::write(const JsonObj& obj) {
  out_ << obj.str() << '\n';
  ++records_;
}

void ReportWriter::write_lines(const std::string& jsonl) {
  out_ << jsonl;
  for (char c : jsonl)
    if (c == '\n') ++records_;
}

JsonObj meta_record(const std::string& tool) {
  JsonObj o;
  o.field("type", "meta")
      .field("tool", tool)
      .field("kernel_variant", "simd")
      .field("isa", simd::simd_isa_name())
      .field("autotune", kernel_config_summary(kernel_config()))
      .field("build_type", LRA_BUILD_TYPE)
      .field("pool_threads", ThreadPool::global().num_threads());
  return o;
}

void write_telemetry(ReportWriter& w, const std::string& method,
                     const TelemetrySeries& series) {
  for (const IterationSample& s : series) {
    JsonObj o;
    o.field("type", "iteration")
        .field("method", method)
        .field("iteration", s.iteration)
        .field("rank", s.rank)
        .field("indicator_rel", s.indicator_rel)
        .field("tau", s.tau)
        .field("time_seconds", s.time_seconds);
    if (s.schur_nnz >= 0) o.field("schur_nnz", s.schur_nnz);
    if (s.fill_density >= 0.0) o.field("fill_density", s.fill_density);
    if (s.factor_nnz >= 0) o.field("factor_nnz", s.factor_nnz);
    w.write(o);
  }
}

void write_comm_stats(ReportWriter& w, const CommStats& stats) {
  JsonObj o;
  o.field("type", "comm")
      .field("nranks", static_cast<long long>(stats.per_rank.size()))
      .field("total_msgs", stats.total_msgs())
      .field("total_bytes", stats.total_bytes())
      .field("max_queue_depth", stats.max_queue_depth());
  // Collective call counts are identical on every rank (invariant); report
  // rank 0's view, summing contribution volumes over ranks.
  if (!stats.per_rank.empty()) {
    std::string colls = "{";
    bool first = true;
    for (const auto& [name, calls] : stats.per_rank[0].collective_calls) {
      std::uint64_t bytes = 0;
      for (const auto& c : stats.per_rank)
        if (auto it = c.collective_bytes.find(name);
            it != c.collective_bytes.end())
          bytes += it->second;
      if (!first) colls += ',';
      first = false;
      colls += '"' + json_escape(name) + "\":{\"calls\":" +
               std::to_string(calls) + ",\"bytes\":" + std::to_string(bytes) +
               '}';
    }
    colls += '}';
    o.raw("collectives", colls);
  }
  // Nonblocking-request accounting: total overlapped requests/seconds, and
  // the per-rank maximum of the deterministic modeled-communication time.
  {
    std::uint64_t overlapped = 0;
    double overlap_s = 0.0, coll_s = 0.0;
    for (const auto& c : stats.per_rank) {
      overlapped += c.overlapped_requests;
      overlap_s += c.overlap_seconds;
      if (c.coll_seconds > coll_s) coll_s = c.coll_seconds;
    }
    o.field("overlapped_requests", overlapped)
        .field("overlap_seconds", overlap_s)
        .field("coll_seconds_max", coll_s);
  }
  // Per-kind fault breakdown summed over ranks (all zero without a plan):
  // sender-side injections and receiver-side detections stay distinguishable
  // so reports can verify e.g. every duplicate was dropped.
  {
    std::map<std::string, std::uint64_t> kinds;
    auto vsum = [](const std::vector<std::uint64_t>& v) {
      std::uint64_t n = 0;
      for (std::uint64_t x : v) n += x;
      return n;
    };
    for (const auto& c : stats.per_rank) {
      kinds["msgs_delayed"] += vsum(c.msgs_delayed_to);
      kinds["msgs_duplicated"] += vsum(c.msgs_duplicated_to);
      kinds["msgs_corrupted"] += vsum(c.msgs_corrupted_to);
      kinds["dups_dropped"] += vsum(c.dups_dropped_from);
      kinds["corrupt_detected"] += vsum(c.corrupt_detected_from);
      kinds["coll_delay"] += c.coll_delay_faults;
      kinds["coll_flip"] += c.coll_flip_faults;
    }
    std::string fb = "{";
    bool first = true;
    for (const auto& [kind, n] : kinds) {
      if (!first) fb += ',';
      first = false;
      fb += '"' + json_escape(kind) + "\":" + std::to_string(n);
    }
    fb += '}';
    o.raw("fault_breakdown", fb);
  }
  o.field("aborted", stats.aborted)
      .field("fault_events", stats.total_fault_events());
  const std::string inv = stats.check_invariants();
  o.field("consistent", inv.empty());
  if (!inv.empty()) o.field("violation", inv);
  w.write(o);
}

void write_pool_stats(ReportWriter& w,
                      const std::map<std::string, PoolKernelStat>& stats) {
  for (const auto& [label, s] : stats) {
    JsonObj o;
    o.field("type", "pool_kernel")
        .field("kernel", label)
        .field("calls", static_cast<long long>(s.calls))
        .field("wall_seconds", s.wall_seconds)
        .field("threads", static_cast<long long>(s.threads));
    w.write(o);
  }
}

void write_workspace_stats(ReportWriter& w, const WorkspaceStats& stats) {
  JsonObj o;
  o.field("type", "workspace")
      .field("arenas", static_cast<long long>(stats.arenas))
      .field("capacity_bytes", static_cast<long long>(stats.capacity))
      .field("high_water_bytes", static_cast<long long>(stats.high_water))
      .field("allocs", static_cast<long long>(stats.allocs))
      .field("grows", static_cast<long long>(stats.grows))
      // Which kernel implementations produced the run the arenas served —
      // perf numbers in a report are not interpretable without these.
      .field("kernel_variant", "simd")
      .field("simd_isa", simd::simd_isa_name())
      .field("autotune", kernel_config_summary(kernel_config()));
  w.write(o);
}

}  // namespace lra::obs
