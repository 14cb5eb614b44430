#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace lra::obs {

const char* to_string(SpanOp op) {
  switch (op) {
    case SpanOp::kCompute:
      return "compute";
    case SpanOp::kSend:
      return "send";
    case SpanOp::kRecv:
      return "recv";
    case SpanOp::kCollPost:
      return "coll_post";
    case SpanOp::kCollWait:
      return "coll_wait";
    case SpanOp::kFault:
      return "fault";
  }
  return "unknown";
}

bool parse_span_op(std::string_view s, SpanOp* out) {
  if (s == "compute") *out = SpanOp::kCompute;
  else if (s == "send") *out = SpanOp::kSend;
  else if (s == "recv") *out = SpanOp::kRecv;
  else if (s == "coll_post") *out = SpanOp::kCollPost;
  else if (s == "coll_wait") *out = SpanOp::kCollWait;
  else if (s == "fault") *out = SpanOp::kFault;
  else return false;
  return true;
}

const char* category(SpanOp op) {
  switch (op) {
    case SpanOp::kCompute:
      return "compute";
    case SpanOp::kSend:
    case SpanOp::kRecv:
      return "p2p";
    case SpanOp::kCollPost:
    case SpanOp::kCollWait:
      return "collective";
    case SpanOp::kFault:
      return "fault";
  }
  return "unknown";
}

namespace {

/// Display id for Chrome flow arrows (the analyzer pairs edges from the
/// args fields, not from this): p2p edges mix (src, dst, flow); collective
/// generations get their own namespace.
long long p2p_display_id(int src, int dst, std::uint64_t flow) {
  std::uint64_t h = flow * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 20) ^
       static_cast<std::uint32_t>(dst);
  return static_cast<long long>(h & 0x7fffffffffffffffull);
}
long long coll_display_id(std::uint64_t flow) {
  return static_cast<long long>((flow | (1ull << 48)) & 0x7fffffffffffffffull);
}

}  // namespace

std::map<std::string, double> kernel_seconds(
    const std::vector<RankTrace>& ranks) {
  std::map<std::string, double> out;
  for (const RankTrace& rank : ranks) {
    std::map<std::string, double> mine;
    for (const TraceEvent& e : rank.events)
      if (e.op == SpanOp::kCompute && e.name != kUnnamedCompute &&
          e.name != kChargeSpan)
        mine[e.name] += e.cost_v;
    for (const auto& [name, secs] : mine) {
      double& slot = out[name];
      slot = std::max(slot, secs);
    }
  }
  return out;
}

void print_kernel_breakdown(std::ostream& os,
                            const std::map<std::string, double>& times,
                            const std::vector<std::string>& kernels,
                            double total) {
  double accounted = 0.0;
  double maxval = 1e-12;
  for (const auto& k : kernels) {
    auto it = times.find(k);
    const double v = it == times.end() ? 0.0 : it->second;
    accounted += v;
    maxval = std::max(maxval, v);
  }
  // Kernel sums can exceed `total` by rounding (each is a max over ranks);
  // the remainder must clamp at zero, never print as a negative row. A
  // non-finite total degrades to an empty remainder instead of NaN bars.
  const double remainder = std::isfinite(total) ? total - accounted : 0.0;
  const double other = std::max(0.0, remainder);
  maxval = std::max(maxval, other);

  auto bar = [&](double v) {
    const int width =
        v > 0.0 ? static_cast<int>(40.0 * v / maxval + 0.5) : 0;
    return std::string(static_cast<std::size_t>(std::max(0, width)), '#');
  };
  char buf[160];
  for (const auto& k : kernels) {
    auto it = times.find(k);
    const double v = it == times.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "  %-12s %10.4fs  %s\n", k.c_str(), v,
                  bar(v).c_str());
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-12s %10.4fs  %s\n", "other", other,
                bar(other).c_str());
  os << buf;
}

void write_chrome_trace(std::ostream& os, const std::vector<RankTrace>& ranks) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << JsonObj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", 0)
            .field("tid", 0)
            .raw("args", "{\"name\":\"SimWorld (virtual time)\"}")
            .str();
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    sep();
    os << JsonObj()
              .field("name", "thread_name")
              .field("ph", "M")
              .field("pid", 0)
              .field("tid", static_cast<long long>(r))
              .raw("args",
                   "{\"name\":\"rank " + std::to_string(r) + "\"}")
              .str();
  }

  auto flow_event = [&](const char* ph, long long id, const std::string& name,
                        std::size_t tid, double ts) {
    JsonObj f;
    f.field("name", name)
        .field("cat", "flow")
        .field("ph", ph)
        .field("id", id)
        .field("ts", ts * 1e6)
        .field("pid", 0)
        .field("tid", static_cast<long long>(tid));
    if (ph[0] == 'f') f.field("bp", "e");
    sep();
    os << f.str();
  };

  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (const TraceEvent& e : ranks[r].events) {
      // Full-precision (%.17g via JsonObj) copies of every profiling field:
      // a parsed trace rebuilds the exact in-memory events, so the post-run
      // analyzer gets bitwise the same answers from a file as from memory.
      JsonObj args;
      if (e.bytes > 0) args.field("bytes", e.bytes);
      if (e.peer >= 0) args.field("peer", e.peer);
      args.field("b", e.begin_v).field("e", e.end_v);
      args.field("op", to_string(e.op));
      if (!e.phase.empty()) args.field("phase", e.phase);
      if (e.block_v != e.begin_v) args.field("block", e.block_v);
      if (e.avail_v != 0.0) args.field("avail", e.avail_v);
      if (e.cost_v != 0.0) args.field("cost", e.cost_v);
      if (e.cost_alpha_v != 0.0) args.field("ca", e.cost_alpha_v);
      if (e.cost_beta_v != 0.0) args.field("cb", e.cost_beta_v);
      if (e.overlap_v != 0.0) args.field("ov", e.overlap_v);
      if (e.flow != 0) args.field("flow", e.flow);
      JsonObj ev;
      ev.field("name", e.name)
          .field("cat", category(e.op))
          .field("ph", "X")
          .field("ts", e.begin_v * 1e6)  // virtual seconds -> microseconds
          .field("dur", (e.end_v - e.begin_v) * 1e6)
          .field("pid", 0)
          .field("tid", static_cast<long long>(r))
          .raw("args", args.str());
      sep();
      os << ev.str();

      // Dependency-DAG flow arrows: send -> recv per p2p edge, every post ->
      // every wait per collective generation.
      if (e.flow != 0) {
        switch (e.op) {
          case SpanOp::kSend:
            flow_event("s", p2p_display_id(static_cast<int>(r), e.peer, e.flow),
                       e.name, r, e.begin_v);
            break;
          case SpanOp::kRecv:
            flow_event("f", p2p_display_id(e.peer, static_cast<int>(r), e.flow),
                       e.name, r, e.end_v);
            break;
          case SpanOp::kCollPost:
            flow_event("s", coll_display_id(e.flow), e.name, r, e.begin_v);
            break;
          case SpanOp::kCollWait:
            flow_event("f", coll_display_id(e.flow), e.name, r, e.end_v);
            break;
          default:
            break;
        }
      }
    }
  }
  os << "\n]}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<RankTrace>& ranks) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  write_chrome_trace(f, ranks);
}

}  // namespace lra::obs
