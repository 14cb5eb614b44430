#pragma once
// Per-rank event tracing in *virtual* time. Each simulated rank owns a
// RankTrace buffer (written by exactly one thread, so no locking); SimWorld
// wires the buffers into the RankCtx hooks when tracing is enabled and hands
// them back after the run. The export format is Chrome trace-event JSON
// ("X" complete events plus "s"/"f" flow events for the cross-rank
// dependency DAG), loadable in Perfetto / chrome://tracing with one track
// (tid) per simulated rank.
//
// Tracing is strictly opt-in: a disabled run records nothing, allocates
// nothing, and leaves every virtual-clock code path untouched.
//
// Profiling contract (src/obs/prof): with tracing on, *every* virtual-clock
// advance on a rank emits exactly one event whose [block_v, end_v] interval
// abuts the previous event's end — the events tile [0, final clock] with no
// gaps or overlaps. cost_v carries the exact double the runtime applied
// (compute charge, p2p transfer, collective cost), so a replay that re-adds
// the recorded costs reproduces every clock bitwise. flow pairs the send
// side of a p2p edge with its receive (per (src, dst, tag, seq)) and the
// posts of a collective generation with its waits.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace lra::obs {

/// Names of the compute events that belong to no kernel: an unnamed
/// RankCtx::compute section and a modeled RankCtx::charge.
inline constexpr const char* kUnnamedCompute = "compute";
inline constexpr const char* kChargeSpan = "charge";

/// An event's kind: which clock advance (if any) it records — the
/// profiler's dispatch key — and, through category(), its Chrome `cat`.
enum class SpanOp {
  kCompute,   // compute()/charge(): clock += cost_v
  kSend,      // buffered send: injection charge cost_v; avail_v = arrival
  kRecv,      // p2p completion: clock = max(block_v, avail_v)
  kCollPost,  // zero-length marker at collective post time
  kCollWait,  // collective completion: clock = max(block_v, avail_v)
  kFault,     // zero-length marker of an injected fault (sim/fault)
};

const char* to_string(SpanOp op);
/// Inverse of to_string(SpanOp); false on unknown names.
bool parse_span_op(std::string_view s, SpanOp* out);
/// The Chrome trace category of an op: "compute", "p2p", "collective" or
/// "fault".
const char* category(SpanOp op);

/// One closed span on a rank's virtual timeline.
struct TraceEvent {
  std::string name;
  SpanOp op = SpanOp::kCompute;
  double begin_v = 0.0;  // virtual seconds at span entry (post time for waits)
  double end_v = 0.0;    // virtual seconds at span exit (>= begin_v)
  std::uint64_t bytes = 0;  // payload size for comm spans (0 for compute)
  int peer = -1;            // p2p peer rank (-1 for compute/collectives)

  // --- profiling fields (src/obs/prof) ---
  std::string phase;        // innermost PhaseScope at post time ("" = none)
  double block_v = 0.0;     // clock before this op's advance (tiling begin)
  double avail_v = 0.0;     // absolute arrival (p2p) / finish (collective)
  double cost_v = 0.0;      // applied modeled cost, the exact charged double
  double cost_alpha_v = 0.0;  // informational alpha/beta decomposition of
  double cost_beta_v = 0.0;   // cost_v (sums approximately to cost_v)
  double overlap_v = 0.0;   // overlap credited at this completion
  std::uint64_t flow = 0;   // p2p: pack(tag, seq); collective: gen + 1

  /// Clock advance this event accounts for (its tile on the timeline).
  double advance() const {
    return op == SpanOp::kCompute || op == SpanOp::kSend ? end_v - begin_v
                                                         : end_v - block_v;
  }
};

/// Pack a p2p (tag, per-(src,tag) sequence) pair into a flow id. Together
/// with the (sender, receiver) pair carried by the events' tid/peer fields
/// this identifies a message edge exactly (injective for tag < 2^31).
inline std::uint64_t p2p_flow_key(int tag, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) |
         (seq & 0xffffffffull);
}

/// Append-only buffer owned by one simulated rank.
struct RankTrace {
  std::vector<TraceEvent> events;

  void push(TraceEvent e) { events.push_back(std::move(e)); }
};

/// Per-kernel compute seconds of a traced run, as plotted in Figs. 5-6: each
/// rank's compute events summed by name in program order (the unnamed ones
/// skipped), then the max over ranks.
std::map<std::string, double> kernel_seconds(
    const std::vector<RankTrace>& ranks);

/// Print "label  seconds  [bar]" rows for the listed kernels (absent kernels
/// print 0), followed by an "other" row holding the remainder vs `total`.
void print_kernel_breakdown(std::ostream& os,
                            const std::map<std::string, double>& times,
                            const std::vector<std::string>& kernels,
                            double total);

/// Emit Chrome trace-event JSON: one "X" event per span (args carry the
/// profiling fields in full %.17g precision, so a parsed trace round-trips
/// bitwise), flow "s"/"f" pairs for p2p edges and collective post->finish
/// edges, virtual seconds mapped to microseconds, pid 0 / tid = rank, plus
/// metadata events naming the tracks ("rank 0", "rank 1", ...).
void write_chrome_trace(std::ostream& os, const std::vector<RankTrace>& ranks);

/// Same, to a file. Throws std::runtime_error if the file cannot be opened.
void write_chrome_trace_file(const std::string& path,
                             const std::vector<RankTrace>& ranks);

}  // namespace lra::obs
