#include "obs/prof/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/jsonin.hpp"

namespace lra::obs::prof {

std::vector<RankTrace> read_chrome_trace(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  const JsonValue doc = parse_json(ss.str());
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array())
    throw std::runtime_error("trace: missing traceEvents array");

  std::vector<RankTrace> ranks;
  for (const JsonValue& jev : events->as_array()) {
    const std::string ph = jev.string_or("ph", "");
    if (ph != "X") continue;  // metadata and flow events are derived data
    const JsonValue* tid = jev.find("tid");
    if (!tid || !tid->is_number()) continue;
    const auto r = static_cast<std::size_t>(tid->as_int());
    if (ranks.size() <= r) ranks.resize(r + 1);

    // Exactly what write_chrome_trace writes: every span carries its op, a
    // category that follows from it, and its raw virtual seconds.
    TraceEvent e;
    e.name = jev.string_or("name", "");
    const JsonValue* args = jev.find("args");
    if (!args || !args->find("b") || !args->find("e") || !args->find("op"))
      throw std::runtime_error("trace: span '" + e.name +
                               "' lacks its args b, e or op");
    const std::string op = args->string_or("op", "");
    if (!parse_span_op(op, &e.op))
      throw std::runtime_error("trace: unknown op '" + op + "'");
    if (jev.string_or("cat", "") != category(e.op))
      throw std::runtime_error("trace: span '" + e.name + "' of op '" + op +
                               "' is not in category '" + category(e.op) +
                               "'");
    // Raw virtual seconds written at %.17g: bitwise round-trip.
    e.begin_v = args->number_or("b", 0.0);
    e.end_v = args->number_or("e", 0.0);
    e.bytes = static_cast<std::uint64_t>(args->number_or("bytes", 0.0));
    e.peer = static_cast<int>(args->number_or("peer", -1.0));
    e.phase = args->string_or("phase", "");
    e.block_v = args->number_or("block", e.begin_v);
    e.avail_v = args->number_or("avail", 0.0);
    e.cost_v = args->number_or("cost", 0.0);
    e.cost_alpha_v = args->number_or("ca", 0.0);
    e.cost_beta_v = args->number_or("cb", 0.0);
    e.overlap_v = args->number_or("ov", 0.0);
    if (const JsonValue* flow = args->find("flow")) e.flow = flow->as_uint();
    ranks[r].events.push_back(std::move(e));
  }
  return ranks;
}

std::vector<RankTrace> read_chrome_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  try {
    return read_chrome_trace(f);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace lra::obs::prof
