#include "core/run_record.hpp"

#include "obs/prof/profile.hpp"

namespace lra {

obs::JsonObj summary_record(Status status, Index rank, Index iterations,
                            double indicator_rel) {
  obs::JsonObj o;
  o.field("type", "summary")
      .field("status", to_string(status))
      .field("rank", static_cast<long long>(rank))
      .field("iterations", static_cast<long long>(iterations))
      .field("indicator_rel", indicator_rel);
  return o;
}

void add_sim_fields(obs::JsonObj& o, double virtual_seconds,
                    const obs::CommStats& comm,
                    const std::vector<obs::RankTrace>& trace) {
  o.field("virtual_seconds", virtual_seconds)
      .field("total_msgs", comm.total_msgs())
      .field("total_bytes", comm.total_bytes());
  if (trace.empty()) return;
  const obs::prof::Profile p = obs::prof::build_profile(trace);
  std::string ph = "{";
  for (const auto& [name, cost] : p.phases) {
    if (ph.size() > 1) ph += ',';
    ph += '"' + obs::json_escape(name) +
          "\":{\"compute\":" + obs::json_number(cost.compute) +
          ",\"comm\":" + obs::json_number(cost.comm) + '}';
  }
  o.raw("phases", ph + '}');
}

}  // namespace lra
