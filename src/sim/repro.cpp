#include "sim/repro.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gen/presets.hpp"
#include "obs/json.hpp"
#include "obs/jsonin.hpp"

namespace lra::sim {
namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("repro JSON: " + what);
}

/// One flat object (string and number values, no nesting, no escapes).
obs::JsonObject parse_flat_object(const std::string& s) {
  // to_json never escapes, so a backslash is a foreign file.
  if (s.find('\\') != std::string::npos)
    malformed("escape sequences are not supported");
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(s);
  } catch (const std::runtime_error& e) {
    malformed(e.what());
  }
  if (!doc.is_object()) malformed("expected one object");
  return doc.as_object();
}

const std::string& to_string_value(const std::string& key,
                                   const obs::JsonValue& v) {
  if (!v.is_string()) malformed("non-string value for " + key);
  return v.as_string();
}

double to_double(const std::string& key, const obs::JsonValue& v) {
  if (!v.is_number()) malformed("non-numeric value for " + key);
  return v.as_double();
}

/// An integer literal that fits in T.
template <typename T>
T to_int(const std::string& key, const obs::JsonValue& v) {
  std::int64_t x = 0;
  if (!v.exact_int64(&x)) malformed("non-integer value for " + key);
  if (!std::in_range<T>(x)) malformed("out-of-range value for " + key);
  return static_cast<T>(x);
}

/// A seed: any 64-bit pattern, written either unsigned or (as to_json
/// does) as the signed long long of the same bits.
std::uint64_t to_u64(const std::string& key, const obs::JsonValue& v) {
  std::uint64_t u = 0;
  if (v.exact_uint64(&u)) return u;
  return static_cast<std::uint64_t>(to_int<std::int64_t>(key, v));
}

}  // namespace

CscMatrix build_matrix(const ReproConfig& c) {
  return make_preset(c.matrix, c.scale, c.matrix_seed).a;
}

std::string to_json(const ReproConfig& c) {
  obs::JsonObj o;
  o.field("matrix", c.matrix)
      .field("scale", c.scale)
      .field("matrix_seed", static_cast<long long>(c.matrix_seed))
      .field("method", to_string(c.method))
      .field("tau", c.tau)
      .field("block_size", static_cast<long long>(c.block_size))
      .field("power", c.power)
      .field("solver_seed", static_cast<long long>(c.solver_seed))
      .field("max_rank", static_cast<long long>(c.max_rank))
      .field("nranks", c.nranks)
      .field("alpha", c.cost.alpha)
      .field("beta", c.cost.beta)
      .field("faults", c.faults);
  return o.str();
}

ReproConfig repro_from_json(const std::string& json) {
  ReproConfig c;
  for (const auto& [key, v] : parse_flat_object(json)) {
    if (key == "matrix") {
      c.matrix = to_string_value(key, v);
    } else if (key == "scale") {
      c.scale = to_double(key, v);
    } else if (key == "matrix_seed") {
      c.matrix_seed = to_u64(key, v);
    } else if (key == "method") {
      c.method = method_from_string(to_string_value(key, v));
    } else if (key == "tau") {
      c.tau = to_double(key, v);
    } else if (key == "block_size") {
      c.block_size = to_int<Index>(key, v);
    } else if (key == "power") {
      c.power = to_int<int>(key, v);
    } else if (key == "solver_seed") {
      c.solver_seed = to_u64(key, v);
    } else if (key == "max_rank") {
      c.max_rank = to_int<Index>(key, v);
    } else if (key == "nranks") {
      c.nranks = to_int<int>(key, v);
    } else if (key == "alpha") {
      c.cost.alpha = to_double(key, v);
    } else if (key == "beta") {
      c.cost.beta = to_double(key, v);
    } else if (key == "faults") {
      c.faults = to_string_value(key, v);
    } else {
      malformed("unknown key " + key);
    }
  }
  if (c.method == Method::kAuto)
    malformed("method must be explicit in a repro file, not \"auto\"");
  if (c.nranks < 1) malformed("nranks must be >= 1");
  if (c.block_size < 1) malformed("block_size must be >= 1");
  if (!(c.scale > 0.0)) malformed("scale must be > 0");
  c.fault_plan();  // validate the spec eagerly (throws on a bad clause)
  return c;
}

ReproConfig load_repro_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open repro file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return repro_from_json(ss.str());
}

void save_repro_file(const std::string& path, const ReproConfig& c) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open repro file: " + path);
  f << to_json(c) << "\n";
}

}  // namespace lra::sim
