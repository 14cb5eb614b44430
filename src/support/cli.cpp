#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace lra {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

// A numeric value that does not parse completely is a usage error, like an
// unknown flag: name the flag and the value, exit 2.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* what) {
  std::fprintf(stderr, "error: invalid value for --%s: '%s' (%s)\n",
               name.c_str(), value.c_str(), what);
  std::exit(2);
}

// `convert` (std::stoll or std::stod) over the whole of `value`: trailing
// characters, an empty value and an out-of-range value are all rejected.
template <typename Convert>
auto parse_whole(const std::string& name, const std::string& value,
                 const char* expected, Convert convert) {
  try {
    std::size_t used = 0;
    const auto v = convert(value, &used);
    if (used == value.size()) return v;
  } catch (const std::out_of_range&) {
    bad_value(name, value, "out of range");
  } catch (const std::invalid_argument&) {
  }
  bad_value(name, value, expected);
}

long long parse_int(const std::string& name, const std::string& value) {
  return parse_whole(name, value, "expected an integer",
                     [](const std::string& s, std::size_t* used) {
                       return std::stoll(s, used);
                     });
}

double parse_double(const std::string& name, const std::string& value) {
  return parse_whole(name, value, "expected a number",
                     [](const std::string& s, std::size_t* used) {
                       return std::stod(s, used);
                     });
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  auto it = kv_.find(name);
  return it == kv_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& dflt) const {
  const std::string* v = find(name);
  return v ? *v : dflt;
}

long long Cli::get_int(const std::string& name, long long dflt) const {
  const std::string* v = find(name);
  return v ? parse_int(name, *v) : dflt;
}

double Cli::get_double(const std::string& name, double dflt) const {
  const std::string* v = find(name);
  return v ? parse_double(name, *v) : dflt;
}

bool Cli::get_bool(const std::string& name, bool dflt) const {
  const std::string* v = find(name);
  if (!v) return dflt;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::vector<long long> Cli::get_int_list(const std::string& name,
                                         std::vector<long long> dflt) const {
  const std::string* v = find(name);
  if (!v) return dflt;
  std::vector<long long> out;
  for (const auto& tok : split(*v, ',')) out.push_back(parse_int(name, tok));
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& name,
                                         std::vector<double> dflt) const {
  const std::string* v = find(name);
  if (!v) return dflt;
  std::vector<double> out;
  for (const auto& tok : split(*v, ',')) out.push_back(parse_double(name, tok));
  return out;
}

void Cli::reject_unread() const {
  for (const auto& [name, value] : kv_) {
    if (read_.count(name)) continue;
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
    std::exit(2);
  }
}

}  // namespace lra
