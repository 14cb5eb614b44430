#include "support/autotune.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "support/simd.hpp"

// The JSON reader below is deliberately hand-rolled: lra_support is the
// bottom library of the dependency stack and must not pull in lra_obs (which
// owns the full jsonin parser but links back onto support). The cache files
// are machine-written flat objects — two levels of nesting, string and
// integer values only — so a ~60-line recursive scanner covers them; anything
// it cannot read is treated as a corrupt cache and rejected.

namespace lra {
namespace {

struct FlatJson {
  // Dotted-path keys: "schema", "gemm.mc", "dtc.ib", ...
  std::map<std::string, std::string> strings;
  std::map<std::string, long> numbers;
};

struct Parser {
  const std::string& s;
  std::size_t i = 0;

  bool eof() const { return i >= s.size(); }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool consume(char c) {
    skip_ws();
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }
  bool parse_string(std::string* out) {
    skip_ws();
    if (eof() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (!eof() && s[i] != '"') {
      if (s[i] == '\\') return false;  // cache values never need escapes
      out->push_back(s[i++]);
    }
    if (eof()) return false;  // unterminated string
    ++i;                      // closing quote
    return true;
  }
  bool parse_object(const std::string& prefix, FlatJson* out, int depth) {
    if (depth > 2 || !consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      std::string key;
      if (!parse_string(&key) || !consume(':')) return false;
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      skip_ws();
      if (eof()) return false;
      if (s[i] == '{') {
        if (!parse_object(path, out, depth + 1)) return false;
      } else if (s[i] == '"') {
        std::string val;
        if (!parse_string(&val)) return false;
        out->strings[path] = val;
      } else {
        std::size_t start = i;
        if (s[i] == '-') ++i;
        while (!eof() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
        if (i == start) return false;
        out->numbers[path] = std::strtol(s.c_str() + start, nullptr, 10);
      }
      if (consume(',')) continue;
      return consume('}');
    }
  }
};

bool parse_flat_json(const std::string& text, FlatJson* out) {
  Parser p{text};
  if (!p.parse_object("", out, 0)) return false;
  p.skip_ws();
  return p.eof();
}

int number_or(const FlatJson& doc, const std::string& key, int fallback) {
  const auto it = doc.numbers.find(key);
  return it == doc.numbers.end() ? fallback : static_cast<int>(it->second);
}

// --- resolution ------------------------------------------------------------

std::mutex g_mutex;
KernelConfig g_config;    // guarded by g_mutex until resolved
bool g_resolved = false;  // guarded by g_mutex

KernelConfig resolve_from_environment() {
  KernelConfig cfg = default_kernel_config();
  const char* env = std::getenv(kAutotuneEnvVar);
  const std::string path = env != nullptr ? env : kAutotuneDefaultFile;
  std::ifstream probe(path);
  if (!probe.good()) {
    // Only an explicitly named cache warrants a complaint when missing.
    if (env != nullptr)
      std::fprintf(stderr,
                   "lra: %s=%s does not exist; using default kernel config\n",
                   kAutotuneEnvVar, path.c_str());
    return cfg;
  }
  probe.close();
  std::string err;
  KernelConfig loaded;
  if (!load_kernel_config_file(path, &loaded, &err)) {
    std::fprintf(stderr,
                 "lra: ignoring autotune cache %s (%s); "
                 "using default kernel config\n",
                 path.c_str(), err.c_str());
    return cfg;
  }
  return loaded;
}

}  // namespace

KernelConfig default_kernel_config() {
  KernelConfig cfg;
  // A 128 x 256 packed A-panel (fits L2) and an (mv*width) x nr register
  // block; the autotuner may replace any of them, never changing results.
  cfg.gemm = GemmTile{128, 256, 2, 4};
  cfg.dtc = DtcTile{8 * simd::simd_width()};
  cfg.source = "defaults";
  return cfg;
}

const KernelConfig& kernel_config() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_resolved) {
    g_config = resolve_from_environment();
    g_resolved = true;
  }
  return g_config;
}

bool set_kernel_config(const KernelConfig& cfg, std::string* err) {
  if (!validate_kernel_config(cfg, err)) return false;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = cfg;
  g_resolved = true;
  return true;
}

void reset_kernel_config() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_resolved = false;
}

bool validate_kernel_config(const KernelConfig& cfg, std::string* err) {
  const auto reject = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  const int width = simd::simd_width();
  const GemmTile& g = cfg.gemm;
  if (g.mv < 1 || g.mv > 4) return reject("gemm.mv out of range [1,4]");
  if (g.nr < 1 || g.nr > 8) return reject("gemm.nr out of range [1,8]");
  // The micro-kernel holds mv*nr vector accumulators; 16 is the x86-64
  // register file, beyond which every extra accumulator spills.
  if (g.mv * g.nr > 16) return reject("gemm micro-tile mv*nr exceeds 16");
  const int mr = g.mv * width;
  if (g.mc < mr || g.mc > 4096 || g.mc % mr != 0)
    return reject("gemm.mc must be a multiple of mv*width in [mv*width,4096]");
  if (g.kc < 8 || g.kc > 4096) return reject("gemm.kc out of range [8,4096]");
  const int ib = cfg.dtc.ib;
  if (ib < 1 || ib > 8 * width)
    return reject("dtc.ib out of range [1,8*width]");
  return true;
}

bool load_kernel_config_file(const std::string& path, KernelConfig* out,
                             std::string* err) {
  std::ifstream in(path);
  if (!in.good()) {
    if (err != nullptr) *err = "cannot open file";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  FlatJson doc;
  if (!parse_flat_json(ss.str(), &doc)) {
    if (err != nullptr) *err = "not parseable as a flat JSON object";
    return false;
  }
  const auto schema = doc.strings.find("schema");
  if (schema == doc.strings.end() || schema->second != kAutotuneSchema) {
    if (err != nullptr) *err = "schema is not " + std::string(kAutotuneSchema);
    return false;
  }
  const auto isa = doc.strings.find("isa");
  if (isa == doc.strings.end() || isa->second != simd::simd_isa_name()) {
    if (err != nullptr)
      *err = "cache ISA \"" +
             (isa == doc.strings.end() ? std::string("?") : isa->second) +
             "\" does not match this build (" + simd::simd_isa_name() + ")";
    return false;
  }
  KernelConfig cfg = default_kernel_config();
  cfg.gemm.mc = number_or(doc, "gemm.mc", cfg.gemm.mc);
  cfg.gemm.kc = number_or(doc, "gemm.kc", cfg.gemm.kc);
  cfg.gemm.mv = number_or(doc, "gemm.mv", cfg.gemm.mv);
  cfg.gemm.nr = number_or(doc, "gemm.nr", cfg.gemm.nr);
  cfg.dtc.ib = number_or(doc, "dtc.ib", cfg.dtc.ib);
  cfg.source = path;
  if (!validate_kernel_config(cfg, err)) return false;
  *out = cfg;
  return true;
}

bool save_kernel_config_file(const std::string& path, const KernelConfig& cfg,
                             std::string* err) {
  std::string verr;
  if (!validate_kernel_config(cfg, &verr)) {
    if (err != nullptr) *err = verr;
    return false;
  }
  std::ofstream out(path);
  if (!out.good()) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  out << "{\n"
      << "  \"schema\": \"" << kAutotuneSchema << "\",\n"
      << "  \"isa\": \"" << simd::simd_isa_name() << "\",\n"
      << "  \"cpu\": \"" << simd::cpu_model_name() << "\",\n"
      << "  \"width\": " << simd::simd_width() << ",\n"
      << "  \"gemm\": {\"mc\": " << cfg.gemm.mc << ", \"kc\": " << cfg.gemm.kc
      << ", \"mv\": " << cfg.gemm.mv << ", \"nr\": " << cfg.gemm.nr << "},\n"
      << "  \"dtc\": {\"ib\": " << cfg.dtc.ib << "}\n"
      << "}\n";
  out.close();
  if (!out.good()) {
    if (err != nullptr) *err = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::string kernel_config_summary(const KernelConfig& cfg) {
  std::ostringstream os;
  os << "mc=" << cfg.gemm.mc << " kc=" << cfg.gemm.kc
     << " mr=" << cfg.gemm.mv * simd::simd_width() << " nr=" << cfg.gemm.nr
     << " ib=" << cfg.dtc.ib << " (" << cfg.source << ")";
  return os.str();
}

}  // namespace lra
