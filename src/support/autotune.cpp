#include "support/autotune.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/jsonin.hpp"
#include "support/simd.hpp"

namespace lra {
namespace {

// The cache is a machine-written object: two levels of nesting, string and
// integer values only. Anything else is a corrupt cache.
bool well_formed(const obs::JsonValue& obj, int depth) {
  for (const auto& [key, v] : obj.as_object()) {
    std::int64_t i;
    const bool ok = v.is_object() ? depth < 2 && well_formed(v, depth + 1)
                                  : v.is_string() || v.exact_int64(&i);
    if (!ok) return false;
  }
  return true;
}

/// Read `section.key` into `*v` when present; false when present but not an
/// integer that fits in int.
bool int_field(const obs::JsonValue& doc, const char* section, const char* key,
               int* v) {
  const obs::JsonValue* s = doc.find(section);
  const obs::JsonValue* f = s != nullptr ? s->find(key) : nullptr;
  if (f == nullptr) return true;
  std::int64_t i;
  if (!f->exact_int64(&i) || !std::in_range<int>(i)) return false;
  *v = static_cast<int>(i);
  return true;
}

// --- resolution ------------------------------------------------------------

std::mutex g_mutex;
KernelConfig g_config;    // guarded by g_mutex until resolved
bool g_resolved = false;  // guarded by g_mutex

KernelConfig resolve_from_environment() {
  KernelConfig cfg = default_kernel_config();
  const char* env = std::getenv(kAutotuneEnvVar);
  if (env == nullptr) return cfg;
  const std::string path = env;
  std::ifstream probe(path);
  if (!probe.good()) {
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
  const std::string text = ss.str();
  obs::JsonValue doc;
  try {
    // The writer never escapes: a backslash means a foreign or corrupt file.
    if (text.find('\\') != std::string::npos)
      throw std::runtime_error("escape sequences are not supported");
    doc = obs::parse_json(text);
    if (!doc.is_object() || !well_formed(doc, 0))
      throw std::runtime_error("values must be strings, integers or objects "
                               "nested at most two deep");
  } catch (const std::runtime_error& e) {
    if (err != nullptr)
      *err = "not parseable as a flat JSON object (" + std::string(e.what()) +
             ")";
    return false;
  }
  const std::string schema = doc.string_or("schema", "");
  if (schema != kAutotuneSchema) {
    if (err != nullptr) *err = "schema is not " + std::string(kAutotuneSchema);
    return false;
  }
  const std::string isa = doc.string_or("isa", "?");
  if (isa != simd::simd_isa_name()) {
    if (err != nullptr)
      *err = "cache ISA \"" + isa + "\" does not match this build (" +
             simd::simd_isa_name() + ")";
    return false;
  }
  KernelConfig cfg = default_kernel_config();
  const struct {
    const char* section;
    const char* key;
    int* value;
  } fields[] = {{"gemm", "mc", &cfg.gemm.mc},
                {"gemm", "kc", &cfg.gemm.kc},
                {"gemm", "mv", &cfg.gemm.mv},
                {"gemm", "nr", &cfg.gemm.nr},
                {"dtc", "ib", &cfg.dtc.ib}};
  for (const auto& f : fields) {
    if (!int_field(doc, f.section, f.key, f.value)) {
      if (err != nullptr)
        *err = std::string(f.section) + "." + f.key + " is not an int";
      return false;
    }
  }
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
