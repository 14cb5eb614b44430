// bench_diff — the perf-regression gate and the phase-taxonomy lint.
//
// Gate mode compares a fresh bench_kernels run against the committed
// reference, per (kernel, shape, variant) leg, on GFLOP/s:
//
//   ./bench_diff --ref=BENCH_kernels.json --new=fresh.json
//                [--warn=0.10] [--fail=0.25] [--update-ref]
//
// A leg that lost more than --warn of its reference throughput prints a
// warning; more than --fail (or a leg missing from the fresh run) fails the
// process. CI runs this after the kernel perf smoke so a kernel-layer change
// that quietly tanks throughput blocks the merge; the thresholds absorb
// runner noise (hosted runners jitter well inside 10%).
//
// Throughput is only comparable within one ISA class: when both documents
// carry an "isa" header field (bench_kernels/v2) and they disagree — e.g. an
// avx2 reference diffed on a machine whose build fell back to sse2 or scalar
// — the gate warns and SKIPS the comparison (exit 0) instead of failing on
// numbers that were never commensurable. References produced before the isa
// field existed compare as before.
//
// --update-ref copies the fresh run over the reference path after the gate
// (pass or fail), which is how BENCH_kernels.json gets recommitted after an
// intentional kernel change.
//
// Lint mode greps the source tree for PhaseScope annotations and checks
// every literal against the documented taxonomy (obs/prof/phase.hpp,
// ARCHITECTURE.md "The profiling layer"):
//
//   ./bench_diff --lint-phases [--src=DIR]
//
// An undocumented phase name fails; a documented name never annotated is a
// warning (the taxonomy should not rot either way).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonin.hpp"
#include "obs/prof/phase.hpp"
#include "support/cli.hpp"

#ifndef LRA_SOURCE_ROOT
#define LRA_SOURCE_ROOT "."
#endif

namespace {

using lra::obs::JsonValue;

// --- perf gate -------------------------------------------------------------

// (kernel, shape, variant) -> GFLOP/s.
std::map<std::string, double> index_results(const JsonValue& doc,
                                            const std::string& path) {
  const JsonValue* results = doc.find("results");
  if (!results || !results->is_array())
    throw std::runtime_error(path + ": no \"results\" array");
  std::map<std::string, double> out;
  for (const JsonValue& r : results->as_array()) {
    const std::string key = r.string_or("kernel", "?") + " " +
                            r.string_or("shape", "?") + " " +
                            r.string_or("variant", "?");
    out[key] = r.number_or("gflops", 0.0);
  }
  return out;
}

int run_gate(const lra::Cli& cli) {
  const std::string ref_path = cli.get("ref", "");
  const std::string new_path = cli.get("new", "");
  const double warn = cli.get_double("warn", 0.10);
  const double fail = cli.get_double("fail", 0.25);
  const bool update_ref = cli.has("update-ref");
  cli.reject_unread();
  if (ref_path.empty() || new_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff --ref=REF.json --new=NEW.json "
                 "[--warn=0.10] [--fail=0.25] [--update-ref]\n"
                 "       bench_diff --lint-phases [--src=DIR]\n");
    return 2;
  }

  const JsonValue ref_doc = lra::obs::parse_json_file(ref_path);
  const JsonValue new_doc = lra::obs::parse_json_file(new_path);

  // ISA guard: cross-ISA throughput diffs are meaningless, not regressions.
  const std::string ref_isa = ref_doc.string_or("isa", "");
  const std::string new_isa = new_doc.string_or("isa", "");
  if (!ref_isa.empty() && !new_isa.empty() && ref_isa != new_isa) {
    std::fprintf(stderr,
                 "WARN isa mismatch: reference is %s, this run is %s — "
                 "skipping the perf gate (throughput not comparable)\n",
                 ref_isa.c_str(), new_isa.c_str());
    if (update_ref) {
      std::fprintf(stderr,
                   "WARN --update-ref ignored on isa mismatch (would replace "
                   "the %s reference with %s numbers)\n",
                   ref_isa.c_str(), new_isa.c_str());
    }
    return 0;
  }

  const auto ref = index_results(ref_doc, ref_path);
  const auto fresh = index_results(new_doc, new_path);

  int warned = 0, failed = 0;
  for (const auto& [key, ref_gflops] : ref) {
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      std::fprintf(stderr, "FAIL %-40s missing from %s\n", key.c_str(),
                   new_path.c_str());
      ++failed;
      continue;
    }
    if (ref_gflops <= 0.0) continue;  // reference leg carries no signal
    const double drop = 1.0 - it->second / ref_gflops;
    if (drop > fail) {
      std::fprintf(stderr, "FAIL %-40s %8.2f -> %8.2f GFLOP/s (-%.0f%%)\n",
                   key.c_str(), ref_gflops, it->second, 100.0 * drop);
      ++failed;
    } else if (drop > warn) {
      std::fprintf(stderr, "WARN %-40s %8.2f -> %8.2f GFLOP/s (-%.0f%%)\n",
                   key.c_str(), ref_gflops, it->second, 100.0 * drop);
      ++warned;
    }
  }
  std::printf("bench_diff: %zu legs, %d warning(s), %d failure(s) "
              "(warn > %.0f%%, fail > %.0f%%)\n",
              ref.size(), warned, failed, 100.0 * warn, 100.0 * fail);
  if (update_ref) {
    std::error_code ec;
    std::filesystem::copy_file(new_path, ref_path,
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    if (ec) {
      std::fprintf(stderr, "bench_diff: --update-ref failed: %s\n",
                   ec.message().c_str());
      return 2;
    }
    std::printf("bench_diff: reference updated: %s -> %s\n", new_path.c_str(),
                ref_path.c_str());
  }
  return failed > 0 ? 1 : 0;
}

// --- phase lint ------------------------------------------------------------

// Every string literal passed to a PhaseScope constructor in `text`.
// Annotations are written on one line (clang-format keeps them there), so a
// line scan for `PhaseScope ...(..., "name")` is enough — no regex engine.
// Comment lines mentioning PhaseScope in prose are skipped.
void collect_phase_literals(const std::string& text, const std::string& file,
                            std::map<std::string, std::string>* uses) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    // Drop trailing // comments; phase literals never contain slashes.
    const std::size_t slash = line.find("//");
    if (slash != std::string::npos) line.erase(slash);
    const std::size_t pos = line.find("PhaseScope");
    if (pos == std::string::npos) continue;
    const std::size_t paren = line.find('(', pos + 10);
    if (paren == std::string::npos) continue;
    const std::size_t open = line.find('"', paren);
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    (*uses)[line.substr(open + 1, close - open - 1)] = file;
  }
}

int run_lint(const lra::Cli& cli) {
  namespace fs = std::filesystem;
  const std::string root =
      cli.get("src", std::string(LRA_SOURCE_ROOT) + "/src");
  cli.reject_unread();
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "bench_diff: --src=%s is not a directory\n",
                 root.c_str());
    return 2;
  }

  std::map<std::string, std::string> uses;  // phase name -> first file
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    // The taxonomy header itself holds the documented list, not annotations.
    if (entry.path().filename() == "phase.hpp") continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    collect_phase_literals(ss.str(), entry.path().string(), &uses);
  }

  int failed = 0;
  std::set<std::string> used;
  for (const auto& [name, file] : uses) {
    used.insert(name);
    if (!lra::obs::prof::is_documented_phase(name)) {
      std::fprintf(stderr,
                   "FAIL undocumented phase \"%s\" (%s) — add it to "
                   "kPhaseTaxonomy in obs/prof/phase.hpp and to "
                   "ARCHITECTURE.md\n",
                   name.c_str(), file.c_str());
      ++failed;
    }
  }
  int unused = 0;
  for (const std::string_view name : lra::obs::prof::kPhaseTaxonomy) {
    if (!used.count(std::string(name))) {
      std::fprintf(stderr, "WARN documented phase \"%.*s\" never annotated\n",
                   static_cast<int>(name.size()), name.data());
      ++unused;
    }
  }
  std::printf("phase lint: %zu annotated name(s) under %s, %d undocumented, "
              "%d documented-but-unused\n",
              uses.size(), root.c_str(), failed, unused);
  return failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const lra::Cli cli(argc, argv);
  try {
    return cli.has("lint-phases") ? run_lint(cli) : run_gate(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
