// bench_solve — time-to-tau benchmark: one process runs one workload, checks
// every leg against ground truth, and (in a separate --traced run) attributes
// the time to the library's layers.
//
//   bench_solve --workload=NAME --seed=S [--seconds=X] [--reps=3]
//               [--threads=T] [--traced] [--scale=F] [--workdir=DIR]
//               [--out=F.json]
//
// Workloads (README.md says why each exists):
//   randomized_seq     lra::approximate: RandQB_EI (p=1, k=32) on M4' and M2',
//                      RandUBV on M3', all at tau = 1e-3
//   deterministic_seq  lra::approximate: LU_CRTP on M1' and M6' at 1e-3,
//                      ILUT_CRTP on M2' at 1e-2
//   small_suite        every gen/suite matrix, Method::kAuto, k=8, tau=1e-2
//   distributed_np4    np=4 simulated ranks: randqb_ei_dist on M4',
//                      lu_crtp_dist on M1' and its ILUT variant on M2' (1e-3)
//
// A run sets its inputs up at least three times (generate, write
// Matrix Market, read back; the library only ever sees the matrices read
// back), runs one untimed warm-up pass, then timed passes until both --reps
// passes and --seconds have elapsed. The legs of a pass run in an order that
// rotates by one from pass to pass, so machine drift hits every leg alike.
// --seed drives the preset and sketch seeds (the suite population is fixed).
//
// Ground truth, checked on the warm-up results before the timed window:
//   * the exact relative error ||A - HW||_F / ||A||_F is below tau;
//   * K >= K*(tau), the minimal rank from the generator's exact sigma (or a
//     dense SVD for the suite matrices). A result with error < tau but
//     K < K* is impossible and fails the run;
//   * every timed pass (and, when traced, the one-thread pass) reproduces
//     the warm-up factors bit for bit.
//
// Output: "# key value" provenance lines, one "name value unit" line per
// metric, the same data as JSON in --out (re-read through obs::jsonin as a
// self-check), and as the last line {"correct", "attempted", "failed",
// "metrics"}. The untraced run reports the end-to-end metrics, the --traced
// run the per-layer ones. Exit status: 0 when every check passed, 3 when a
// correctness check failed, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/driver.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "dense/svd.hpp"
#include "gen/presets.hpp"
#include "gen/suite.hpp"
#include "obs/json.hpp"
#include "obs/jsonin.hpp"
#include "obs/prof/phase.hpp"
#include "obs/prof/profile.hpp"
#include "par/pool.hpp"
#include "qrtp/tournament.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/ops.hpp"
#include "support/autotune.hpp"
#include "support/cli.hpp"
#include "support/kernel_variant.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

#ifndef LRA_BENCH_BUILD_TYPE
#define LRA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lra;

// ---------------------------------------------------------------- workloads

enum class Engine { kSeq, kDistQb, kDistLu, kDistIlut };

struct LegSpec {
  std::string label;  // preset ("M1".."M6"); empty for suite legs
  Engine engine = Engine::kSeq;
  Method method = Method::kAuto;  // kSeq only
  double tau = 1e-3;
  Index k = 32;
};

struct WorkloadSpec {
  std::string name;
  // Default preset scale (suite: multiplier on matrices per family). Chosen
  // so that one pass takes 1-3 s on a 4-core x86 box, a whole run fits the
  // benchmark's time budget, and each workload keeps the regime it exists
  // for (below 0.7, randomized_seq is no longer GEMM-dominated); --scale
  // overrides it.
  double scale = 1.0;
  bool suite = false;
  std::vector<LegSpec> legs;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = {
      {"randomized_seq", 0.7, false,
       {{"M4", Engine::kSeq, Method::kRandQbEi, 1e-3, 32},
        {"M2", Engine::kSeq, Method::kRandQbEi, 1e-3, 32},
        {"M3", Engine::kSeq, Method::kRandUbv, 1e-3, 32}}},
      {"deterministic_seq", 0.5, false,
       {{"M1", Engine::kSeq, Method::kLuCrtp, 1e-3, 32},
        {"M6", Engine::kSeq, Method::kLuCrtp, 1e-3, 32},
        {"M2", Engine::kSeq, Method::kIlutCrtp, 1e-2, 32}}},
      {"small_suite", 1.0, true,
       {{"", Engine::kSeq, Method::kAuto, 1e-2, 8}}},
      {"distributed_np4", 0.4, false,
       {{"M4", Engine::kDistQb, Method::kRandQbEi, 1e-3, 32},
        {"M1", Engine::kDistLu, Method::kLuCrtp, 1e-3, 32},
        {"M2", Engine::kDistIlut, Method::kIlutCrtp, 1e-3, 32}}},
  };
  return w;
}

const char* engine_name(const LegSpec& l) {
  switch (l.engine) {
    case Engine::kSeq:
      return to_string(l.method);
    case Engine::kDistQb:
      return "randqb_ei_dist";
    case Engine::kDistLu:
      return "lu_crtp_dist";
    case Engine::kDistIlut:
      return "ilut_crtp_dist";
  }
  return "?";
}

// -------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - m));
  return median(dev);
}

// ------------------------------------------------------------------- spans

// The bench's own spans (name, layer, start, end, parent) around each solve,
// profile replay, Matrix Market I/O and verification call. Kept in memory
// and written as a Chrome trace at exit; recording is off in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int open(std::string name, const char* layer) {
    if (!on_) return 0;
    spans_.push_back({std::move(name), layer, clock_.seconds(), 0.0,
                      stack_.empty() ? 0 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()));
    return stack_.back();
  }
  void close(int id) {
    if (id == 0) return;
    spans_[static_cast<std::size_t>(id - 1)].end = clock_.seconds();
    stack_.pop_back();
  }
  std::size_t size() const { return spans_.size(); }

  // `meta` is a JSON object (the run's provenance), stored as "otherData".
  void write_chrome(const std::string& path, const std::string& meta) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      obs::JsonObj args;
      args.field("id", static_cast<long long>(i + 1))
          .field("parent", static_cast<long long>(s.parent));
      obs::JsonObj e;
      e.field("name", s.name)
          .field("cat", s.layer)
          .field("ph", "X")
          .field("pid", 1)
          .field("tid", 1)
          .field("ts", s.begin * 1e6)
          .field("dur", (s.end - s.begin) * 1e6)
          .raw("args", args.str());
      os << (i ? ",\n" : "\n") << e.str();
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    double begin, end;
    int parent;
  };
  bool on_;
  Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, const char* layer)
      : log_(log), id_(log.open(std::move(name), layer)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ------------------------------------------------------------------ inputs

struct Input {
  std::string name;  // "M4'/randqb_ei", "suite/banded_17/auto"
  const LegSpec* leg = nullptr;
  CscMatrix a;
  std::vector<double> sigma;  // exact spectrum; empty -> dense SVD at verify
};

struct Setup {
  std::vector<Input> inputs;
  double make_preset_s = 0.0, make_suite_s = 0.0, write_s = 0.0, read_s = 0.0;
  double total_s = 0.0;
  bool roundtrip_ok = true;
};

bool same_matrix(const CscMatrix& x, const CscMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         x.colptr() == y.colptr() && x.rowind() == y.rowind() &&
         x.values() == y.values();
}

// Generate the workload's matrices, write them to Matrix Market and read
// them back; the read-back copies are what the solvers get.
Setup make_inputs(const WorkloadSpec& w, double scale, std::uint64_t seed,
                  const std::string& workdir, SpanLog& spans) {
  Setup s;
  Stopwatch total;
  std::vector<Input> gen;
  if (w.suite) {
    SpanScope sp(spans, "make_suite", "gen");
    Stopwatch t;
    // The suite stands in for a fixed matrix collection (the paper's 197
    // SJSU matrices), so its population keeps the library's default seed;
    // a per-seed population changes the summed work by ~20% from seed to
    // seed. --seed still drives the sketches.
    SuiteOptions so;
    so.per_family = std::max(1, static_cast<int>(std::lround(25 * scale)));
    for (SuiteMatrix& m : make_suite(so))
      gen.push_back({"suite/" + m.name + "/auto", &w.legs[0], std::move(m.a), {}});
    s.make_suite_s = t.seconds();
  } else {
    Stopwatch t;
    for (std::size_t i = 0; i < w.legs.size(); ++i) {
      const LegSpec& l = w.legs[i];
      SpanScope sp(spans, "make_preset:" + l.label, "gen");
      TestMatrix m = make_preset(l.label, scale, CounterRng(seed, 10 + i).next());
      gen.push_back({l.label + "'/" + engine_name(l), &l, std::move(m.a),
                     std::move(m.sigma)});
    }
    s.make_preset_s = t.seconds();
  }

  std::vector<std::string> paths;
  {
    SpanScope sp(spans, "write_mm", "sparse.io_mm");
    Stopwatch t;
    for (std::size_t i = 0; i < gen.size(); ++i) {
      paths.push_back(workdir + "/" + w.name + "_" + std::to_string(i) + ".mtx");
      write_matrix_market(gen[i].a, paths.back());
    }
    s.write_s = t.seconds();
  }
  {
    SpanScope sp(spans, "read_mm", "sparse.io_mm");
    Stopwatch t;
    for (std::size_t i = 0; i < gen.size(); ++i)
      s.inputs.push_back({gen[i].name, gen[i].leg, read_matrix_market(paths[i]),
                          std::move(gen[i].sigma)});
    s.read_s = t.seconds();
  }
  s.total_s = total.seconds();
  for (std::size_t i = 0; i < gen.size(); ++i)
    s.roundtrip_ok &= same_matrix(s.inputs[i].a, gen[i].a);
  for (const std::string& p : paths) std::filesystem::remove(p);
  return s;
}

// ------------------------------------------------------------------ solves

// One solve's full result; exactly one member is engaged.
struct Solved {
  std::optional<LowRankApprox> seq;
  std::optional<DistRandQbResult> dqb;
  std::optional<DistLuResult> dlu;
};

template <typename F>
auto with_result(const Solved& s, F&& f) {
  if (s.seq) {
    if (const auto* r = s.seq->as_randqb()) return f(*r);
    if (const auto* r = s.seq->as_lu()) return f(*r);
    return f(*s.seq->as_ubv());
  }
  if (s.dqb) return f(s.dqb->result);
  return f(s.dlu->result);
}

Solved solve(const Input& in, std::uint64_t sketch_seed, int np, bool trace) {
  const LegSpec& l = *in.leg;
  Solved s;
  SimOptions sim;
  sim.collect_trace = trace;
  switch (l.engine) {
    case Engine::kSeq: {
      ApproxOptions o;
      o.method = l.method;
      o.tau = l.tau;
      o.block_size = l.k;
      o.power = 1;
      o.seed = sketch_seed;
      s.seq = approximate(in.a, o);
      break;
    }
    case Engine::kDistQb: {
      RandQbOptions o;
      o.block_size = l.k;
      o.tau = l.tau;
      o.power = 1;
      o.seed = sketch_seed;
      s.dqb = randqb_ei_dist(in.a, o, np, sim);
      break;
    }
    case Engine::kDistLu:
    case Engine::kDistIlut: {
      // As `lra_cli approx --method=ilut --np=N` runs it.
      LuCrtpOptions o;
      o.block_size = l.k;
      o.tau = l.tau;
      if (l.engine == Engine::kDistIlut) o.threshold = ThresholdMode::kIlut;
      s.dlu = lu_crtp_dist(in.a, o, np, sim);
      break;
    }
  }
  return s;
}

Index factor_values(const RandQbResult& r) { return r.q.size() + r.b.size(); }
Index factor_values(const LuCrtpResult& r) { return r.l.nnz() + r.u.nnz(); }
Index factor_values(const RandUbvResult& r) {
  return r.u.size() + r.v.size() + r.b.size();
}

double exact_error(const CscMatrix& a, const RandQbResult& r) {
  return randqb_exact_error(a, r);
}
double exact_error(const CscMatrix& a, const LuCrtpResult& r) {
  return lu_crtp_exact_error(a, r);
}
double exact_error(const CscMatrix& a, const RandUbvResult& r) {
  return randubv_exact_error(a, r);
}

// FNV-1a over the factor bits: equal hashes across passes and thread counts
// witness the bitwise determinism the simd default promises.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add_bytes(v.data(), v.size() * sizeof(T));
  }
  void add(const Matrix& m) {
    add_bytes(m.data(), static_cast<std::size_t>(m.size()) * sizeof(double));
  }
  void add(const CscMatrix& m) {
    add(m.colptr());
    add(m.rowind());
    add(m.values());
  }
};

std::uint64_t factor_hash(const RandQbResult& r) {
  Fnv f;
  f.add(r.q);
  f.add(r.b);
  return f.h;
}
std::uint64_t factor_hash(const LuCrtpResult& r) {
  Fnv f;
  f.add(r.l);
  f.add(r.u);
  f.add(r.row_perm);
  f.add(r.col_perm);
  return f.h;
}
std::uint64_t factor_hash(const RandUbvResult& r) {
  Fnv f;
  f.add(r.u);
  f.add(r.b);
  f.add(r.v);
  return f.h;
}

// What a pass keeps of one solve.
struct Outcome {
  double wall = 0.0;  // host seconds of the solve call alone
  std::uint64_t hash = 0;
  Index rank = 0, iterations = 0, factor_values = 0;
  std::vector<double> iter_s;  // per-iteration seconds (virtual for _dist)
};

struct Pass {
  double wall = 0.0;  // sum of the legs' solve walls
  std::vector<Outcome> legs;  // in input order
  std::map<std::string, double> layer;  // traced passes only
  bool consistent = true;  // traced: pool regions + profiles reconcile
};

const char* const kPoolLabels[] = {"gemm",    "tsqr",   "spmm",    "spmm_t",
                                   "schur",   "spgemm", "lu_solve"};

std::string phase_key(std::string_view phase) {
  return phase.empty() ? "unscoped" : std::string(phase);
}

// Fold a traced distributed solve into the pass's simcomm.* counters.
// Returns false when the profile is not conserved, the what-if ordering
// fails (both checked by bench::report_profile), or the comm counters are
// inconsistent across ranks.
template <typename DistResult>
bool add_simcomm(std::map<std::string, double>& layer, const DistResult& d,
                 const std::string& name, SpanLog& spans) {
  SpanScope sp(spans, "profile:" + name, "obs.prof");
  const obs::prof::Profile p = obs::prof::build_profile(d.trace);
  for (const auto& [phase, cost] : p.phases) {
    layer["simcomm.compute_s." + phase_key(phase)] += cost.compute;
    layer["simcomm.comm_s." + phase_key(phase)] += cost.comm;
  }
  layer["simcomm.makespan_s"] += d.virtual_seconds;
  layer["simcomm.idle_s"] += p.idle;
  layer["simcomm.overlap_s"] += p.overlap;
  layer["simcomm.critical_path_s"] += p.crit_length;
  layer["simcomm.alpha0_s"] += p.whatif.alpha0;
  layer["simcomm.beta0_s"] += p.whatif.beta0;
  layer["simcomm.compute_only_s"] += p.whatif.compute_only;
  layer["simcomm.msgs"] += static_cast<double>(d.comm.total_msgs());
  layer["simcomm.bytes"] += static_cast<double>(d.comm.total_bytes());
  for (const auto& c : d.comm.per_rank) layer["simcomm.coll_s"] += c.coll_seconds;
  return bench::report_profile(nullptr, d.trace, name) &&
         d.comm.check_invariants().empty();
}

struct RunConfig {
  std::uint64_t sketch_seed = 0;
  int np = 4;
};

// Run every input once, starting at leg `rot` (mod the leg count). With
// `traced`, record spans, pool-region seconds and distributed profiles into
// Pass::layer; with `keep`, hand back the full results (warm-up pass).
Pass run_pass(const std::vector<Input>& inputs, std::size_t rot, bool traced,
              const RunConfig& cfg, SpanLog& spans,
              std::vector<Solved>* keep = nullptr) {
  Pass pass;
  pass.legs.resize(inputs.size());
  if (keep) keep->resize(inputs.size());
  if (traced) ThreadPool::global().reset_stats();
  SpanScope pass_span(spans, traced ? "pass:traced" : "pass", "bench");
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const std::size_t i = (j + rot) % inputs.size();
    const Input& in = inputs[i];
    Solved s;
    Stopwatch clock;
    {
      SpanScope sp(spans, "solve:" + in.name,
                   in.leg->engine == Engine::kSeq ? "core" : "par.simcomm");
      s = solve(in, cfg.sketch_seed, cfg.np, traced);
    }
    Outcome& o = pass.legs[i];
    o.wall = clock.seconds();
    pass.wall += o.wall;
    with_result(s, [&](const auto& r) {
      o.hash = factor_hash(r);
      o.rank = r.rank;
      o.iterations = r.iterations;
      o.factor_values = factor_values(r);
      double prev = 0.0;
      for (const obs::IterationSample& smp : r.telemetry) {
        o.iter_s.push_back(smp.time_seconds - prev);
        prev = smp.time_seconds;
      }
      return 0;
    });
    if (traced && s.dqb)
      pass.consistent &= add_simcomm(pass.layer, *s.dqb, in.name, spans);
    if (traced && s.dlu)
      pass.consistent &= add_simcomm(pass.layer, *s.dlu, in.name, spans);
    if (keep) (*keep)[i] = std::move(s);
  }
  if (!traced) return pass;

  // Pool regions run only inside the solve calls timed above, so their sum
  // can never exceed the pass wall: the remainder is time outside every
  // region (QR_TP tournaments, panel code, driver dispatch).
  double regions = 0.0, calls = 0.0;
  for (const auto& [label, st] : ThreadPool::global().kernel_stats()) {
    const bool known = std::find(std::begin(kPoolLabels), std::end(kPoolLabels),
                                 label) != std::end(kPoolLabels);
    pass.layer[known ? "pool." + label + "_s" : "pool.other_s"] += st.wall_seconds;
    regions += st.wall_seconds;
    calls += static_cast<double>(st.calls);
  }
  pass.layer["pool.outside_s"] = pass.wall - regions;
  pass.layer["pool.calls"] = calls;
  pass.consistent &= regions <= pass.wall * (1.0 + 1e-9);

  std::vector<double> iters, last;
  double its = 0.0, rank = 0.0;
  for (const Outcome& o : pass.legs) {
    iters.insert(iters.end(), o.iter_s.begin(), o.iter_s.end());
    if (!o.iter_s.empty()) last.push_back(o.iter_s.back());
    its += static_cast<double>(o.iterations);
    rank += static_cast<double>(o.rank);
  }
  pass.layer["core.iterations"] = its;
  pass.layer["core.rank"] = rank;
  pass.layer["core.iter_s_p50"] = median(iters);
  pass.layer["core.iter_s_last"] = median(last);
  return pass;
}

// ------------------------------------------------------------ verification

struct Verdict {
  double err_rel = 0.0;
  Index rank = 0, kstar = 0;
  bool ok = false;
  bool impossible = false;
};

Verdict verify(const Input& in, const Solved& s, SpanLog& spans) {
  SpanScope sp(spans, "verify:" + in.name, "verify");
  Verdict v;
  const double anorm = in.a.frobenius_norm();
  const double tau = in.leg->tau;
  Status status = Status::kMaxIterations;
  with_result(s, [&](const auto& r) {
    v.err_rel = exact_error(in.a, r) / anorm;
    v.rank = r.rank;
    status = r.status;
    return 0;
  });
  v.kstar = min_rank_for_tolerance(
      in.sigma.empty() ? singular_values(in.a.to_dense()) : in.sigma, tau);
  v.impossible = v.err_rel < tau && v.rank < v.kstar;
  v.ok = status == Status::kConverged && v.err_rel < tau && v.rank >= v.kstar;
  return v;
}

// ------------------------------------------------------- direct kernel calls

struct Timed {
  double median = 0.0, mad = 0.0;
};

// Median and MAD of `reps` timed calls after one untimed warm-up call.
template <typename Fn>
Timed time_calls(int reps, Fn&& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Stopwatch clock;
    fn();
    t.push_back(clock.seconds());
  }
  return {median(t), mad(t)};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double mad = -1.0;  // < 0: not a repeated measurement
};

// The kernels a solve spends its pool regions in, timed on the shapes of the
// workload's largest matrix: A (m x n, nnz), block k, accumulated rank K.
void kernel_layer(std::vector<Metric>& out, const CscMatrix& a, Index k,
                  Index big_k, std::uint64_t seed) {
  const Index m = a.rows(), n = a.cols();
  const double nnz = static_cast<double>(a.nnz());
  const Matrix omega = Matrix::gaussian(n, k, seed, 1);
  const Matrix qk = Matrix::gaussian(m, k, seed, 2);
  const Matrix qbig = Matrix::gaussian(m, big_k, seed, 3);
  const Matrix bbig = Matrix::gaussian(big_k, n, seed, 4);
  Matrix y, z, bw, proj;
  constexpr int kReps = 11;
  auto rate = [&](const char* name, double work, Timed t, const char* unit) {
    out.push_back({name, work / t.median * 1e-9, unit,
                   work * t.mad / (t.median * t.median) * 1e-9});
  };
  // Computed bytes moved (the bench_kernels model for the simd variant): one
  // pass over A's values+indices per 4 output columns, one read of the dense
  // operand, a read+write of the result.
  const double apass = 16.0 * nnz * std::ceil(static_cast<double>(k) / 4.0);

  const Timed spmm = time_calls(kReps, [&] { spmm_into(y, a, omega); });
  rate("sparse.ops.spmm_gflops", 2.0 * nnz * k, spmm, "GFLOP/s");
  rate("sparse.ops.spmm_gbps", apass + 8.0 * (n * k + 2.0 * m * k), spmm, "GB/s");
  const Timed spmm_t = time_calls(kReps, [&] { spmm_t_into(z, a, qk); });
  rate("sparse.ops.spmm_t_gflops", 2.0 * nnz * k, spmm_t, "GFLOP/s");
  rate("sparse.ops.spmm_t_gbps", apass + 8.0 * (m * k + 2.0 * n * k), spmm_t,
       "GB/s");
  rate("dense.blas.matmul_gflops", 2.0 * big_k * n * k,
       time_calls(kReps, [&] { matmul_into(bw, bbig, omega); }), "GFLOP/s");
  rate("dense.blas.matmul_tn_gflops", 2.0 * m * big_k * k,
       time_calls(kReps, [&] { matmul_tn_into(proj, qbig, qk); }), "GFLOP/s");
  const Timed orth_t = time_calls(kReps, [&] { (void)orth(y); });
  out.push_back({"dense.qr.orth_s", orth_t.median, "s", orth_t.mad});
  const Timed qrtp = time_calls(kReps, [&] { (void)qr_tp_select(a, k); });
  out.push_back({"qrtp.qr_tp_select_s", qrtp.median, "s", qrtp.mad});
}

// ------------------------------------------------------------ metric names

// Every per-layer metric, with its unit. Layers a workload does not exercise
// report 0 (e.g. simcomm.* on the sequential workloads).
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v;
  for (const char* l : kPoolLabels) v.push_back({std::string("pool.") + l + "_s", "s"});
  v.insert(v.end(), {{"pool.other_s", "s"},
                     {"pool.outside_s", "s"},
                     {"pool.calls", "count"},
                     {"pool.speedup_1t", "ratio"},
                     {"dense.blas.matmul_gflops", "GFLOP/s"},
                     {"dense.blas.matmul_tn_gflops", "GFLOP/s"},
                     {"dense.qr.orth_s", "s"},
                     {"sparse.ops.spmm_gflops", "GFLOP/s"},
                     {"sparse.ops.spmm_gbps", "GB/s"},
                     {"sparse.ops.spmm_t_gflops", "GFLOP/s"},
                     {"sparse.ops.spmm_t_gbps", "GB/s"},
                     {"qrtp.qr_tp_select_s", "s"},
                     {"core.iterations", "count"},
                     {"core.rank", "count"},
                     {"core.factor_per_nnz", "ratio"},
                     {"core.iter_s_p50", "s"},
                     {"core.iter_s_last", "s"},
                     {"core.verify_s", "s"},
                     {"gen.make_preset_s", "s"},
                     {"gen.make_suite_s", "s"},
                     {"sparse.io_mm.read_s", "s"},
                     {"sparse.io_mm.write_s", "s"},
                     {"simcomm.makespan_s", "s"}});
  for (const std::string_view ph : obs::prof::kPhaseTaxonomy)
    v.push_back({"simcomm.compute_s." + std::string(ph), "s"});
  v.push_back({"simcomm.compute_s.unscoped", "s"});
  for (const std::string_view ph : obs::prof::kPhaseTaxonomy)
    v.push_back({"simcomm.comm_s." + std::string(ph), "s"});
  v.insert(v.end(), {{"simcomm.comm_s.unscoped", "s"},
                     {"simcomm.idle_s", "s"},
                     {"simcomm.overlap_s", "s"},
                     {"simcomm.critical_path_s", "s"},
                     {"simcomm.alpha0_s", "s"},
                     {"simcomm.beta0_s", "s"},
                     {"simcomm.compute_only_s", "s"},
                     {"simcomm.msgs", "count"},
                     {"simcomm.bytes", "bytes"},
                     {"simcomm.coll_s", "s"},
                     {"obs.trace_overhead", "ratio"},
                     {"support.workspace.high_water_mb", "MB"},
                     {"support.workspace.grows", "count"}});
  return v;
}

// {"name": {"value": v, "unit": u[, "mad": d]}, ...}
std::string metrics_json(const std::vector<Metric>& ms, bool with_mad) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    obs::JsonObj m;
    m.field("value", ms[i].value).field("unit", ms[i].unit);
    if (with_mad && ms[i].mad >= 0.0) m.field("mad", ms[i].mad);
    s += (i ? ",\"" : "\"") + obs::json_escape(ms[i].name) + "\":" + m.str();
  }
  return s + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage(const char* msg) {
  std::fprintf(stderr, "bench_solve: %s\n", msg);
  std::fprintf(stderr,
               "usage: bench_solve --workload=NAME --seed=S [--seconds=X] "
               "[--reps=3] [--threads=T] [--traced] [--scale=F] "
               "[--workdir=DIR] [--out=F.json]\nworkloads:");
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Cli> parsed;
  try {
    parsed.emplace(argc, argv);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const Cli& cli = *parsed;
  const WorkloadSpec* wl = nullptr;
  for (const WorkloadSpec& w : workloads())
    if (w.name == cli.get("workload", "")) wl = &w;
  if (!wl) return usage("missing or unknown --workload");
  if (!cli.has("seed")) return usage("missing --seed");

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  const double seconds = cli.get_double("seconds", 0.0);
  const int reps = std::max(1, static_cast<int>(cli.get_int("reps", 3)));
  const bool traced = cli.get_bool("traced", false);
  const double scale = cli.get_double("scale", wl->scale);
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = static_cast<int>(cli.get_int("threads", std::min(4, nproc)));
  if (threads < 1 || threads > nproc) return usage("--threads must be in [1, nproc]");
  const std::string workdir = cli.get("workdir", "bench_solve_work");
  const std::string out_path = cli.get("out", workdir + "/bench_solve_" + wl->name + ".json");
  const std::string trace_path = workdir + "/bench_solve_" + wl->name + ".trace.json";
  std::filesystem::create_directories(workdir);

  ThreadPool::global().set_num_threads(threads);
  RunConfig cfg;
  cfg.sketch_seed = CounterRng(seed, 3).next();
  cfg.np = std::min(4, nproc);
  SpanLog spans(traced);

  // Provenance: every value comes from a public getter or the command line.
  const std::vector<std::pair<std::string, std::string>> prov = {
      {"schema", "bench_solve/v1"},
      {"workload", wl->name},
      {"traced", traced ? "1" : "0"},
      {"seed", std::to_string(seed)},
      {"scale", std::to_string(scale)},
      {"reps", std::to_string(reps)},
      {"seconds", std::to_string(seconds)},
      {"kernel_variant", to_string(kernel_variant())},
      {"isa", simd::simd_isa_name()},
      {"simd_width", std::to_string(simd::simd_width())},
      {"fma", simd::simd_has_fma() ? "1" : "0"},
      {"autotune", kernel_config_summary(kernel_config())},
      {"pool_threads", std::to_string(ThreadPool::global().num_threads())},
      {"nproc", std::to_string(nproc)},
      {"np", std::to_string(cfg.np)},
      {"build_type", LRA_BENCH_BUILD_TYPE},
      {"cpu", simd::cpu_model_name()},
  };
  for (const auto& [k, v] : prov) std::printf("# %s %s\n", k.c_str(), v.c_str());

  // --- set-up: three times before the window, then once more after
  // a timed pass whenever set-up has taken under a tenth of the window so
  // far. Spread out like this the reps sample the whole run, not one burst
  // of host load (a preset set-up takes ~0.1 s). setup_s is the fastest rep;
  // every rep must rebuild exactly the inputs of the first.
  std::vector<double> setup_t, preset_t, suite_t, write_t, read_t;
  std::vector<Input> inputs;
  bool roundtrip_ok = true, inputs_stable = true;
  auto set_up = [&] {
    Setup s = make_inputs(*wl, scale, seed, workdir, spans);
    setup_t.push_back(s.total_s);
    preset_t.push_back(s.make_preset_s);
    suite_t.push_back(s.make_suite_s);
    write_t.push_back(s.write_s);
    read_t.push_back(s.read_s);
    roundtrip_ok &= s.roundtrip_ok;
    if (inputs.empty()) {
      inputs = std::move(s.inputs);
      return;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
      inputs_stable &= same_matrix(inputs[i].a, s.inputs[i].a);
  };
  for (int r = 0; r < 3; ++r) set_up();
  long long nnz_total = 0;
  for (const Input& in : inputs) nnz_total += in.a.nnz();
  std::printf("# inputs %zu matrices, %lld nnz\n", inputs.size(), nnz_total);
  std::fflush(stdout);

  // --- warm-up pass, checked against ground truth before the timed window;
  // its factors are released before timing starts (only the hashes stay).
  std::vector<Verdict> verdicts;
  double verify_s = 0.0;
  const Pass warm = [&] {
    std::vector<Solved> results;
    Pass p = run_pass(inputs, 0, false, cfg, spans, &results);
    Stopwatch vclock;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      verdicts.push_back(verify(inputs[i], results[i], spans));
    verify_s = vclock.seconds();
    return p;
  }();

  // --- the timed window.
  std::vector<Pass> plain, tpass;
  std::size_t rot = 1;
  double setup_in_window = 0.0;
  Stopwatch window;
  while (static_cast<int>(plain.size()) < reps ||
         (traced && static_cast<int>(tpass.size()) < reps) ||
         window.seconds() < seconds) {
    plain.push_back(run_pass(inputs, rot++, false, cfg, spans));
    if (traced) tpass.push_back(run_pass(inputs, rot++, true, cfg, spans));
    if (setup_in_window < 0.1 * window.seconds()) {
      Stopwatch t;
      set_up();
      setup_in_window += t.seconds();
    }
  }
  std::optional<Pass> one_thread;
  if (traced) {
    ThreadPool::global().set_num_threads(1);
    one_thread = run_pass(inputs, 0, true, cfg, spans);
    ThreadPool::global().set_num_threads(threads);
  }

  long long attempted = 0, failed = 0;
  bool stable = true, impossible = false, consistent = true;
  std::vector<const Pass*> checked;
  for (const Pass& p : plain) checked.push_back(&p);
  for (const Pass& p : tpass) checked.push_back(&p);
  if (one_thread) checked.push_back(&*one_thread);
  for (const Pass* p : checked) {
    consistent &= p->consistent;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool same = p->legs[i].hash == warm.legs[i].hash;
      stable &= same;
      ++attempted;
      if (!same || !verdicts[i].ok) ++failed;
    }
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Verdict& v = verdicts[i];
    impossible |= v.impossible;
    if (!v.ok || inputs.size() <= 8)
      std::printf("# leg %s K=%ld K*=%ld err=%.3e tau=%.0e %s%s\n",
                  inputs[i].name.c_str(), static_cast<long>(v.rank),
                  static_cast<long>(v.kstar), v.err_rel, inputs[i].leg->tau,
                  v.ok ? "ok" : "FAIL", v.impossible ? " IMPOSSIBLE" : "");
  }
  bool correct = failed == 0 && stable && !impossible && consistent && roundtrip_ok &&
                 inputs_stable;
  if (!stable) std::printf("# FAIL factor hash changed across passes\n");
  if (!roundtrip_ok) std::printf("# FAIL Matrix Market round trip changed A\n");
  if (!inputs_stable) std::printf("# FAIL set-up rebuilt different inputs\n");
  if (!consistent) std::printf("# FAIL traced layers do not reconcile\n");

  // --- metrics.
  std::vector<Metric> metrics;
  if (!traced) {
    // Other tenants slow one CPU at a time by up to ~1.7x, in bursts that
    // cover a varying share of a run, so medians over passes or set-ups do
    // not repeat from run to run; each leg's fastest solve and the fastest
    // set-up do (see README.md, "Noise").
    std::vector<double> pass_walls;
    std::vector<double> best_ms(inputs.size(), std::numeric_limits<double>::infinity());
    for (const Pass& p : plain) {
      pass_walls.push_back(p.wall);
      for (std::size_t i = 0; i < inputs.size(); ++i)
        best_ms[i] = std::min(best_ms[i], p.legs[i].wall * 1e3);
    }
    double log_ratio = 0.0;
    for (const Verdict& v : verdicts)
      log_ratio += std::log(static_cast<double>(v.rank) /
                            static_cast<double>(std::max<Index>(1, v.kstar)));
    double best_sum_s = 0.0;
    for (const double b : best_ms) best_sum_s += b * 1e-3;
    metrics = {
        {"setup_s", fastest(setup_t), "s"},
        {"time_to_tau_s", best_sum_s, "s"},
        {"solve_ms_p50", median(best_ms), "ms"},
        {"solve_ms_p95", percentile(best_ms, 0.95), "ms"},
        {"rank_over_kstar", std::exp(log_ratio / static_cast<double>(verdicts.size())),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("# passes %zu; pass wall median %.4g min %.4g s; %zu set-ups, median %.4g s\n",
                plain.size(), median(pass_walls), fastest(pass_walls), setup_t.size(),
                median(setup_t));
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const Pass& p : tpass)
      for (const auto& [k, v] : p.layer) samples[k].push_back(v);
    std::map<std::string, Metric> by_name;
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = samples.find(name);
      by_name[name] = {name, it == samples.end() ? 0.0 : median(it->second), unit};
      if (it != samples.end() && it->second.size() > 1) by_name[name].mad = mad(it->second);
    }
    std::vector<double> tw, uw;
    for (const Pass& p : tpass) tw.push_back(p.wall);
    for (const Pass& p : plain) uw.push_back(p.wall);
    // A single pass against the median pass; the fastest of N passes would
    // bias the ratio upward.
    by_name["pool.speedup_1t"].value = one_thread->wall / median(tw);
    by_name["obs.trace_overhead"].value = fastest(tw) / fastest(uw);
    by_name["core.verify_s"].value = verify_s;
    double fvals = 0.0, nnz = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      fvals += static_cast<double>(warm.legs[i].factor_values);
      nnz += static_cast<double>(inputs[i].a.nnz());
    }
    by_name["core.factor_per_nnz"].value = fvals / nnz;
    // Set-up steps of the fastest set-up, so they add up to setup_s.
    const auto f = static_cast<std::size_t>(
        std::min_element(setup_t.begin(), setup_t.end()) - setup_t.begin());
    by_name["gen.make_preset_s"].value = preset_t[f];
    by_name["gen.make_suite_s"].value = suite_t[f];
    by_name["sparse.io_mm.write_s"].value = write_t[f];
    by_name["sparse.io_mm.read_s"].value = read_t[f];

    // Kernel shapes from the workload's largest matrix and the rank its leg
    // reached in the warm-up pass.
    std::size_t big = 0;
    for (std::size_t i = 1; i < inputs.size(); ++i)
      if (inputs[i].a.nnz() > inputs[big].a.nnz()) big = i;
    std::vector<Metric> kernels;
    {
      SpanScope sp(spans, "kernels", "bench");
      const Index k = inputs[big].leg->k;
      kernel_layer(kernels, inputs[big].a, k,
                   std::max(k, warm.legs[big].rank), cfg.sketch_seed);
    }
    for (const Metric& m : kernels) by_name[m.name] = m;

    const WorkspaceStats ws = Workspace::aggregate();
    by_name["support.workspace.high_water_mb"].value =
        static_cast<double>(ws.high_water) / (1024.0 * 1024.0);
    by_name["support.workspace.grows"].value = static_cast<double>(ws.grows);
    for (const auto& [name, unit] : per_layer_names()) metrics.push_back(by_name[name]);
    std::printf("# passes %zu untraced, %zu traced, 1 one-thread; %zu spans\n",
                plain.size(), tpass.size(), spans.size());
  }

  for (const Metric& m : metrics) {
    if (m.mad >= 0.0)
      std::printf("%s %.9g %s (mad %.3g)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.mad);
    else
      std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // --- JSON record, re-read through obs::jsonin as a self-check.
  obs::JsonObj prov_json;
  for (const auto& [k, v] : prov) prov_json.field(k, v);
  std::string legs = "[";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::string walls = "[";
    for (std::size_t p = 0; p < plain.size(); ++p)
      walls += (p ? "," : "") + obs::json_number(plain[p].legs[i].wall);
    obs::JsonObj l;
    l.field("name", inputs[i].name)
        .field("tau", inputs[i].leg->tau)
        .field("rank", static_cast<long long>(verdicts[i].rank))
        .field("kstar", static_cast<long long>(verdicts[i].kstar))
        .field("exact_error_rel", verdicts[i].err_rel)
        .field("ok", verdicts[i].ok)
        .field("factor_hash", std::to_string(warm.legs[i].hash))
        .raw("wall_s", walls + "]");
    legs += (i ? "," : "") + l.str();
  }
  legs += "]";
  obs::JsonObj doc;
  doc.raw("provenance", prov_json.str())
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .raw("metrics", metrics_json(metrics, true))
      .raw("legs", legs);
  {
    std::ofstream os(out_path);
    os << doc.str() << '\n';
  }
  try {
    const obs::JsonValue back = obs::parse_json_file(out_path);
    const obs::JsonValue* ms = back.find("metrics");
    for (const Metric& m : metrics) {
      const obs::JsonValue* e = ms ? ms->find(m.name) : nullptr;
      if (!e || !e->find("value") || !e->find("value")->is_number() ||
          e->string_or("unit", "") != m.unit)
        throw std::runtime_error("metric " + m.name + " missing from " + out_path);
    }
    if (traced) {
      spans.write_chrome(trace_path, prov_json.str());
      const obs::JsonValue trace = obs::parse_json_file(trace_path);
      const obs::JsonValue* ev = trace.find("traceEvents");
      if (!ev || ev->as_array().size() != spans.size())
        throw std::runtime_error("span count mismatch in " + trace_path);
    }
  } catch (const std::exception& e) {
    std::printf("# FAIL self-check: %s\n", e.what());
    correct = false;
  }

  // --- the result line.
  std::printf("%s\n", obs::JsonObj()
                          .field("correct", correct)
                          .field("attempted", attempted)
                          .field("failed", failed)
                          .raw("metrics", metrics_json(metrics, false))
                          .str()
                          .c_str());
  return correct ? 0 : 3;
}
