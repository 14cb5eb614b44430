// lra_cli — command-line front end for the library.
//
//   lra_cli generate --preset=M2 [--scale=0.25] --out=a.mtx
//       Emit a synthetic test matrix (MatrixMarket).
//   lra_cli info --mtx=a.mtx
//       Structural summary + leading singular values (randomized probe).
//   lra_cli approx --mtx=a.mtx [--method=auto|randqb|lu|ilut|ubv]
//             [--tau=1e-3] [--k=32] [--out=fact.bin]
//             [--np=N] [--trace=trace.json] [--report=report.jsonl]
//             [--faults=SPEC] [--profile]
//       Fixed-precision approximation; optionally store the factors.
//       --np runs the simulated-distributed engine on N virtual ranks;
//       --trace writes a Chrome trace (chrome://tracing / Perfetto) of the
//       virtual-time spans and implies --np (default 4); --report writes a
//       JSONL run report (meta/iteration/comm/summary records) for either
//       execution mode; --faults installs a deterministic fault plan
//       (grammar: seed=N;delay=P:F;dup=P;flip=P;straggle=R1,..:F — see
//       EXPERIMENTS.md, HARNESS) and implies --np (default 4). Detected
//       payload corruption reports status comm-fault, never a crash.
//       --profile prints a post-run causal profile (per-phase attribution,
//       critical path, what-if projections) and implies --np; with --report
//       the profile/profile_rank/profile_phase records are appended too.
//   lra_cli profile --trace=trace.json [--report=prof.jsonl] [--run=LABEL]
//       Re-analyze a Chrome trace written by `approx --trace=...`: rebuild
//       the event DAG, attribute every virtual second per rank to
//       {compute-by-phase, comm-by-phase, idle}, extract the critical path,
//       and replay alpha=0 / beta=0 / full-overlap what-if projections.
//       Exits 1 when a conservation invariant fails (malformed trace).
//   lra_cli repro --file=case.json [--out=shrunk.json]
//       Re-execute a differential-oracle repro file dumped by the harness
//       (also spelled `lra_cli --repro=case.json`). Exit 0 when the oracle
//       passes, 1 when the recorded failure reproduces; --out re-shrinks
//       the config and writes the minimal failing variant.
//   lra_cli verify --mtx=a.mtx --fact=fact.bin
//       Reload stored factors and report the exact achieved error; factors
//       whose shape does not match the matrix are an error (exit 1).
//
//   Every subcommand accepts --threads=N to size the shared-memory kernel
//   pool (default: LRA_NUM_THREADS or the hardware concurrency; 0 or
//   negative values warn and fall back to 1). Simulated ranks (--np) always
//   compute single-threaded per rank so virtual times stay comparable.
//   The compute kernels have one contract, `simd`: multiply-adds fused
//   where the ISA has FMA, the same bits at any --threads.
//   An unknown flag (one the subcommand never reads) is an error: exit 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/fixed_rank.hpp"
#include "core/metrics.hpp"
#include "core/run_record.hpp"
#include "core/serialize.hpp"
#include "dense/svd.hpp"
#include "gen/presets.hpp"
#include "obs/prof/profile.hpp"
#include "obs/prof/trace_io.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/fault/fault.hpp"
#include "sim/oracle.hpp"
#include "sim/repro.hpp"
#include "sim/shrink.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/ops.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

namespace {

using namespace lra;

int usage() {
  std::fprintf(stderr,
               "usage: lra_cli <generate|info|approx|profile|repro|verify>"
               " [--flags]\n"
               "see the header of tools/lra_cli.cpp for details\n");
  return 2;
}

int cmd_generate(const Cli& cli) {
  const std::string preset = cli.get("preset", "M1");
  const double scale = cli.get_double("scale", 0.25);
  const std::string out = cli.get("out", preset + ".mtx");
  cli.reject_unread();
  const TestMatrix t = make_preset(preset, scale);
  write_matrix_market(t.a, out);
  std::printf("%s' (%s, %s): %ld x %ld, %ld nnz -> %s\n", t.label.c_str(),
              t.analog_of.c_str(), t.description.c_str(), t.a.rows(),
              t.a.cols(), t.a.nnz(), out.c_str());
  return 0;
}

int cmd_info(const Cli& cli) {
  const std::string mtx = cli.get("mtx", "");
  cli.reject_unread();
  const CscMatrix a = read_matrix_market(mtx);
  std::printf("size      : %ld x %ld\n", a.rows(), a.cols());
  std::printf("nnz       : %ld (density %.5f, %.1f per row)\n", a.nnz(),
              a.density(),
              static_cast<double>(a.nnz()) / static_cast<double>(a.rows()));
  std::printf("||A||_F   : %.6e\n", a.frobenius_norm());
  std::printf("||A||_2   : %.6e (power-iteration estimate)\n",
              spectral_norm_estimate(a));
  // Leading singular values via a small randomized probe.
  const Index probe = std::min<Index>(10, std::min(a.rows(), a.cols()));
  const Matrix q = rrf(a, probe, 2);
  const Matrix b = spmm_t(a, q).transposed();
  const auto sv = singular_values(b);
  std::printf("leading singular values (randomized, p=2):\n  ");
  for (double s : sv) std::printf("%.4e ", s);
  std::printf("\n");
  return 0;
}

int cmd_approx(const Cli& cli) {
  const std::string mtx = cli.get("mtx", "");
  ApproxOptions o;
  o.method = method_from_string(cli.get("method", "auto"));
  o.tau = cli.get_double("tau", 1e-3);
  o.block_size = cli.get_int("k", 32);
  o.power = static_cast<int>(cli.get_int("p", 1));

  const std::string trace_path = cli.get("trace", "");
  const std::string report_path = cli.get("report", "");
  const std::string fault_spec = cli.get("faults", "");
  const bool want_profile = cli.has("profile");
  // Spans and fault plans live on simulated ranks, so --trace, --faults and
  // --profile imply the distributed path.
  const bool needs_np = !trace_path.empty() || !fault_spec.empty() ||
                        want_profile;
  int np = static_cast<int>(cli.get_int("np", needs_np ? 4 : 0));
  if (np < 0) np = 0;
  const std::string out = cli.get("out", "");
  cli.reject_unread();

  const CscMatrix a = read_matrix_market(mtx);
  SimOptions sim;
  sim.faults = fault_spec.empty() ? sim::FaultPlan{}
                                  : sim::parse_fault_spec(fault_spec);
  sim.collect_trace = !trace_path.empty() || want_profile;

  std::unique_ptr<obs::ReportWriter> report;
  if (!report_path.empty())
    report = std::make_unique<obs::ReportWriter>(report_path);

  // The driver resolves "auto": with the paper's parallel guidance on
  // simulated ranks (deterministic methods at coarse-to-moderate tau), with
  // the sequential one otherwise.
  SimRun<LowRankApprox> run;
  double seconds = 0.0;
  if (np > 0) {
    run = approximate(a, o, np, sim);
  } else {
    ThreadPool::global().reset_stats();
    Stopwatch clock;
    run.result = approximate(a, o);
    seconds = clock.seconds();
  }
  const LowRankApprox& approx = run.result;
  const char* method = to_string(approx.method());

  if (report) {
    obs::JsonObj meta = obs::meta_record("lra_cli approx");
    meta.field("matrix", mtx)
        .field("rows", static_cast<long long>(a.rows()))
        .field("cols", static_cast<long long>(a.cols()))
        .field("nnz", static_cast<long long>(a.nnz()))
        .field("density", a.density())
        .field("method", method)
        .field("tau", o.tau)
        .field("block_size", static_cast<long long>(o.block_size))
        .field("np", np);
    report->write(meta);
    obs::write_telemetry(*report, method, approx.telemetry());
  }

  obs::prof::Profile prof;
  if (np > 0) {
    std::printf("method    : %s (simulated distributed, np=%d)\n", method, np);
    std::printf("status    : %s\n", to_string(approx.status()));
    std::printf("rank      : %ld in %.6fs virtual\n", approx.rank(),
                run.virtual_seconds);
    std::printf("indicator : %.3e (target %.3e)\n", approx.indicator_rel(),
                o.tau);
    std::printf("comm      : %llu msgs, %llu bytes, max queue depth %llu\n",
                static_cast<unsigned long long>(run.comm.total_msgs()),
                static_cast<unsigned long long>(run.comm.total_bytes()),
                static_cast<unsigned long long>(run.comm.max_queue_depth()));
    if (sim.faults.enabled())
      std::printf("faults    : plan \"%s\", %llu events%s\n",
                  sim::to_spec(sim.faults).c_str(),
                  static_cast<unsigned long long>(run.comm.total_fault_events()),
                  run.comm.aborted ? ", run aborted" : "");
    if (!trace_path.empty()) {
      // Written even when the run aborted on a fault: the partial trace is
      // still well-formed and analyzable (attribution covers [0, abort]).
      obs::write_chrome_trace_file(trace_path, run.trace);
      std::printf("trace     -> %s (%zu ranks)\n", trace_path.c_str(),
                  run.trace.size());
    }
    if (want_profile) {
      prof = obs::prof::build_profile(run.trace);
      obs::prof::print_profile(std::cout, prof);
    }
    if (report) {
      obs::write_comm_stats(*report, run.comm);
      obs::JsonObj summary = summary_record(run);
      summary.field("factor_values",
                    static_cast<long long>(approx.factor_values()));
      report->write(summary);
      if (want_profile) {
        std::ostringstream ss;
        obs::prof::write_profile_jsonl(ss, prof, method);
        report->write_lines(ss.str());
      }
    }
  } else {
    std::printf("method    : %s\n", method);
    std::printf("threads   : %d\n", ThreadPool::global().num_threads());
    std::printf("status    : %s\n", to_string(approx.status()));
    std::printf("rank      : %ld in %.2fs\n", approx.rank(), seconds);
    std::printf("indicator : %.3e (target %.3e)\n", approx.indicator_rel(),
                o.tau);
    std::printf("factor sz : %ld stored values (input nnz %ld)\n",
                approx.factor_values(), a.nnz());
    if (report) {
      obs::write_pool_stats(*report, ThreadPool::global().kernel_stats());
      obs::write_workspace_stats(*report, Workspace::aggregate());
      obs::JsonObj summary = summary_record(approx);
      summary.field("wall_seconds", seconds)
          .field("factor_values",
                 static_cast<long long>(approx.factor_values()));
      report->write(summary);
    }
  }
  if (report)
    std::printf("report    -> %s (%d records)\n", report_path.c_str(),
                report->records());
  if (want_profile && !prof.conserved) {
    for (const std::string& v : prof.violations)
      std::fprintf(stderr, "profile violation: %s\n", v.c_str());
    return 1;
  }

  if (!out.empty()) {
    if (const auto* lu = approx.as_lu()) {
      save_factorization(out, *lu);
    } else if (const auto* qb = approx.as_randqb()) {
      save_factorization(out, *qb);
    } else {
      std::fprintf(stderr, "storing %s factorizations is not supported\n",
                   method);
      return 1;
    }
    std::printf("factors   -> %s\n", out.c_str());
  }
  return 0;
}

int cmd_profile(const Cli& cli) {
  const std::string trace_path = cli.get("trace", "");
  const std::string report_path = cli.get("report", "");
  const std::string run = cli.get("run", trace_path);
  cli.reject_unread();
  if (trace_path.empty()) {
    std::fprintf(stderr, "profile: missing --trace=trace.json\n");
    return 2;
  }
  const std::vector<obs::RankTrace> ranks =
      obs::prof::read_chrome_trace_file(trace_path);
  const obs::prof::Profile p = obs::prof::build_profile(ranks);
  obs::prof::print_profile(std::cout, p);
  if (!report_path.empty()) {
    obs::ReportWriter report(report_path);
    std::ostringstream ss;
    obs::prof::write_profile_jsonl(ss, p, run);
    report.write_lines(ss.str());
    std::printf("report    -> %s (%d records)\n", report_path.c_str(),
                report.records());
  }
  if (!p.conserved) {
    for (const std::string& v : p.violations)
      std::fprintf(stderr, "profile violation: %s\n", v.c_str());
    return 1;
  }
  return 0;
}

int run_repro_file(const std::string& path, const std::string& shrink_out) {
  const sim::ReproConfig cfg = sim::load_repro_file(path);
  std::printf("repro     : %s\n", path.c_str());
  std::printf("config    : %s\n", sim::to_json(cfg).c_str());
  const sim::OracleReport rep = sim::run_differential_oracle(cfg);
  std::printf("oracle    : %s\n", sim::summarize(rep).c_str());
  for (const std::string& f : rep.failures)
    std::printf("  - %s\n", f.c_str());
  if (!rep.pass && !shrink_out.empty()) {
    const sim::ShrinkResult sh = sim::shrink_config(
        cfg, [](const sim::ReproConfig& c) {
          return !sim::run_differential_oracle(c).pass;
        });
    sim::save_repro_file(shrink_out, sh.config);
    std::printf("shrunk    -> %s (%d/%d candidates accepted)\n",
                shrink_out.c_str(), sh.accepted, sh.attempts);
  }
  return rep.pass ? 0 : 1;
}

int cmd_repro(const Cli& cli) {
  const std::string path = cli.get("file", "");
  const std::string out = cli.get("out", "");
  cli.reject_unread();
  if (path.empty()) {
    std::fprintf(stderr, "repro: missing --file=case.json\n");
    return 2;
  }
  return run_repro_file(path, out);
}

/// Stored factors approximate an m x n matrix; verify only one that shape.
void require_shape(const CscMatrix& a, Index m, Index n,
                   const std::string& path) {
  if (a.rows() != m || a.cols() != n)
    throw std::runtime_error(
        path + ": factors approximate a " + std::to_string(m) + " x " +
        std::to_string(n) + " matrix, but --mtx is " +
        std::to_string(a.rows()) + " x " + std::to_string(a.cols()));
}

int cmd_verify(const Cli& cli) {
  const std::string mtx = cli.get("mtx", "");
  const std::string path = cli.get("fact", "");
  cli.reject_unread();
  const CscMatrix a = read_matrix_market(mtx);
  const std::string kind = stored_factorization_kind(path);
  double err = 0.0;
  Index rank = 0;
  if (kind == "lu") {
    const LuCrtpResult r = load_lu_factorization(path);
    require_shape(a, r.l.rows(), r.u.cols(), path);
    err = lu_crtp_exact_error(a, r);
    rank = r.rank;
  } else {
    const RandQbResult r = load_qb_factorization(path);
    require_shape(a, r.q.rows(), r.b.cols(), path);
    err = randqb_exact_error(a, r);
    rank = r.rank;
  }
  std::printf("kind      : %s\n", kind.c_str());
  std::printf("rank      : %ld\n", rank);
  std::printf("rel error : %.6e\n", err / a.frobenius_norm());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const lra::Cli cli(argc - 1, argv + 1);
  try {
    if (cli.has("threads")) {
      const int n =
          lra::resolve_thread_count(cli.get_int("threads", 0), "--threads");
      lra::ThreadPool::global().set_num_threads(n);
    }
    // `lra_cli --repro=case.json` is the one-invocation replay the harness
    // prints on failure; it is sugar for `lra_cli repro --file=case.json`.
    if (cmd.rfind("--repro=", 0) == 0) {
      const std::string out = cli.get("out", "");
      cli.reject_unread();
      return run_repro_file(cmd.substr(std::strlen("--repro=")), out);
    }
    if (cmd == "generate") return cmd_generate(cli);
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "approx") return cmd_approx(cli);
    if (cmd == "profile") return cmd_profile(cli);
    if (cmd == "repro") return cmd_repro(cli);
    if (cmd == "verify") return cmd_verify(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
