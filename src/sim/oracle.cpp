#include "sim/oracle.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/driver.hpp"

namespace lra::sim {
namespace {

ApproxOptions approx_options(const ReproConfig& c) {
  if (c.method == Method::kAuto)
    throw std::invalid_argument("oracle configs must name a method");
  ApproxOptions o;
  o.method = c.method;
  o.tau = c.tau;
  o.block_size = c.block_size;
  o.power = c.power;
  o.seed = c.solver_seed;
  o.max_rank = c.max_rank;
  return o;
}

/// The decision fields of a run, and its dense exact error when it
/// converged.
SolverDigest digest(const CscMatrix& a, const LowRankApprox& r) {
  SolverDigest d;
  d.status = r.status();
  d.rank = r.rank();
  d.iterations = r.iterations();
  d.indicator = r.indicator();
  d.anorm_f = r.anorm_f();
  if (d.status == Status::kConverged) d.exact_error = r.exact_error(a);
  return d;
}

std::uint64_t flips_injected(const obs::CommStats& s) {
  std::uint64_t n = 0;
  for (const auto& c : s.per_rank) {
    for (std::uint64_t v : c.msgs_corrupted_to) n += v;
    n += c.coll_flip_faults;
  }
  return n;
}

std::string fmt(double v) {
  std::ostringstream ss;
  ss.precision(6);
  ss << v;
  return ss.str();
}

}  // namespace

SolverDigest run_sequential(const CscMatrix& a, const ReproConfig& cfg) {
  return digest(a, approximate(a, approx_options(cfg)));
}

SolverDigest run_distributed(const CscMatrix& a, const ReproConfig& cfg,
                             const FaultPlan& plan) {
  SimRun<LowRankApprox> run =
      approximate(a, approx_options(cfg), cfg.nranks,
                  SimOptions{cfg.cost, /*collect_trace=*/false, plan});
  SolverDigest d = digest(a, run.result);
  d.virtual_seconds = run.virtual_seconds;
  d.comm = std::move(run.comm);
  return d;
}

namespace {

void check_honest(OracleReport& rep, const char* engine,
                  const SolverDigest& d, double tau) {
  if (d.status != Status::kConverged || d.exact_error < 0.0) return;
  const double bound = honest_error_bound(tau, d.anorm_f, d.indicator);
  if (d.exact_error > bound)
    rep.fail(std::string(engine) + " engine is dishonest: exact error " +
             fmt(d.exact_error) + " exceeds the bound " + fmt(bound) +
             " (tau " + fmt(tau) + ", indicator " + fmt(d.indicator) + ")");
}

void check_invariants(OracleReport& rep, const char* which,
                      const SolverDigest& d, bool expect_aborted) {
  const std::string violation = d.comm.check_invariants();
  if (!violation.empty())
    rep.fail(std::string(which) + " run violates comm invariants: " +
             violation);
  if (d.comm.aborted != expect_aborted)
    rep.fail(std::string(which) + " run " +
             (d.comm.aborted ? "aborted unexpectedly" : "did not abort"));
}

// Decision fields bitwise equal: status, rank, iterations, and the exit
// indicator as an exact double. `ref` names the run `got` is held to.
void check_bitwise_equal(OracleReport& rep, const std::string& which,
                         const SolverDigest& got, const SolverDigest& want,
                         const char* ref = "clean") {
  const std::string vs = std::string(" vs ") + ref + " ";
  if (got.status != want.status)
    rep.fail(which + " changed the status: " + to_string(got.status) + vs +
             to_string(want.status));
  if (got.rank != want.rank)
    rep.fail(which + " changed the rank: " + std::to_string(got.rank) + vs +
             std::to_string(want.rank));
  if (got.iterations != want.iterations)
    rep.fail(which + " changed the iteration count: " +
             std::to_string(got.iterations) + vs +
             std::to_string(want.iterations));
  if (got.indicator != want.indicator)  // exact: payloads must be untouched
    rep.fail(which + " changed the exit indicator: " + fmt(got.indicator) +
             vs + fmt(want.indicator));
}

}  // namespace

OracleReport run_differential_oracle(const ReproConfig& cfg) {
  OracleReport rep;
  const CscMatrix a = build_matrix(cfg);

  rep.seq = run_sequential(a, cfg);
  rep.clean = run_distributed(a, cfg, FaultPlan{});

  if (cfg.nranks == 1) {
    // One SPMD body per method: on one rank the two engines run the same
    // arithmetic, so their decisions must agree bit for bit.
    check_bitwise_equal(rep, "the single-rank distributed run", rep.clean,
                        rep.seq, "sequential");
  } else {
    if (rep.seq.status != rep.clean.status)
      rep.fail(std::string("status mismatch: sequential ") +
               to_string(rep.seq.status) + " vs distributed " +
               to_string(rep.clean.status));
    if (std::llabs(static_cast<long long>(rep.seq.rank - rep.clean.rank)) >
        cfg.block_size)
      rep.fail("rank decisions differ by more than one block: sequential " +
               std::to_string(rep.seq.rank) + " vs distributed " +
               std::to_string(rep.clean.rank) + " (block size " +
               std::to_string(cfg.block_size) + ")");
  }
  check_honest(rep, "sequential", rep.seq, cfg.tau);
  check_honest(rep, "distributed", rep.clean, cfg.tau);
  check_invariants(rep, "clean distributed", rep.clean,
                   /*expect_aborted=*/false);

  const FaultPlan plan = cfg.fault_plan();
  if (!plan.enabled()) return rep;

  FaultPlan benign = plan;
  benign.flip_prob = 0.0;
  if (benign.enabled()) {
    rep.ran_benign = true;
    rep.benign = run_distributed(a, cfg, benign);
    check_bitwise_equal(rep, "benign fault plan", rep.benign, rep.clean);
    check_invariants(rep, "benign-faulted", rep.benign,
                     /*expect_aborted=*/false);
    if (rep.benign.comm.total_bytes() != rep.clean.comm.total_bytes())
      rep.fail("benign fault plan changed delivered payload bytes: " +
               std::to_string(rep.benign.comm.total_bytes()) + " vs clean " +
               std::to_string(rep.clean.comm.total_bytes()));
  }

  if (plan.flip_prob > 0.0) {
    rep.ran_flip = true;
    rep.flip = run_distributed(a, cfg, plan);
    rep.flips_injected = flips_injected(rep.flip.comm);
    if (rep.flips_injected > 0) {
      if (rep.flip.status != Status::kCommFault)
        rep.fail(std::string("injected corruption was not reported: status ") +
                 to_string(rep.flip.status) + " after " +
                 std::to_string(rep.flips_injected) + " flips");
      check_invariants(rep, "flip-faulted", rep.flip, /*expect_aborted=*/true);
    } else {
      check_bitwise_equal(rep, "no-op flip plan", rep.flip, rep.clean);
      check_invariants(rep, "flip-faulted", rep.flip,
                       /*expect_aborted=*/false);
    }
  }
  return rep;
}

std::string summarize(const OracleReport& r) {
  if (r.pass) {
    std::string s = "PASS seq{" + std::string(to_string(r.seq.status)) +
                    ", rank " + std::to_string(r.seq.rank) + "} dist{" +
                    to_string(r.clean.status) + ", rank " +
                    std::to_string(r.clean.rank) + "}";
    if (r.ran_benign) s += " benign{bitwise-equal}";
    if (r.ran_flip)
      s += " flip{" + std::string(to_string(r.flip.status)) + ", " +
           std::to_string(r.flips_injected) + " injected}";
    return s;
  }
  std::string s = "FAIL: " + r.failures.front();
  if (r.failures.size() > 1)
    s += " (+" + std::to_string(r.failures.size() - 1) + " more)";
  return s;
}

}  // namespace lra::sim
