#include "sim/oracle.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/lu_crtp.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv.hpp"
#include "core/randubv_dist.hpp"

namespace lra::sim {
namespace {

RandQbOptions qb_opts(const ReproConfig& c) {
  RandQbOptions o;
  o.block_size = c.block_size;
  o.tau = c.tau;
  o.power = c.power;
  o.seed = c.solver_seed;
  o.max_rank = c.max_rank;
  return o;
}

LuCrtpOptions lu_opts(const ReproConfig& c) {
  LuCrtpOptions o;
  o.block_size = c.block_size;
  o.tau = c.tau;
  o.max_rank = c.max_rank;
  if (c.method == Method::kIlutCrtp) o.threshold = ThresholdMode::kIlut;
  return o;
}

RandUbvOptions ubv_opts(const ReproConfig& c) {
  RandUbvOptions o;
  o.block_size = c.block_size;
  o.tau = c.tau;
  o.seed = c.solver_seed;
  o.max_rank = c.max_rank;
  return o;
}

template <typename R>
void fill_decisions(SolverDigest& d, const R& r) {
  d.status = r.status;
  d.rank = r.rank;
  d.iterations = r.iterations;
  d.indicator = r.indicator;
  d.anorm_f = r.anorm_f;
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
  SolverDigest d;
  switch (cfg.method) {
    case Method::kRandQbEi: {
      const RandQbResult r = randqb_ei(a, qb_opts(cfg));
      fill_decisions(d, r);
      if (r.status == Status::kConverged)
        d.exact_error = randqb_exact_error(a, r);
      break;
    }
    case Method::kLuCrtp:
    case Method::kIlutCrtp: {
      const LuCrtpResult r = lu_crtp(a, lu_opts(cfg));
      fill_decisions(d, r);
      if (r.status == Status::kConverged)
        d.exact_error = lu_crtp_exact_error(a, r);
      break;
    }
    case Method::kRandUbv: {
      const RandUbvResult r = randubv(a, ubv_opts(cfg));
      fill_decisions(d, r);
      if (r.status == Status::kConverged)
        d.exact_error = randubv_exact_error(a, r);
      break;
    }
    case Method::kAuto:
      throw std::invalid_argument("oracle configs must name a method");
  }
  return d;
}

SolverDigest run_distributed(const CscMatrix& a, const ReproConfig& cfg,
                             const FaultPlan& plan) {
  SolverDigest d;
  const SimOptions sim{cfg.cost, /*collect_trace=*/false, plan};
  switch (cfg.method) {
    case Method::kRandQbEi: {
      const DistRandQbResult r = randqb_ei_dist(a, qb_opts(cfg), cfg.nranks, sim);
      fill_decisions(d, r.result);
      d.virtual_seconds = r.virtual_seconds;
      d.comm = r.comm;
      if (r.result.status == Status::kConverged)
        d.exact_error = randqb_exact_error(a, r.result);
      break;
    }
    case Method::kLuCrtp:
    case Method::kIlutCrtp: {
      const DistLuResult r = lu_crtp_dist(a, lu_opts(cfg), cfg.nranks, sim);
      fill_decisions(d, r.result);
      d.virtual_seconds = r.virtual_seconds;
      d.comm = r.comm;
      if (r.result.status == Status::kConverged)
        d.exact_error = lu_crtp_exact_error(a, r.result);
      break;
    }
    case Method::kRandUbv: {
      const DistRandUbvResult r = randubv_dist(a, ubv_opts(cfg), cfg.nranks, sim);
      fill_decisions(d, r.result);
      d.virtual_seconds = r.virtual_seconds;
      d.comm = r.comm;
      if (r.result.status == Status::kConverged)
        d.exact_error = randubv_exact_error(a, r.result);
      break;
    }
    case Method::kAuto:
      throw std::invalid_argument("oracle configs must name a method");
  }
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
