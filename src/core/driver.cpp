#include "core/driver.hpp"

#include <cmath>
#include <stdexcept>

#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv_dist.hpp"
#include "dense/blas.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"

namespace lra {

const char* to_string(Method m) {
  switch (m) {
    case Method::kAuto:
      return "auto";
    case Method::kRandQbEi:
      return "randqb_ei";
    case Method::kLuCrtp:
      return "lu_crtp";
    case Method::kIlutCrtp:
      return "ilut_crtp";
    case Method::kRandUbv:
      return "randubv";
  }
  return "unknown";
}

Method method_from_string(const std::string& s) {
  if (s == "auto") return Method::kAuto;
  if (s == "randqb_ei" || s == "randqb") return Method::kRandQbEi;
  if (s == "lu_crtp" || s == "lu") return Method::kLuCrtp;
  if (s == "ilut_crtp" || s == "ilut") return Method::kIlutCrtp;
  if (s == "randubv" || s == "ubv") return Method::kRandUbv;
  throw std::invalid_argument("unknown method: " + s);
}

Status LowRankApprox::status() const {
  return std::visit([](const auto& r) { return r.status; }, result_);
}

Index LowRankApprox::rank() const {
  return std::visit([](const auto& r) { return r.rank; }, result_);
}

Index LowRankApprox::iterations() const {
  return std::visit([](const auto& r) { return r.iterations; }, result_);
}

double LowRankApprox::indicator() const {
  return std::visit([](const auto& r) { return r.indicator; }, result_);
}

double LowRankApprox::anorm_f() const {
  return std::visit([](const auto& r) { return r.anorm_f; }, result_);
}

double LowRankApprox::indicator_rel() const {
  return relative_indicator(status(), indicator(), anorm_f());
}

Index LowRankApprox::factor_values() const {
  if (const auto* lu = std::get_if<LuCrtpResult>(&result_))
    return lu->l.nnz() + lu->u.nnz();
  if (const auto* qb = std::get_if<RandQbResult>(&result_))
    return qb->q.size() + qb->b.size();
  const auto& ubv = std::get<RandUbvResult>(result_);
  return ubv.u.size() + ubv.v.size() + ubv.b.size();
}

double LowRankApprox::exact_error(const CscMatrix& a) const {
  if (const auto* qb = std::get_if<RandQbResult>(&result_))
    return randqb_exact_error(a, *qb);
  if (const auto* lu = std::get_if<LuCrtpResult>(&result_))
    return lu_crtp_exact_error(a, *lu);
  return randubv_exact_error(a, std::get<RandUbvResult>(result_));
}

const obs::TelemetrySeries& LowRankApprox::telemetry() const {
  return std::visit(
      [](const auto& r) -> const obs::TelemetrySeries& { return r.telemetry; },
      result_);
}

const RandQbResult* LowRankApprox::as_randqb() const {
  return std::get_if<RandQbResult>(&result_);
}
const LuCrtpResult* LowRankApprox::as_lu() const {
  return std::get_if<LuCrtpResult>(&result_);
}
const RandUbvResult* LowRankApprox::as_ubv() const {
  return std::get_if<RandUbvResult>(&result_);
}

Matrix LowRankApprox::h_dense() const {
  if (const auto* qb = std::get_if<RandQbResult>(&result_)) return qb->q;
  if (const auto* ubv = std::get_if<RandUbvResult>(&result_))
    return matmul(ubv->u, ubv->b);
  const auto& lu = std::get<LuCrtpResult>(result_);
  // Undo the row permutation: H(row_perm[i], :) = L(i, :).
  Matrix l = lu.l.to_dense();
  Matrix h(rows_, lu.rank);
  for (Index i = 0; i < rows_; ++i)
    for (Index j = 0; j < lu.rank; ++j) h(lu.row_perm[i], j) = l(i, j);
  return h;
}

Matrix LowRankApprox::w_dense() const {
  if (const auto* qb = std::get_if<RandQbResult>(&result_)) return qb->b;
  if (const auto* ubv = std::get_if<RandUbvResult>(&result_))
    return ubv->v.transposed();
  const auto& lu = std::get<LuCrtpResult>(result_);
  Matrix u = lu.u.to_dense();
  Matrix w(lu.rank, cols_);
  for (Index j = 0; j < cols_; ++j)
    for (Index i = 0; i < lu.rank; ++i) w(i, lu.col_perm[j]) = u(i, j);
  return w;
}

void LowRankApprox::apply(const double* x, double* y) const {
  const Matrix h = h_dense();
  const Matrix w = w_dense();
  std::vector<double> mid(static_cast<std::size_t>(rank()), 0.0);
  gemv(mid.data(), w, x);
  for (Index i = 0; i < rows_; ++i) y[i] = 0.0;
  gemv(y, h, mid.data());
}

void LowRankApprox::apply_transpose(const double* x, double* y) const {
  const Matrix h = h_dense();
  const Matrix w = w_dense();
  std::vector<double> mid(static_cast<std::size_t>(rank()), 0.0);
  gemv(mid.data(), h, x, 1.0, 0.0, Trans::kYes);
  for (Index j = 0; j < cols_; ++j) y[j] = 0.0;
  gemv(y, w, mid.data(), 1.0, 0.0, Trans::kYes);
}

Method choose_method(const CscMatrix& a, const ApproxOptions& opts) {
  if (opts.method != Method::kAuto) return opts.method;
  // Heuristic from the paper's conclusions: the deterministic methods pay
  // off at coarse accuracy on sparse inputs (sparse factors, fewer
  // iterations); at tight tolerances or denser inputs, fill-in risk makes
  // RandQB_EI the safer default — with ILUT_CRTP as the sparse-factor
  // middle ground.
  if (opts.tau >= 1e-2 && a.density() < 0.05) return Method::kLuCrtp;
  if (a.density() < 0.05) return Method::kIlutCrtp;
  return Method::kRandQbEi;
}

Method choose_method_dist(const CscMatrix& a, const ApproxOptions& opts) {
  if (opts.method != Method::kAuto) return opts.method;
  if (opts.tau >= 1e-4)
    return a.density() < 0.05 ? Method::kIlutCrtp : Method::kLuCrtp;
  return Method::kRandQbEi;
}

namespace {

/// The one Method -> options mapping: calls `f(options, entry, dist_entry)`
/// with the resolved method's options and its sequential and simulated
/// entry points.
template <typename F>
void with_options(Method method, const ApproxOptions& opts, F&& f) {
  switch (method) {
    case Method::kRandQbEi: {
      RandQbOptions o;
      o.block_size = opts.block_size;
      o.tau = opts.tau;
      o.power = opts.power;
      o.seed = opts.seed;
      o.max_rank = opts.max_rank;
      f(o, randqb_ei, randqb_ei_dist);
      return;
    }
    case Method::kLuCrtp:
    case Method::kIlutCrtp: {
      LuCrtpOptions o;
      o.block_size = opts.block_size;
      o.tau = opts.tau;
      o.max_rank = opts.max_rank;
      o.colamd = opts.colamd;
      if (method == Method::kIlutCrtp) o.threshold = ThresholdMode::kIlut;
      f(o, lu_crtp, lu_crtp_dist);
      return;
    }
    case Method::kRandUbv: {
      RandUbvOptions o;
      o.block_size = opts.block_size;
      o.tau = opts.tau;
      o.seed = opts.seed;
      o.max_rank = opts.max_rank;
      f(o, randubv, randubv_dist);
      return;
    }
    case Method::kAuto:
      return;  // unreachable: the callers resolve it first
  }
}

}  // namespace

LowRankApprox approximate(const CscMatrix& a, const ApproxOptions& opts) {
  LowRankApprox out;
  out.method_ = choose_method(a, opts);
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  with_options(out.method_, opts, [&](const auto& o, auto run, auto) {
    out.result_ = run(a, o);
  });
  return out;
}

SimRun<LowRankApprox> approximate(const CscMatrix& a, const ApproxOptions& opts,
                                  int nranks, const SimOptions& sim) {
  SimRun<LowRankApprox> out;
  LowRankApprox& r = out.result;
  r.method_ = choose_method_dist(a, opts);
  r.rows_ = a.rows();
  r.cols_ = a.cols();
  with_options(r.method_, opts, [&](const auto& o, auto, auto run) {
    auto d = run(a, o, nranks, sim);
    r.result_ = std::move(d.result);
    out.virtual_seconds = d.virtual_seconds;
    out.comm = std::move(d.comm);
    out.trace = std::move(d.trace);
  });
  return out;
}

}  // namespace lra
