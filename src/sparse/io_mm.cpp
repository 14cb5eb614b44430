#include "sparse/io_mm.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sparse/coo.hpp"

namespace lra {
namespace {

// Upper bound on the entries reserved up front: the nnz field of the size
// line is untrusted, so a one-line file must not be able to request an
// unbounded allocation. Larger files simply grow the builder as they stream.
constexpr long long kMaxReserve = 1LL << 22;

// Upper bound on either dimension of the size line. CooBuilder::build()
// allocates n + 1 column pointers up front, so an unchecked two-line file
// claiming 2^40 columns would ask for 8 TiB. 2^27 keeps the column pointers
// under 1 GiB and sits far above the paper's largest matrix (circuit5M_dc,
// ~3.5M rows).
constexpr Index kMaxDim = Index{1} << 27;

[[noreturn]] void entry_error(const std::string& path, long long t,
                              const std::string& what) {
  throw std::runtime_error(path + ": entry " + std::to_string(t + 1) + ": " +
                           what);
}

}  // namespace

CscMatrix read_matrix_market(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);

  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error(path + ": empty file");
  std::string lower = line;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower.rfind("%%matrixmarket", 0) != 0)
    throw std::runtime_error(path + ": missing MatrixMarket banner");
  const bool pattern = lower.find("pattern") != std::string::npos;
  const bool symmetric = lower.find(" symmetric") != std::string::npos;
  const bool skew = lower.find("skew-symmetric") != std::string::npos;
  if (lower.find("coordinate") == std::string::npos)
    throw std::runtime_error(path + ": only coordinate format is supported");
  if (lower.find("complex") != std::string::npos)
    throw std::runtime_error(path + ": complex matrices are not supported");

  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream hdr(line);
  Index m = 0, n = 0;
  long long nz = 0;
  hdr >> m >> n >> nz;
  if (!hdr || m <= 0 || n <= 0 || nz < 0)
    throw std::runtime_error(path + ": bad size line");
  if (m > kMaxDim || n > kMaxDim)
    throw std::runtime_error(path + ": size line " + std::to_string(m) +
                             " x " + std::to_string(n) +
                             " exceeds the dimension cap " +
                             std::to_string(kMaxDim));

  if ((symmetric || skew) && m != n)
    throw std::runtime_error(path + ": symmetric matrix must be square");

  CooBuilder coo(m, n);
  coo.reserve(static_cast<std::size_t>(std::min(nz, kMaxReserve)) *
              (symmetric || skew ? 2 : 1));
  for (long long t = 0; t < nz; ++t) {
    Index i = 0, j = 0;
    double v = 1.0;
    if (!(is >> i >> j)) throw std::runtime_error(path + ": truncated data");
    if (!pattern) {
      // Parse the value token with strtod so NaN/Inf (and overflowing
      // literals) are recognized and rejected by name.
      std::string tok;
      if (!(is >> tok)) throw std::runtime_error(path + ": truncated value");
      char* end = nullptr;
      v = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0')
        entry_error(path, t, "bad value '" + tok + "'");
      if (!std::isfinite(v)) entry_error(path, t, "non-finite value '" + tok + "'");
    }
    if (i < 1 || i > m || j < 1 || j > n)
      entry_error(path, t,
                  "index (" + std::to_string(i) + ", " + std::to_string(j) +
                      ") outside the " + std::to_string(m) + " x " +
                      std::to_string(n) + " size line");
    --i;
    --j;  // 1-based -> 0-based
    coo.add(i, j, v);
    if ((symmetric || skew) && i != j) coo.add(j, i, skew ? -v : v);
  }
  return coo.build();
}

void write_matrix_market(const CscMatrix& a, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  os.precision(17);
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p)
      os << rows[p] + 1 << ' ' << j + 1 << ' ' << vals[p] << '\n';
  }
}

}  // namespace lra
