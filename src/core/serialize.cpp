#include "core/serialize.hpp"

#include <array>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sparse/permute.hpp"
#include "support/bytes.hpp"

namespace lra {
namespace {

using Magic = std::array<char, 8>;
constexpr Magic kMagic = {'L', 'R', 'A', 'F', 'A', 'C', 'T', '1'};

// --- sections: an i64 row and column count, then the entries ---

void put_matrix(ByteWriter& w, const Matrix& m) {
  w.put<std::int64_t>(m.rows());
  w.put<std::int64_t>(m.cols());
  w.put_array(std::span<const double>(m.data(), m.size()));
}

void put_csc(ByteWriter& w, const CscMatrix& a) {
  w.put<std::int64_t>(a.rows());
  w.put<std::int64_t>(a.cols());
  put_csc_arrays(w, a);
}

std::pair<Index, Index> get_shape(ByteReader& r) {
  const Index rows = r.get<std::int64_t>();
  const Index cols = r.get<std::int64_t>();
  if (rows < 0 || cols < 0)
    throw std::out_of_range("negative matrix dimension");
  return {rows, cols};
}

Matrix get_matrix(ByteReader& r) {
  const auto [rows, cols] = get_shape(r);
  return Matrix(rows, cols,
                r.get_array<double>(static_cast<std::uint64_t>(rows),
                                    static_cast<std::uint64_t>(cols)));
}

CscMatrix get_csc(ByteReader& r) {
  const auto [rows, cols] = get_shape(r);
  return get_csc_arrays(r, rows, cols);
}

// --- files ---

/// A factor file's header: the magic, then the kind tag.
ByteWriter start_file(char tag) {
  ByteWriter w;
  w.put(kMagic);
  w.put(tag);
  return w;
}

void write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error(path + ": write failed");
}

/// Read the factor file at `path` whole and hand the bytes after its magic
/// to `decode(reader, kind tag)`. Every error is a std::runtime_error that
/// names the file; the codec's std::out_of_range means corrupt contents.
template <typename Decode>
auto load_file(const std::string& path, Decode&& decode) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  try {
    const std::string raw{std::istreambuf_iterator<char>(is), {}};
    const auto* first = reinterpret_cast<const std::byte*>(raw.data());
    const std::vector<std::byte> bytes(first, first + raw.size());
    ByteReader r(bytes);
    if (bytes.size() < sizeof(Magic) || r.get<Magic>() != kMagic)
      throw std::runtime_error("not an lra factorization file");
    return decode(r, r.get<char>());
  } catch (const std::out_of_range& e) {
    throw std::runtime_error(path + ": corrupt factorization file: " +
                             e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Factors that load but cannot be applied together are a structured error
/// too: every consumer indexes one through the others' dimensions.
void require_consistent(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("corrupt factorization file: " + what);
}

std::string dims(Index rows, Index cols) {
  return std::to_string(rows) + " x " + std::to_string(cols);
}

}  // namespace

void save_factorization(const std::string& path, const LuCrtpResult& r) {
  ByteWriter w = start_file('L');
  w.put<std::int32_t>(static_cast<std::int32_t>(r.status));
  w.put<std::int64_t>(r.rank);
  w.put<std::int64_t>(r.iterations);
  w.put(r.anorm_f);
  w.put(r.indicator);
  w.put(r.mu);
  put_csc(w, r.l);
  put_csc(w, r.u);
  w.put_vec(r.row_perm);
  w.put_vec(r.col_perm);
  write_file(path, w.take());
}

void save_factorization(const std::string& path, const RandQbResult& r) {
  ByteWriter w = start_file('Q');
  w.put<std::int32_t>(static_cast<std::int32_t>(r.status));
  w.put<std::int64_t>(r.rank);
  w.put<std::int64_t>(r.iterations);
  w.put(r.anorm_f);
  w.put(r.indicator);
  put_matrix(w, r.q);
  put_matrix(w, r.b);
  write_file(path, w.take());
}

std::string stored_factorization_kind(const std::string& path) {
  return load_file(path, [](ByteReader&, char tag) -> std::string {
    if (tag == 'L') return "lu";
    if (tag == 'Q') return "qb";
    throw std::runtime_error("unknown factorization kind");
  });
}

LuCrtpResult load_lu_factorization(const std::string& path) {
  return load_file(path, [](ByteReader& rd, char tag) {
    if (tag != 'L') throw std::runtime_error("not an LU factorization");
    LuCrtpResult r;
    r.status = static_cast<Status>(rd.get<std::int32_t>());
    r.rank = rd.get<std::int64_t>();
    r.iterations = rd.get<std::int64_t>();
    r.anorm_f = rd.get<double>();
    r.indicator = rd.get<double>();
    r.mu = rd.get<double>();
    r.l = get_csc(rd);
    r.u = get_csc(rd);
    r.row_perm = rd.get_vec<Index>();
    r.col_perm = rd.get_vec<Index>();
    require_consistent(r.l.cols() == r.u.rows(),
                       "L is " + dims(r.l.rows(), r.l.cols()) + " but U is " +
                           dims(r.u.rows(), r.u.cols()));
    require_consistent(static_cast<Index>(r.row_perm.size()) == r.l.rows() &&
                           is_permutation(r.row_perm),
                       "row_perm is not a permutation of L's " +
                           std::to_string(r.l.rows()) + " rows");
    require_consistent(static_cast<Index>(r.col_perm.size()) == r.u.cols() &&
                           is_permutation(r.col_perm),
                       "col_perm is not a permutation of U's " +
                           std::to_string(r.u.cols()) + " columns");
    return r;
  });
}

RandQbResult load_qb_factorization(const std::string& path) {
  return load_file(path, [](ByteReader& rd, char tag) {
    if (tag != 'Q') throw std::runtime_error("not a QB factorization");
    RandQbResult r;
    r.status = static_cast<Status>(rd.get<std::int32_t>());
    r.rank = rd.get<std::int64_t>();
    r.iterations = rd.get<std::int64_t>();
    r.anorm_f = rd.get<double>();
    r.indicator = rd.get<double>();
    r.q = get_matrix(rd);
    r.b = get_matrix(rd);
    require_consistent(r.q.cols() == r.b.rows(),
                       "Q is " + dims(r.q.rows(), r.q.cols()) + " but B is " +
                           dims(r.b.rows(), r.b.cols()));
    return r;
  });
}

}  // namespace lra
