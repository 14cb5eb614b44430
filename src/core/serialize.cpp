#include "core/serialize.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "sparse/permute.hpp"

namespace lra {
namespace {

constexpr char kMagic[8] = {'L', 'R', 'A', 'F', 'A', 'C', 'T', '1'};

class Writer {
 public:
  explicit Writer(const std::string& path) : os_(path, std::ios::binary) {
    if (!os_) throw std::runtime_error("cannot open " + path);
    os_.write(kMagic, sizeof(kMagic));
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    os_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod<std::uint64_t>(v.size());
    os_.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
  void tag(char c) { pod(c); }
  void matrix(const Matrix& m) {
    pod<std::int64_t>(m.rows());
    pod<std::int64_t>(m.cols());
    os_.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(double)));
  }
  void csc(const CscMatrix& a) {
    pod<std::int64_t>(a.rows());
    pod<std::int64_t>(a.cols());
    vec(a.colptr());
    vec(a.rowind());
    vec(a.values());
  }
  void check() {
    if (!os_) throw std::runtime_error("write failed");
  }

 private:
  std::ofstream os_;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : is_(path, std::ios::binary) {
    if (!is_) throw std::runtime_error("cannot open " + path);
    is_.seekg(0, std::ios::end);
    file_size_ = static_cast<std::uint64_t>(is_.tellg());
    is_.seekg(0, std::ios::beg);
    char magic[8];
    is_.read(magic, sizeof(magic));
    if (!is_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
      throw std::runtime_error(path + ": not an lra factorization file");
  }
  template <typename T>
  T pod() {
    T v;
    is_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!is_) throw std::runtime_error("truncated factorization file");
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const auto n = pod<std::uint64_t>();
    // A corrupted (e.g. bit-flipped) length field must fail here with a
    // structured error, before the allocation — never by attempting a
    // multi-gigabyte vector the file cannot possibly back.
    if (n > remaining() / sizeof(T))
      throw std::runtime_error(
          "corrupt factorization file: length field exceeds file size");
    std::vector<T> v(n);
    is_.read(reinterpret_cast<char*>(v.data()),
             static_cast<std::streamsize>(n * sizeof(T)));
    if (!is_) throw std::runtime_error("truncated factorization file");
    return v;
  }
  Matrix matrix() {
    const auto rows = pod<std::int64_t>();
    const auto cols = pod<std::int64_t>();
    if (rows < 0 || cols < 0)
      throw std::runtime_error(
          "corrupt factorization file: negative matrix dimension");
    const std::uint64_t budget = remaining() / sizeof(double);
    if (rows > 0 && static_cast<std::uint64_t>(cols) >
                        budget / static_cast<std::uint64_t>(rows))
      throw std::runtime_error(
          "corrupt factorization file: matrix dimensions exceed file size");
    Matrix m(rows, cols);
    is_.read(reinterpret_cast<char*>(m.data()),
             static_cast<std::streamsize>(m.size() * sizeof(double)));
    if (!is_) throw std::runtime_error("truncated factorization file");
    return m;
  }
  CscMatrix csc() {
    const auto rows = pod<std::int64_t>();
    const auto cols = pod<std::int64_t>();
    if (rows < 0 || cols < 0)
      throw std::runtime_error(
          "corrupt factorization file: negative matrix dimension");
    auto colptr = vec<Index>();
    auto rowind = vec<Index>();
    auto values = vec<double>();
    // Validate the CSC structure before handing it to the constructor (whose
    // debug-only assert is no defence in release builds): corrupted index
    // data must be a structured error, never a matrix whose unsorted or
    // repeated rows break every kernel's invariant downstream.
    if (!CscMatrix::valid_structure(rows, cols, colptr, rowind, values.size()))
      throw std::runtime_error(
          "corrupt factorization file: invalid sparse structure");
    return CscMatrix(rows, cols, std::move(colptr), std::move(rowind),
                     std::move(values));
  }

 private:
  std::uint64_t remaining() {
    const auto pos = static_cast<std::uint64_t>(is_.tellg());
    return pos > file_size_ ? 0 : file_size_ - pos;
  }

  std::ifstream is_;
  std::uint64_t file_size_ = 0;
};

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
  Writer w(path);
  w.tag('L');
  w.pod<std::int32_t>(static_cast<std::int32_t>(r.status));
  w.pod<std::int64_t>(r.rank);
  w.pod<std::int64_t>(r.iterations);
  w.pod(r.anorm_f);
  w.pod(r.indicator);
  w.pod(r.mu);
  w.csc(r.l);
  w.csc(r.u);
  w.vec(r.row_perm);
  w.vec(r.col_perm);
  w.check();
}

void save_factorization(const std::string& path, const RandQbResult& r) {
  Writer w(path);
  w.tag('Q');
  w.pod<std::int32_t>(static_cast<std::int32_t>(r.status));
  w.pod<std::int64_t>(r.rank);
  w.pod<std::int64_t>(r.iterations);
  w.pod(r.anorm_f);
  w.pod(r.indicator);
  w.matrix(r.q);
  w.matrix(r.b);
  w.check();
}

std::string stored_factorization_kind(const std::string& path) {
  Reader r(path);
  const char tag = r.pod<char>();
  if (tag == 'L') return "lu";
  if (tag == 'Q') return "qb";
  throw std::runtime_error(path + ": unknown factorization kind");
}

LuCrtpResult load_lu_factorization(const std::string& path) {
  Reader rd(path);
  if (rd.pod<char>() != 'L')
    throw std::runtime_error(path + ": not an LU factorization");
  LuCrtpResult r;
  r.status = static_cast<Status>(rd.pod<std::int32_t>());
  r.rank = rd.pod<std::int64_t>();
  r.iterations = rd.pod<std::int64_t>();
  r.anorm_f = rd.pod<double>();
  r.indicator = rd.pod<double>();
  r.mu = rd.pod<double>();
  r.l = rd.csc();
  r.u = rd.csc();
  r.row_perm = rd.vec<Index>();
  r.col_perm = rd.vec<Index>();
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
}

RandQbResult load_qb_factorization(const std::string& path) {
  Reader rd(path);
  if (rd.pod<char>() != 'Q')
    throw std::runtime_error(path + ": not a QB factorization");
  RandQbResult r;
  r.status = static_cast<Status>(rd.pod<std::int32_t>());
  r.rank = rd.pod<std::int64_t>();
  r.iterations = rd.pod<std::int64_t>();
  r.anorm_f = rd.pod<double>();
  r.indicator = rd.pod<double>();
  r.q = rd.matrix();
  r.b = rd.matrix();
  require_consistent(r.q.cols() == r.b.rows(),
                     "Q is " + dims(r.q.rows(), r.q.cols()) + " but B is " +
                         dims(r.b.rows(), r.b.cols()));
  return r;
}

void save_csc(const std::string& path, const CscMatrix& a) {
  Writer w(path);
  w.tag('S');
  w.csc(a);
  w.check();
}

CscMatrix load_csc(const std::string& path) {
  Reader rd(path);
  if (rd.pod<char>() != 'S')
    throw std::runtime_error(path + ": not a sparse matrix file");
  return rd.csc();
}

}  // namespace lra
