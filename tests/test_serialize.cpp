#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/ilut_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix test_matrix() {
  return givens_spray(geometric_spectrum(120, 5.0, 0.9),
                      {.left_passes = 2, .right_passes = 2, .bandwidth = 0,
                       .seed = 3});
}

TEST(Serialize, LuRoundTripPreservesEverything) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  const std::string path = ::testing::TempDir() + "/lra_lu.fact";
  save_factorization(path, r);
  EXPECT_EQ(stored_factorization_kind(path), "lu");
  const LuCrtpResult back = load_lu_factorization(path);
  EXPECT_EQ(back.rank, r.rank);
  EXPECT_EQ(back.iterations, r.iterations);
  EXPECT_EQ(back.status, r.status);
  EXPECT_EQ(back.row_perm, r.row_perm);
  EXPECT_EQ(back.col_perm, r.col_perm);
  EXPECT_DOUBLE_EQ(back.mu, r.mu);
  testing::expect_near_matrix(back.l.to_dense(), r.l.to_dense(), 0.0);
  testing::expect_near_matrix(back.u.to_dense(), r.u.to_dense(), 0.0);
  // The reloaded factorization verifies identically.
  EXPECT_DOUBLE_EQ(lu_crtp_exact_error(a, back), lu_crtp_exact_error(a, r));
  std::remove(path.c_str());
}

TEST(Serialize, QbRoundTrip) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  const RandQbResult r = randqb_ei(a, o);
  const std::string path = ::testing::TempDir() + "/lra_qb.fact";
  save_factorization(path, r);
  EXPECT_EQ(stored_factorization_kind(path), "qb");
  const RandQbResult back = load_qb_factorization(path);
  EXPECT_EQ(back.rank, r.rank);
  EXPECT_EQ(max_abs_diff(back.q, r.q), 0.0);
  EXPECT_EQ(max_abs_diff(back.b, r.b), 0.0);
  std::remove(path.c_str());
}

namespace {

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<unsigned char>(c));
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // fwrite must not see the null pointer of an empty (zero-length) prefix.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// A factor file image assembled field by field, independently of the codec:
// each value's bytes in host order, a vector as its u64 count and then its
// elements.
struct Image {
  std::vector<unsigned char> bytes;
  template <typename T>
  Image& pod(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
    return *this;
  }
  template <typename T>
  Image& vec(const std::vector<T>& v) {
    pod<std::uint64_t>(v.size());
    for (const T& x : v) pod(x);
    return *this;
  }
  Image& header(char tag) {
    for (const char c : std::string("LRAFACT1")) pod(c);
    return pod(tag);
  }
  Image& csc(const CscMatrix& a) {
    pod<std::int64_t>(a.rows()).pod<std::int64_t>(a.cols());
    return vec(a.colptr()).vec(a.rowind()).vec(a.values());
  }
  Image& matrix(const Matrix& m) {
    pod<std::int64_t>(m.rows()).pod<std::int64_t>(m.cols());
    for (Index i = 0; i < m.size(); ++i) pod(m.data()[i]);
    return *this;
  }
};

}  // namespace

TEST(Serialize, FileLayoutIsPinned) {
  // Stored factors outlive the code that wrote them: the byte layout of
  // both kinds is fixed.
  const std::string path = ::testing::TempDir() + "/lra_layout.fact";
  LuCrtpResult lu;
  lu.status = Status::kConverged;
  lu.rank = 2;
  lu.iterations = 1;
  lu.anorm_f = 3.5;
  lu.indicator = 0.25;
  lu.mu = 1.5;
  lu.l = CscMatrix(3, 2, {0, 2, 3}, {0, 2, 1}, {1.0, -2.0, 4.0});
  lu.u = CscMatrix(2, 3, {0, 1, 2, 3}, {0, 1, 0}, {5.0, 6.0, 7.0});
  lu.row_perm = {2, 0, 1};
  lu.col_perm = {1, 2, 0};
  save_factorization(path, lu);
  Image want_lu;
  want_lu.header('L')
      .pod<std::int32_t>(static_cast<std::int32_t>(lu.status))
      .pod<std::int64_t>(lu.rank)
      .pod<std::int64_t>(lu.iterations)
      .pod(lu.anorm_f)
      .pod(lu.indicator)
      .pod(lu.mu)
      .csc(lu.l)
      .csc(lu.u)
      .vec(lu.row_perm)
      .vec(lu.col_perm);
  EXPECT_EQ(slurp(path), want_lu.bytes);

  RandQbResult qb;
  qb.status = Status::kMaxIterations;
  qb.rank = 2;
  qb.iterations = 3;
  qb.anorm_f = 9.0;
  qb.indicator = 0.125;
  qb.q = Matrix(3, 2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  qb.b = Matrix(2, 1, {-1.0, 0.5});
  save_factorization(path, qb);
  Image want_qb;
  want_qb.header('Q')
      .pod<std::int32_t>(static_cast<std::int32_t>(qb.status))
      .pod<std::int64_t>(qb.rank)
      .pod<std::int64_t>(qb.iterations)
      .pod(qb.anorm_f)
      .pod(qb.indicator)
      .matrix(qb.q)
      .matrix(qb.b);
  EXPECT_EQ(slurp(path), want_qb.bytes);
  std::remove(path.c_str());
}

TEST(Serialize, KindMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/lra_mix.fact";
  LuCrtpResult lu;
  lu.l = CscMatrix(2, 1);
  lu.u = CscMatrix(1, 2);
  lu.row_perm = identity_perm(2);
  lu.col_perm = identity_perm(2);
  save_factorization(path, lu);
  EXPECT_THROW(load_qb_factorization(path), std::runtime_error);
  RandQbResult qb;
  qb.q = Matrix(2, 1);
  qb.b = Matrix(1, 2);
  save_factorization(path, qb);
  EXPECT_THROW(load_lu_factorization(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/lra_garbage.fact";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a factorization", f);
    std::fclose(f);
  }
  EXPECT_THROW(stored_factorization_kind(path), std::runtime_error);
  EXPECT_THROW(load_lu_factorization(path), std::runtime_error);
  EXPECT_THROW(load_qb_factorization(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_lu_factorization("/nonexistent/x.fact"),
               std::runtime_error);
}

// --- corrupted-payload hardening: the same ByteReader bounds checks that let
// --- the fault harness turn in-flight bit-flips into structured errors must
// --- also hold for on-disk factorizations.

TEST(Serialize, SingleBitFlipsNeverCrashTheLoader) {
  // Flip one bit at a time across the whole file and reload. A flip in a
  // numeric payload may load "successfully" with a different value — that is
  // the transport checksum's job to catch, not the reader's — but a flip in
  // a header, kind tag or length prefix must throw a structured exception,
  // and no flip may crash or read out of bounds (the ASan/UBSan harness
  // config enforces the latter).
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(12, 12, 17), 0.6);
  LuCrtpOptions o;
  o.block_size = 4;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  const std::string path = ::testing::TempDir() + "/lra_flip.fact";
  save_factorization(path, r);
  const std::vector<unsigned char> clean = slurp(path);
  ASSERT_GT(clean.size(), 64u);

  int loaded = 0, rejected = 0;
  // Dense coverage over the header region, strided over the payload tail
  // (the tail is homogeneous numeric data; a prime stride still samples
  // every byte offset class).
  const std::size_t nbits = 8 * clean.size();
  for (std::size_t bit = 0; bit < nbits; bit += (bit < 1024 ? 1 : 131)) {
    std::vector<unsigned char> mutated = clean;
    mutated[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    spit(path, mutated);
    try {
      (void)load_lu_factorization(path);
      ++loaded;
    } catch (const std::exception&) {
      ++rejected;  // structured error: out_of_range / runtime_error
    }
  }
  EXPECT_GT(rejected, 0);  // header flips must not pass silently
  std::remove(path.c_str());
}

TEST(Serialize, PermutationEntryBitFlipsAreRejected) {
  // One flipped bit in a stored permutation entry leaves a duplicate or an
  // out-of-range index. The loader must throw, never hand back factors whose
  // application indexes out of bounds (`lra_cli verify` crashed on one).
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(12, 12, 17), 0.6);
  LuCrtpOptions o;
  o.block_size = 4;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  const std::string path = ::testing::TempDir() + "/lra_perm_flip.fact";
  save_factorization(path, r);
  const std::vector<unsigned char> clean = slurp(path);
  // col_perm is the file's last section, row_perm the one before it; each
  // is a length prefix followed by its entries.
  const std::size_t col_bytes = r.col_perm.size() * sizeof(Index);
  const std::size_t row_bytes = r.row_perm.size() * sizeof(Index);
  const std::size_t col_at = clean.size() - col_bytes;
  const std::size_t row_at = col_at - sizeof(std::uint64_t) - row_bytes;
  ASSERT_EQ(std::memcmp(&clean[col_at], r.col_perm.data(), col_bytes), 0);
  ASSERT_EQ(std::memcmp(&clean[row_at], r.row_perm.data(), row_bytes), 0);
  for (const auto& [at, bytes] : {std::pair{row_at, row_bytes},
                                  std::pair{col_at, col_bytes}}) {
    for (std::size_t bit = 8 * at; bit < 8 * (at + bytes); ++bit) {
      std::vector<unsigned char> mutated = clean;
      mutated[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      spit(path, mutated);
      EXPECT_THROW(load_lu_factorization(path), std::runtime_error)
          << "bit " << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, InconsistentFactorShapesAreRejected) {
  const std::string path = ::testing::TempDir() + "/lra_shapes.fact";
  LuCrtpResult lu;
  lu.l = CscMatrix(6, 3);
  lu.u = CscMatrix(3, 5);
  lu.row_perm = identity_perm(6);
  lu.col_perm = identity_perm(5);
  save_factorization(path, lu);
  EXPECT_NO_THROW(load_lu_factorization(path));  // the consistent baseline

  LuCrtpResult bad = lu;
  bad.u = CscMatrix(4, 5);  // L has 3 columns
  save_factorization(path, bad);
  EXPECT_THROW(load_lu_factorization(path), std::runtime_error);
  bad = lu;
  bad.row_perm = identity_perm(5);  // L has 6 rows
  save_factorization(path, bad);
  EXPECT_THROW(load_lu_factorization(path), std::runtime_error);
  bad = lu;
  bad.col_perm = identity_perm(6);  // U has 5 columns
  save_factorization(path, bad);
  EXPECT_THROW(load_lu_factorization(path), std::runtime_error);

  RandQbResult qb;
  qb.q = Matrix(6, 3);
  qb.b = Matrix(3, 5);
  save_factorization(path, qb);
  EXPECT_NO_THROW(load_qb_factorization(path));
  qb.b = Matrix(4, 5);  // Q has 3 columns
  save_factorization(path, qb);
  EXPECT_THROW(load_qb_factorization(path), std::runtime_error);
  std::remove(path.c_str());
}

namespace {

// In the file image `bytes`, where m's row indices are stored verbatim,
// overwrite the second row index of m's first column holding two entries:
// with the first one (`repeat`), or by swapping the pair. False when m has
// no such column or its indices are not found.
bool corrupt_row_pair(std::vector<unsigned char>& bytes, const CscMatrix& m,
                      bool repeat) {
  const auto* needle =
      reinterpret_cast<const unsigned char*>(m.rowind().data());
  const auto at = std::search(bytes.begin(), bytes.end(), needle,
                              needle + m.nnz() * sizeof(Index));
  if (at == bytes.end()) return false;
  for (Index j = 0; j < m.cols(); ++j) {
    if (m.col_nnz(j) < 2) continue;
    const auto first = at + static_cast<long>(m.colptr()[j] * sizeof(Index));
    const auto second = first + sizeof(Index);
    if (repeat)
      std::copy(first, second, second);
    else
      std::swap_ranges(first, second, second);
    return true;
  }
  return false;
}

}  // namespace

TEST(Serialize, UnsortedOrRepeatedRowIndicesAreRejected) {
  // A column whose row indices do not strictly increase passes the pointer
  // and range checks, but breaks the CSC invariant every kernel relies on:
  // the loader must refuse it with the structured error.
  const CscMatrix a = test_matrix();
  const std::string path = ::testing::TempDir() + "/lra_rows.fact";
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  for (const bool repeat : {false, true}) {
    save_factorization(path, r);
    std::vector<unsigned char> bytes = slurp(path);
    ASSERT_TRUE(corrupt_row_pair(bytes, r.l, repeat));
    spit(path, bytes);
    EXPECT_THROW(load_lu_factorization(path), std::runtime_error)
        << "repeat " << repeat;
  }
  std::remove(path.c_str());
}

TEST(Serialize, TruncationAtEveryPrefixLengthThrows) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(12, 12, 17), 0.6);
  RandQbOptions o;
  o.block_size = 4;
  o.tau = 1e-2;
  const RandQbResult r = randqb_ei(a, o);
  const std::string path = ::testing::TempDir() + "/lra_trunc.fact";
  save_factorization(path, r);
  const std::vector<unsigned char> clean = slurp(path);
  ASSERT_GT(clean.size(), 16u);
  for (std::size_t len = 0; len < clean.size(); len += 7) {
    spit(path, std::vector<unsigned char>(clean.begin(),
                                          clean.begin() + static_cast<long>(len)));
    EXPECT_THROW(load_qb_factorization(path), std::exception)
        << "prefix length " << len;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lra
