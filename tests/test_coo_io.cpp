#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sparse/coo.hpp"
#include "sparse/io_mm.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(Coo, DuplicatesAreSummed) {
  CooBuilder b(3, 3);
  b.add(1, 2, 2.0);
  b.add(1, 2, 3.0);
  b.add(0, 0, 1.0);
  const CscMatrix a = b.build();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.coeff(1, 2), 5.0);
}

TEST(Coo, CancellingDuplicatesVanish) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.5);
  b.add(0, 1, -1.5);
  const CscMatrix a = b.build();
  EXPECT_EQ(a.nnz(), 0);
}

TEST(Coo, RepeatedEntriesSumInInsertionOrder) {
  // (1e16 - 1e16) + 1 is 1, but 1e16 + 1 rounds back to 1e16, so every other
  // order of the three values sums to 0: only insertion order gives 1. Each
  // of 2,400 positions gets the three values in three passes over the matrix
  // in reverse order, so a comparison sort would be free to reorder them.
  const Index m = 60, n = 40;
  CooBuilder b(m, n);
  for (double v : {1e16, -1e16, 1.0})
    for (Index j = n - 1; j >= 0; --j)
      for (Index i = m - 1; i >= 0; --i) b.add(i, j, v);
  const CscMatrix a = b.build();
  EXPECT_TRUE(a.structurally_valid());
  ASSERT_EQ(a.nnz(), m * n);
  for (double v : a.values()) ASSERT_EQ(v, 1.0);
}

TEST(Coo, UnsortedInputSortedOutput) {
  CooBuilder b(4, 4);
  b.add(3, 3, 1.0);
  b.add(0, 0, 2.0);
  b.add(2, 1, 3.0);
  b.add(0, 1, 4.0);
  const CscMatrix a = b.build();
  EXPECT_TRUE(a.structurally_valid());
  EXPECT_EQ(a.coeff(2, 1), 3.0);
}

TEST(MatrixMarket, WriteReadRoundtrip) {
  const Matrix d = testing::random_matrix(9, 6, 81);
  const CscMatrix a = CscMatrix::from_dense(d, 0.6);
  const std::string path = ::testing::TempDir() + "/lra_roundtrip.mtx";
  write_matrix_market(a, path);
  const CscMatrix b = read_matrix_market(path);
  EXPECT_EQ(b.rows(), a.rows());
  EXPECT_EQ(b.cols(), a.cols());
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_NEAR(max_abs_diff(a.to_dense(), b.to_dense()), 0.0, 1e-15);
  std::remove(path.c_str());
}

TEST(MatrixMarket, ReadsSymmetricExpansion) {
  const std::string path = ::testing::TempDir() + "/lra_sym.mtx";
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate real symmetric\n";
    os << "% a comment line\n";
    os << "3 3 3\n";
    os << "1 1 2.0\n2 1 -1.0\n3 3 5.0\n";
  }
  const CscMatrix a = read_matrix_market(path);
  EXPECT_EQ(a.nnz(), 4);  // off-diagonal mirrored
  EXPECT_EQ(a.coeff(0, 1), -1.0);
  EXPECT_EQ(a.coeff(1, 0), -1.0);
  EXPECT_EQ(a.coeff(2, 2), 5.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, ReadsPatternAsOnes) {
  const std::string path = ::testing::TempDir() + "/lra_pat.mtx";
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate pattern general\n";
    os << "2 2 2\n";
    os << "1 2\n2 1\n";
  }
  const CscMatrix a = read_matrix_market(path);
  EXPECT_EQ(a.coeff(0, 1), 1.0);
  EXPECT_EQ(a.coeff(1, 0), 1.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/lra_bad.mtx";
  {
    std::ofstream os(path);
    os << "not a matrix market file\n";
  }
  EXPECT_THROW(read_matrix_market(path), std::runtime_error);
  EXPECT_THROW(read_matrix_market("/nonexistent/file.mtx"), std::runtime_error);
  std::remove(path.c_str());
}

// Writes `body` to a temp file, reads it back, and returns the error message
// (empty if the read succeeded).
std::string read_error(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream os(path);
    os << body;
  }
  std::string what;
  try {
    read_matrix_market(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

const char* const kGeneral = "%%MatrixMarket matrix coordinate real general\n";

TEST(MatrixMarket, RejectsOutOfRangeIndices) {
  const std::string row = read_error("lra_oor_row.mtx",
                                     std::string(kGeneral) + "2 3 2\n1 1 1.0\n3 1 2.0\n");
  EXPECT_NE(row.find("entry 2"), std::string::npos) << row;
  EXPECT_NE(row.find("outside the 2 x 3 size line"), std::string::npos) << row;
  EXPECT_NE(read_error("lra_oor_col.mtx", std::string(kGeneral) + "2 3 1\n1 4 1.0\n")
                .find("index (1, 4)"),
            std::string::npos);
  // Matrix Market indices are 1-based: zero and negative ones are invalid.
  EXPECT_NE(read_error("lra_zero.mtx", std::string(kGeneral) + "2 2 1\n0 1 1.0\n")
                .find("index (0, 1)"),
            std::string::npos);
  EXPECT_NE(read_error("lra_neg.mtx", std::string(kGeneral) + "2 2 1\n1 -2 1.0\n")
                .find("index (1, -2)"),
            std::string::npos);
  EXPECT_NE(read_error("lra_pat_oor.mtx",
                       "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n")
                .find("outside"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsNonSquareSymmetric) {
  EXPECT_NE(read_error("lra_symrect.mtx",
                       "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n")
                .find("must be square"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsNonFiniteValues) {
  for (const char* v : {"nan", "NaN", "inf", "-inf", "1e999"}) {
    const std::string what = read_error(
        "lra_nonfinite.mtx", std::string(kGeneral) + "2 2 2\n1 1 1.0\n2 2 " + v + "\n");
    EXPECT_NE(what.find("entry 2: non-finite value"), std::string::npos)
        << v << ": " << what;
  }
  EXPECT_NE(read_error("lra_badval.mtx", std::string(kGeneral) + "1 1 1\n1 1 1.5x\n")
                .find("bad value '1.5x'"),
            std::string::npos);
}

TEST(MatrixMarket, HugeEntryCountInSizeLineIsNotReservedUpFront) {
  // A one-line header claiming ~2^62 entries must fail on the missing data,
  // not on an attempt to allocate storage for the claimed count.
  const std::string what = read_error(
      "lra_huge.mtx", std::string(kGeneral) + "4 4 4611686018427387904\n1 1 1.0\n");
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  const std::string sym = read_error(
      "lra_huge_sym.mtx",
      "%%MatrixMarket matrix coordinate real symmetric\n4 4 4611686018427387904\n");
  EXPECT_NE(sym.find("truncated"), std::string::npos) << sym;
}

TEST(MatrixMarket, RejectsDimensionsAboveTheCap) {
  // Two lines claiming 2^40 columns: building the CSC column pointers alone
  // would need 8 TiB, so the size line itself must be refused.
  const std::string wide =
      read_error("lra_wide.mtx", std::string(kGeneral) + "1 1099511627776 0\n");
  EXPECT_NE(wide.find("size line 1 x 1099511627776 exceeds the dimension cap"),
            std::string::npos)
      << wide;
  const std::string tall = read_error(
      "lra_tall.mtx", std::string(kGeneral) + "134217729 1 1\n1 1 1.0\n");
  EXPECT_NE(tall.find("size line 134217729 x 1"), std::string::npos) << tall;
}

TEST(MatrixMarket, AcceptsTinyAndIntegerValues) {
  const std::string path = ::testing::TempDir() + "/lra_tiny.mtx";
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n"
       << "2 2 4.9406564584124654e-324\n";
  }
  const CscMatrix a = read_matrix_market(path);
  EXPECT_EQ(a.coeff(0, 0), 3.0);
  EXPECT_GT(a.coeff(1, 1), 0.0);  // the smallest subnormal survives
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lra
