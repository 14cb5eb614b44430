#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace lra {
namespace {

TEST(TablePrinter, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 3);
  t.row().cell("b").cell(12345LL);
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinter, CellBeforeRowStartsARow) {
  Table t({"x"});
  t.cell("implicit");
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TablePrinter, CsvRoundTrip) {
  Table t({"a", "b"});
  t.row().cell("x").cell(2LL);
  t.row().cell("y").cell(3.5, 2);
  const std::string path = ::testing::TempDir() + "/lra_table.csv";
  t.write_csv(path);
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "x,2");
  std::remove(path.c_str());
}

TEST(TablePrinter, SciFormatsLikeThePaper) {
  EXPECT_EQ(sci(3.3e5, 1), "3.3e+05");
  EXPECT_EQ(sci(1.5e-5, 1), "1.5e-05");
  EXPECT_EQ(sci(1e-1, 0), "1e-01");
}

TEST(CliParser, EqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--tau=1e-3", "--k", "32", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("tau", 0.0), 1e-3);
  EXPECT_EQ(cli.get_int("k", 0), 32);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
}

TEST(CliParser, ListParsing) {
  const char* argv[] = {"prog", "--np=1,2,4", "--tau=1e-1,1e-2"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int_list("np", {}), (std::vector<long long>{1, 2, 4}));
  const auto taus = cli.get_double_list("tau", {});
  ASSERT_EQ(taus.size(), 2u);
  EXPECT_DOUBLE_EQ(taus[0], 1e-1);
  EXPECT_EQ(cli.get_int_list("absent", {7}), (std::vector<long long>{7}));
}

TEST(CliParser, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Cli(2, const_cast<char**>(argv)), std::runtime_error);
}

TEST(CliParser, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(CliParser, FlagsNeverReadAreUnknown) {
  const char* argv[] = {"prog", "--tau=1e-3", "--tua=1e-9", "--k=8"};
  const Cli cli(4, const_cast<char**>(argv));
  (void)cli.get_int("k", 32);
  (void)cli.get_double("tau", 1e-2);
  (void)cli.has("absent");  // asking for an absent flag is fine
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // pool threads
  EXPECT_EXIT(cli.reject_unread(), ::testing::ExitedWithCode(2),
              "error: unknown flag --tua");
  (void)cli.get("tua", "");
  cli.reject_unread();  // returns: every flag was read
}

TEST(CliParser, NumericValuesMustParseCompletely) {
  // Each bad value exits 2 naming the flag and the value, as an unknown
  // flag does, instead of running on a prefix (0.05x as 0.05) or dying in
  // std::stoll without context.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // pool threads
  const char* argv[] = {"prog",         "--scale=0.05x", "--k=abc",
                        "--n=",         "--big=99999999999999999999",
                        "--tiny=1e999", "--np=1,x,4",    "--tau=1e-1,",
                        "--ok=-12",     "--eps=2.5e-3",  "--list=1,2,4"};
  const Cli cli(11, const_cast<char**>(argv));
  EXPECT_EXIT((void)cli.get_double("scale", 1.0),
              ::testing::ExitedWithCode(2), "--scale: '0.05x'");
  EXPECT_EXIT((void)cli.get_int("k", 8), ::testing::ExitedWithCode(2),
              "--k: 'abc'");
  EXPECT_EXIT((void)cli.get_int("n", 8), ::testing::ExitedWithCode(2),
              "--n: ''");
  EXPECT_EXIT((void)cli.get_int("big", 8), ::testing::ExitedWithCode(2),
              "--big: '99999999999999999999' \\(out of range\\)");
  EXPECT_EXIT((void)cli.get_double("tiny", 1.0), ::testing::ExitedWithCode(2),
              "--tiny: '1e999' \\(out of range\\)");
  EXPECT_EXIT((void)cli.get_int_list("np", {}), ::testing::ExitedWithCode(2),
              "--np: 'x'");
  EXPECT_EXIT((void)cli.get_double_list("tau", {}),
              ::testing::ExitedWithCode(2), "--tau: ''");
  EXPECT_EQ(cli.get_int("ok", 0), -12);
  EXPECT_EQ(cli.get_double("eps", 0.0), 2.5e-3);
  EXPECT_EQ(cli.get_int_list("list", {}), (std::vector<long long>{1, 2, 4}));
}

TEST(StopwatchTest, MeasuresElapsedWallTime) {
  Stopwatch w;
  volatile double s = 0.0;
  for (int i = 0; i < 2000000; ++i) s = s + i * 0.5;
  EXPECT_GT(w.seconds(), 0.0);
  const double t1 = w.seconds();
  w.reset();
  EXPECT_LT(w.seconds(), t1 + 1.0);
}

TEST(StopwatchTest, ThreadCpuTimeAdvancesUnderLoad) {
  const double t0 = thread_cpu_seconds();
  volatile double s = 0.0;
  for (int i = 0; i < 5000000; ++i) s = s + static_cast<double>(i);
  EXPECT_GT(thread_cpu_seconds(), t0);
}

}  // namespace
}  // namespace lra
