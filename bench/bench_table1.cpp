// Table I — inventory of the test matrices. Prints the synthetic analogs
// actually used (scaled by --scale) next to the paper's originals.
//
//   ./bench_table1 [--scale=0.25] [--matrices=M1,M2,...]

#include "bench_util.hpp"
#include "dense/svd.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.25);
  bench::configure_threads(cli);
  const std::vector<std::string> labels = bench::requested_labels(cli);
  cli.reject_unread();

  bench::print_header("Table I: test matrices",
                      "Table I of the paper (SuiteSparse originals)");

  struct PaperRow {
    const char* name;
    long long size, nnz;
  };
  const std::map<std::string, PaperRow> paper = {
      {"M1", {"bcsstk18", 11948, 149090}},
      {"M2", {"raefsky3", 21200, 1488768}},
      {"M3", {"onetone2", 36057, 222596}},
      {"M4", {"rajat23", 110355, 555441}},
      {"M5", {"mac_econ_fwd500", 206500, 1273389}},
      {"M6", {"circuit5M_dc", 3523317, 14865409}},
  };

  Table t({"label", "analog of", "size", "nnz", "nnz/row", "description",
           "paper size", "paper nnz"});
  for (const auto& label : labels) {
    const TestMatrix m = make_preset(label, scale);
    const auto& p = paper.at(label);
    t.row()
        .cell(label + "'")
        .cell(m.analog_of)
        .cell(m.a.rows())
        .cell(m.a.nnz())
        .cell(static_cast<double>(m.a.nnz()) / static_cast<double>(m.a.rows()), 3)
        .cell(m.description)
        .cell(p.size)
        .cell(p.nnz);
  }
  t.print(std::cout);
  t.write_csv("table1.csv");
  std::printf("\nwrote table1.csv\n");
  return 0;
}
