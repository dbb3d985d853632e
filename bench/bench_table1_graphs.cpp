// Table I — characterisation of the benchmark graph suite (the scaled
// stand-ins for the paper's data sets; bench/suite.hpp).
//
// Paper columns: Vertices | Edges | Type.  We add the degree statistics the
// substitution must preserve (edges-per-vertex regime and skew).
#include <algorithm>
#include <iostream>

#include "suite.hpp"
#include "sys/table.hpp"

using namespace grind;

int main() {
  const double scale = bench::suite_scale();
  Table t("Table I: benchmark graph suite (GG_SCALE=" +
          Table::num(scale, 2) + ")");
  t.header({"Graph", "Vertices", "Edges", "Type", "AvgDeg", "MaxOutDeg",
            "MaxInDeg"});

  for (const auto& entry : bench::suite()) {
    const auto el = bench::make_suite_graph(entry.name, scale);
    const auto out = el.out_degrees();
    const auto in = el.in_degrees();
    const eid_t max_out = *std::max_element(out.begin(), out.end());
    const eid_t max_in = *std::max_element(in.begin(), in.end());
    t.row({entry.name, Table::num(std::size_t{el.num_vertices()}),
           Table::num(std::size_t{el.num_edges()}),
           entry.undirected ? "undirected" : "directed",
           Table::num(static_cast<double>(el.num_edges()) /
                          static_cast<double>(el.num_vertices()),
                      1),
           Table::num(std::size_t{max_out}), Table::num(std::size_t{max_in})});
  }
  std::cout << t << '\n'
            << "Paper regime check: Twitter-like/Orkut-like are dense "
               "(high avg degree), USAroad-like is sparse (~4) with tiny "
               "max degree, social graphs have heavy-tailed max degrees.\n";
  return 0;
}
