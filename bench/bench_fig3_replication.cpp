// Fig 3 — vertex replication factor as a function of the partition count —
// extended into the partitioner × algorithm locality matrix (ISSUE 10).
//
// Part 1 keeps the paper's figure: replication r(p) vs partition count for
// six suite graphs under the contiguous Algorithm-1 split (sub-linear
// growth; social graphs replicate hardest, the road network barely at all;
// worst case |E|/|V|).
//
// Part 2 sweeps every registered PartitionerRegistry strategy over one
// social suite graph and runs every registered algorithm on each build,
// emitting one JSON row per (partitioner, algorithm) pair:
//
//   {"bench":"fig3_matrix","graph":...,"partitioner":...,"partitions":N,
//    "replication":r,"replication_direct":r0,"edge_imbalance":e,
//    "vertex_imbalance":v,"algorithm":CODE,"seconds":s}
//
// "replication_direct" is r(p) of a *direct* make_partitioning() on the
// raw edge list at the same resolved P — the pre-registry build path.  For
// the contiguous baseline the registry build must reproduce it bit-for-bit
// (the assign stage collapses to the identity), and the bench-smoke CI
// gate asserts replication == replication_direct exactly on those rows.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/registry.hpp"
#include "partition/replication.hpp"
#include "runners.hpp"
#include "suite.hpp"
#include "sys/table.hpp"

using namespace grind;

int main() {
  const double scale = bench::suite_scale();
  const int rounds = bench::suite_rounds();

  // ---- Part 1: the paper's Fig 3 (contiguous baseline) -------------------
  const char* graphs[] = {"Twitter",  "Friendster", "Orkut",
                          "USAroad",  "LiveJournal", "Powerlaw"};
  const part_t counts[] = {2, 4, 8, 16, 32, 64, 128, 192, 256, 384};

  Table t("Fig 3: replication factor r(p), partitioning by destination");
  std::vector<std::string> head = {"Partitions"};
  for (const char* g : graphs) head.emplace_back(g);
  t.header(head);

  std::vector<graph::EdgeList> els;
  els.reserve(std::size(graphs));
  for (const char* g : graphs) els.push_back(bench::make_suite_graph(g, scale));

  for (part_t p : counts) {
    std::vector<std::string> row = {std::to_string(p)};
    for (const auto& el : els) {
      const auto parts = partition::make_partitioning(el, p);
      row.push_back(Table::num(partition::replication_factor(el, parts), 2));
    }
    t.row(row);
  }
  std::cout << t << '\n';

  Table w("Worst-case replication |E|/|V| (§II-D)");
  w.header({"Graph", "r_max"});
  for (std::size_t i = 0; i < std::size(graphs); ++i)
    w.row({graphs[i], Table::num(partition::worst_case_replication(els[i]), 1)});
  std::cout << w << '\n';

  // ---- Part 2: partitioner × algorithm matrix ----------------------------
  const std::string matrix_graph = "Twitter";
  const part_t matrix_parts = 64;
  const graph::EdgeList matrix_el =
      bench::make_suite_graph(matrix_graph, scale);

  Table m("partitioner x algorithm matrix: " + matrix_graph +
          " at P=" + std::to_string(matrix_parts));
  m.header({"partitioner", "r(p)", "edge imb", "vertex imb", "slowest algo"});

  for (const auto* pdesc : partition::PartitionerRegistry::instance()
                               .entries()) {
    graph::BuildOptions bopts;
    bopts.num_partitions = matrix_parts;
    bopts.partitioner = pdesc->name;
    const auto g = graph::Graph::build(graph::EdgeList(matrix_el), bopts);

    const auto& pe = g.partitioning_edges();
    const double repl = partition::replication_factor(g.csr(), pe);
    // The pre-registry build path at the same resolved P, on the raw edge
    // list — the contiguous rows' bit-for-bit anchor.
    const auto direct =
        partition::make_partitioning(matrix_el, pe.num_partitions());
    const double repl_direct =
        partition::replication_factor(matrix_el, direct);

    engine::Engine eng(g);
    const vid_t source = g.num_vertices() > 0 ? g.max_out_degree_source() : 0;

    std::string slowest;
    double slowest_s = -1.0;
    for (const std::string& code : bench::algorithm_codes()) {
      const double s = bench::time_algorithm(code, eng, source, rounds);
      if (s > slowest_s) slowest_s = s, slowest = code;
      std::printf(
          "{\"bench\":\"fig3_matrix\",\"graph\":\"%s\","
          "\"partitioner\":\"%s\",\"partitions\":%u,"
          "\"replication\":%.17g,\"replication_direct\":%.17g,"
          "\"edge_imbalance\":%.6f,\"vertex_imbalance\":%.6f,"
          "\"algorithm\":\"%s\",\"seconds\":%.6f}\n",
          matrix_graph.c_str(), pdesc->name.c_str(),
          static_cast<unsigned>(pe.num_partitions()), repl, repl_direct,
          pe.edge_imbalance(), pe.vertex_imbalance(), code.c_str(), s);
    }
    m.row({pdesc->name, Table::num(repl, 3), Table::num(pe.edge_imbalance(), 3),
           Table::num(pe.vertex_imbalance(), 3),
           slowest + " (" + Table::num(slowest_s * 1e3, 2) + " ms)"});
  }
  std::cout << m << '\n'
            << "Expected: replication and imbalance move in opposite "
               "directions across strategies (the tradeoff space of "
               "SNIPPETS.md §2); contiguous rows must satisfy "
               "replication == replication_direct bit-for-bit.\n";
  return 0;
}
