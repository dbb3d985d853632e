// NUMA locality of the domain-affine scheduler: for each domain count the
// bench sweeps, run the dense (partitioned-COO) and auto traversal loops at
// a fixed thread count and report how much of the partition work was served
// by home-domain threads vs stolen across domains — the §III-D property the
// arenas + scheduler exist to deliver.  The arena placement map (bytes per
// domain routed during the build) rides along so the storage side of the
// claim is visible in the same row.
//
// One JSON object per (domains × layout) configuration goes to stdout for
// the perf trajectory, e.g.:
//   {"bench":"numa_locality","graph":"Twitter","domains":4,"threads":8,
//    "partitions":384,"layout":"dense-coo","home_visits":...,
//    "stolen_visits":...,"home_visit_ratio":...,"home_weight_ratio":...,
//    "arena_bytes":[...],"physical":false,"pr_sum":...}
//
// The CI gate (ci.yml, numa-locality smoke) asserts home_visit_ratio >= 0.9
// at 4 domains x 8 threads for the forced dense-COO loop, and that pr_sum
// is identical across all domain counts (scheduling must never change
// results).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "suite.hpp"
#include "sys/arena.hpp"
#include "sys/parallel.hpp"
#include "sys/table.hpp"

using namespace grind;

namespace {

constexpr int kThreads = 8;  // the paper's 4 domains x 2 threads regime

struct Row {
  int domains;
  std::string layout;
  part_t partitions;
  std::uint64_t home = 0, stolen = 0;
  double visit_ratio = 1.0, weight_ratio = 1.0;
  double pr_sum = 0.0;
  std::vector<std::uint64_t> arena_bytes;
};

Row run_config(const graph::EdgeList& el, int domains, engine::Layout layout,
               const std::string& layout_name) {
  NumaArenas::instance().reset_stats();
  graph::BuildOptions bopts;
  bopts.numa_domains = domains;
  const graph::Graph g = graph::Graph::build(graph::EdgeList(el), bopts);

  Row row;
  row.domains = domains;
  row.layout = layout_name;
  row.partitions = g.partitioning_edges().num_partitions();
  for (int d = 0; d < domains; ++d)
    row.arena_bytes.push_back(NumaArenas::instance().bytes_on(d));

  engine::Options eopts;
  eopts.layout = layout;
  engine::Engine eng(g, eopts);

  // PageRank drives the partition-scheduled kernels every iteration; a BFS
  // from the hub adds the medium/dense mix of the auto decision path.
  algorithms::PageRankOptions popts;
  popts.iterations = 10;
  const auto pr = algorithms::pagerank(eng, popts);
  for (double r : pr.rank) row.pr_sum += r;
  algorithms::bfs(eng, g.max_out_degree_source());

  const auto& stats = eng.stats();
  row.home = stats.affinity.home_items;
  row.stolen = stats.affinity.stolen_items;
  row.visit_ratio = stats.home_visit_ratio();
  row.weight_ratio = stats.home_weight_ratio();
  return row;
}

void emit_json(const std::string& graph_name, const Row& r) {
  std::printf(
      "{\"bench\":\"numa_locality\",\"graph\":\"%s\",\"domains\":%d,"
      "\"threads\":%d,\"partitions\":%u,\"layout\":\"%s\","
      "\"home_visits\":%llu,\"stolen_visits\":%llu,"
      "\"home_visit_ratio\":%.4f,\"home_weight_ratio\":%.4f,"
      "\"arena_bytes\":[",
      graph_name.c_str(), r.domains, kThreads, r.partitions, r.layout.c_str(),
      static_cast<unsigned long long>(r.home),
      static_cast<unsigned long long>(r.stolen), r.visit_ratio,
      r.weight_ratio);
  for (std::size_t d = 0; d < r.arena_bytes.size(); ++d)
    std::printf("%s%llu", d == 0 ? "" : ",",
                static_cast<unsigned long long>(r.arena_bytes[d]));
  std::printf("],\"physical\":%s,\"pr_sum\":%.9f}\n",
              NumaArenas::physical() ? "true" : "false", r.pr_sum);
  std::fflush(stdout);
}

}  // namespace

int main() {
  const std::string graph_name = "Twitter";
  const graph::EdgeList el =
      bench::make_suite_graph(graph_name, bench::suite_scale());
  ThreadCountGuard threads(kThreads);

  std::vector<Row> rows;
  bool identical = true;
  for (int domains : {1, 2, 4, 8}) {
    for (const auto& [layout, name] :
         {std::pair{engine::Layout::kDenseCoo, std::string("dense-coo")},
          std::pair{engine::Layout::kAuto, std::string("auto")}}) {
      rows.push_back(run_config(el, domains, layout, name));
      emit_json(graph_name, rows.back());
      if (std::abs(rows.back().pr_sum - rows.front().pr_sum) > 1e-9)
        identical = false;
    }
  }

  Table t("NUMA locality — " + graph_name + "-like, " +
          std::to_string(kThreads) + " threads, " +
          (NumaArenas::physical() ? "physical placement" : "logical arenas"));
  t.header({"domains", "layout", "partitions", "home", "stolen", "visit %",
            "work %"});
  for (const auto& r : rows)
    t.row({Table::num(std::size_t{static_cast<std::size_t>(r.domains)}),
           r.layout, Table::num(std::size_t{r.partitions}),
           Table::num(r.home), Table::num(r.stolen),
           Table::num(r.visit_ratio * 100.0, 1),
           Table::num(r.weight_ratio * 100.0, 1)});
  std::cout << t;
  std::cout << "algorithm outputs identical across domain counts: "
            << (identical ? "yes" : "NO — scheduling changed results!")
            << "\n"
            << "Expected: 100% home-domain visits for dense-coo at every\n"
               "domain count (balanced COO buckets have no excess, so they\n"
               "are never stolen; CI gates >= 90% at 4 domains); auto rows\n"
               "steal the excess of the skewed CSC sub-chunk buckets; and\n"
               "identical pr_sum everywhere — the domain count may move\n"
               "pages and schedules, never results.\n";
  return identical ? 0 : 1;
}
