// Fig 10 — strong scaling of PRDelta versus thread count on Twitter-like
// and Friendster-like, for all four systems.
//
// Paper shape: every system speeds up with threads; GG-v2 scales furthest
// (10x from 4→48 threads on Friendster vs Polymer's 6x) because the COO
// partitions keep load balanced and atomic-free at high thread counts.
#include <algorithm>
#include <iostream>

#include "baselines/chunked.hpp"
#include "engine/engine.hpp"
#include "runners.hpp"
#include "suite.hpp"
#include "sys/parallel.hpp"
#include "sys/table.hpp"

using namespace grind;

namespace {

void report(const std::string& graph_name) {
  const auto el = bench::make_suite_graph(graph_name, bench::suite_scale());
  const auto g = graph::Graph::build(graph::EdgeList(el));
  const vid_t source = bench::max_out_degree_vertex(g);
  const int rounds = bench::suite_rounds();

  std::vector<int> threads = {1, 2, 4, 8, 12};
  const int hw = num_threads();
  if (std::find(threads.begin(), threads.end(), hw) == threads.end() &&
      hw > threads.back())
    threads.push_back(hw);

  Table t("Fig 10: PRDelta execution time [s] vs threads — " + graph_name +
          "-like");
  t.header({"Threads", "L", "P", "GG-v1", "GG-v2"});
  for (int nt : threads) {
    ThreadCountGuard guard(nt);
    std::vector<std::string> row = {std::to_string(nt)};
    {
      auto eng = baselines::ligra(g);
      row.push_back(
          Table::num(bench::time_algorithm("PRDelta", eng, source, rounds), 4));
    }
    {
      auto eng = baselines::polymer(g);
      row.push_back(
          Table::num(bench::time_algorithm("PRDelta", eng, source, rounds), 4));
    }
    {
      auto eng = baselines::graphgrind_v1(g);
      row.push_back(
          Table::num(bench::time_algorithm("PRDelta", eng, source, rounds), 4));
    }
    {
      engine::Engine eng(g);
      row.push_back(
          Table::num(bench::time_algorithm("PRDelta", eng, source, rounds), 4));
    }
    t.row(row);
  }
  std::cout << t << '\n';
}

}  // namespace

int main() {
  report("Twitter");
  report("Friendster");
  std::cout << "Expected (paper): all systems scale with threads; GG-v2 "
               "sustains the steepest curve to the full core count.\n";
  return 0;
}
