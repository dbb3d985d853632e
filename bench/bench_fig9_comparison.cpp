// Fig 9 — comparison against the state of the art: Ligra (L), Polymer (P),
// GraphGrind-v1 (GG-v1) and this work (GG-v2), all eight algorithms on the
// full suite.  Polymer and GG-v1 use 4 partitions (one per NUMA domain);
// GG-v2 uses 384 partitions for the CSC computation range and COO layout.
//
// Paper shape: GG-v2 wins broadly; the largest gains are on the edge-
// oriented delta workloads (PRDelta, BP); vertex-oriented gains are a few
// to ~40 %; USAroad is hard for everyone but GG-v2 still leads.
#include <iostream>

#include "baselines/chunked.hpp"
#include "engine/engine.hpp"
#include "runners.hpp"
#include "suite.hpp"
#include "sys/env.hpp"
#include "sys/table.hpp"

using namespace grind;

int main() {
  const double scale = bench::suite_scale();
  const int rounds = bench::suite_rounds();
  // The full 8x8x4 sweep is the default; GG_FIG9_GRAPHS can trim it, e.g.
  // GG_FIG9_GRAPHS=2 runs only Twitter and Friendster.
  const auto limit = static_cast<std::size_t>(
      env_int("GG_FIG9_GRAPHS", static_cast<int>(bench::suite().size())));

  double worst_ligra_speedup = 1e9, best_ligra_speedup = 0;
  double best_polymer_speedup = 0, best_v1_speedup = 0;

  std::size_t done = 0;
  for (const auto& entry : bench::suite()) {
    if (done++ >= limit) break;
    const auto el = bench::make_suite_graph(entry.name, scale);
    const auto g = graph::Graph::build(graph::EdgeList(el));
    const vid_t source = bench::max_out_degree_vertex(g);

    Table t("Fig 9: execution time [s] — " + entry.name + "-like (" +
            Table::num(std::size_t{g.num_edges()}) + " edges)");
    t.header({"Algorithm", "L", "P", "GG-v1", "GG-v2", "GG-v2 vs L"});

    for (const auto& code : bench::algorithm_codes()) {
      double tl, tp, t1, t2;
      {
        auto eng = baselines::ligra(g);
        tl = bench::time_algorithm(code, eng, source, rounds);
      }
      {
        auto eng = baselines::polymer(g);
        tp = bench::time_algorithm(code, eng, source, rounds);
      }
      {
        auto eng = baselines::graphgrind_v1(g);
        t1 = bench::time_algorithm(code, eng, source, rounds);
      }
      {
        engine::Engine eng(g);
        t2 = bench::time_algorithm(code, eng, source, rounds);
      }
      const double speedup = tl / t2;
      worst_ligra_speedup = std::min(worst_ligra_speedup, speedup);
      best_ligra_speedup = std::max(best_ligra_speedup, speedup);
      best_polymer_speedup = std::max(best_polymer_speedup, tp / t2);
      best_v1_speedup = std::max(best_v1_speedup, t1 / t2);
      t.row({code, Table::num(tl, 4), Table::num(tp, 4), Table::num(t1, 4),
             Table::num(t2, 4), Table::num(speedup, 2) + "x"});
    }
    std::cout << t << '\n';
  }

  std::cout << "Summary: GG-v2 speedup over Ligra in ["
            << Table::num(worst_ligra_speedup, 2) << "x, "
            << Table::num(best_ligra_speedup, 2) << "x]; best over Polymer "
            << Table::num(best_polymer_speedup, 2) << "x; best over GG-v1 "
            << Table::num(best_v1_speedup, 2) << "x.\n"
            << "Expected (paper): up to 4.34x over Ligra, 2.93x over "
               "Polymer, 1.45x over GG-v1 (largest on PRDelta/BP); exact "
               "magnitudes depend on scale and hardware.\n";
  return 0;
}
