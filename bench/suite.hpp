// The benchmark graph suite: scaled synthetic stand-ins for the paper's
// Table I data sets.  Names match
// the paper; shapes (directedness, degree skew, vertex:edge ratio regime)
// follow the originals at ≈1/500 scale.  GG_SCALE (env, default 1.0)
// multiplies sizes; all generators are seeded and deterministic.
#pragma once

#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"

namespace grind::bench {

struct SuiteEntry {
  std::string name;      ///< paper data-set name this stands in for
  bool undirected;       ///< symmetrised like the paper's undirected inputs
  std::string kind;      ///< generator family
};

/// The eight Table-I graphs, in the paper's order.
const std::vector<SuiteEntry>& suite();

/// Build one suite graph by name (throws std::invalid_argument on unknown
/// names).  `scale` multiplies the default size; callers normally pass
/// suite_scale().
graph::EdgeList make_suite_graph(const std::string& name, double scale = 1.0);

/// GG_SCALE from the environment (default 1.0).
double suite_scale();

/// GG_ROUNDS from the environment (default 3): timed repetitions per
/// measurement; benches report the mean as the paper does (§IV averages
/// over 20 executions — scaled down for harness runtime).
int suite_rounds();

/// A vertex with maximal out-degree — the conventional source for BFS/BC/
/// SSSP on social graphs (deterministic for a deterministic graph).
/// Returned in original-ID space, ready to pass to the algorithms.
vid_t max_out_degree_vertex(const graph::Graph& g);

}  // namespace grind::bench
