#include "graph/csr.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sys/parallel.hpp"

namespace grind::graph {

namespace {
// Rows per dynamic-schedule claim of the row sort: most rows of a skewed
// graph have degree < 2, so claiming them one at a time costs more than
// sorting them.
constexpr std::size_t kRowSortChunk = 256;
}  // namespace

Csr Csr::bucket(std::span<const Edge> es, vid_t n, Adjacency adj) {
  Csr g;
  g.adj_ = adj;
  const eid_t m = es.size();
  // The row endpoint and the stored one, as member pointers: a fixed
  // offset per build instead of a branch per edge.
  const vid_t Edge::*row = adj == Adjacency::kOut ? &Edge::src : &Edge::dst;
  const vid_t Edge::*other = adj == Adjacency::kOut ? &Edge::dst : &Edge::src;
  // Stable: each row receives its edges in the order of `es`.  The arrays
  // are sized uninitialised; stable_bucket writes every element, each from
  // the thread that owns its row.
  g.offsets_.resize(static_cast<std::size_t>(n) + 1);
  g.neighbors_.resize(m);
  g.weights_.resize(m);
  stable_bucket(
      m, n, [&](std::size_t i) { return es[i].*row; }, g.offsets_.data(),
      [&](eid_t slot, std::size_t i) {
        g.neighbors_[slot] = es[i].*other;
        g.weights_[slot] = es[i].weight;
      });
  return g;
}

Csr Csr::from_ordered_edges(std::span<const Edge> es, vid_t n, Adjacency adj) {
  check_endpoints(es, n, Endpoints::kBoth, "Csr::from_ordered_edges");
  return bucket(es, n, adj);
}

Csr Csr::build(const EdgeList& el, Adjacency adj) {
  check_endpoints(el.edges(), el.num_vertices(), Endpoints::kBoth,
                  "Csr::build");
  Csr g = bucket(el.edges(), el.num_vertices(), adj);

  // Sort each adjacency list ascending, carrying weights, to produce the
  // canonical layout of Fig 1 and deterministic traversal order.  The rows
  // arrive in edge-list order and the sort is stable, so duplicate edges
  // keep that order: the one tie order every layout shares.
  using Row = std::vector<std::pair<vid_t, weight_t>>;
  parallel_for_dynamic_scratch<Row>(
      0, g.num_vertices(),
      [&](std::size_t v, Row& tmp) {
        const eid_t lo = g.offsets_[v];
        const eid_t deg = g.offsets_[v + 1] - lo;
        if (deg < 2) return;
        tmp.resize(deg);
        for (eid_t i = 0; i < deg; ++i)
          tmp[i] = {g.neighbors_[lo + i], g.weights_[lo + i]};
        std::stable_sort(
            tmp.begin(), tmp.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        for (eid_t i = 0; i < deg; ++i) {
          g.neighbors_[lo + i] = tmp[i].first;
          g.weights_[lo + i] = tmp[i].second;
        }
      },
      kRowSortChunk);

  return g;
}

}  // namespace grind::graph
