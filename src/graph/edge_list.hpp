// Coordinate-list (COO) edge container and the normalisation passes every
// loader/generator runs before layout construction.
//
// The COO representation "lists all edges as a pair of source and destination
// vertices" (§I).  Storage cost is 2|E|·bv (+|E| weights when weighted),
// independent of the number of partitions — the property that makes COO the
// only layout scalable to hundreds of partitions (§II-E).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sys/types.hpp"

namespace grind::graph {

/// A mutable list of directed edges plus the vertex-count bound.
/// Invariant after normalize(): every endpoint < num_vertices().
class EdgeList {
 public:
  EdgeList() = default;
  EdgeList(vid_t num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  [[nodiscard]] vid_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] eid_t num_edges() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }

  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] std::span<Edge> edges() { return edges_; }
  [[nodiscard]] const Edge& edge(eid_t i) const { return edges_[i]; }

  /// Append one edge; grows the vertex bound to cover the endpoints.
  void add(vid_t src, vid_t dst, weight_t w = 1.0f);

  /// Reserve storage for `n` edges.
  void reserve(eid_t n) { edges_.reserve(n); }

  /// Explicitly set the vertex-count bound (must cover all endpoints).
  void set_num_vertices(vid_t n) { num_vertices_ = n; }

  /// Remove self-loops (in place, stable).  Returns edges removed.
  eid_t remove_self_loops();

  /// Remove duplicate (src,dst) pairs, keeping the first occurrence.
  /// Sorts the list by (src,dst) as a side effect.  Returns edges removed.
  eid_t deduplicate();

  /// Make the graph undirected by adding the reverse of every edge (weights
  /// copied), then deduplicating.  Matches how the SNAP undirected graphs
  /// (Orkut, USAroad, Yahoo) are materialised for directed traversal.
  void symmetrize();

  /// Out-degree of every vertex (parallel count).
  [[nodiscard]] std::vector<eid_t> out_degrees() const;

  /// In-degree of every vertex (parallel count).
  [[nodiscard]] std::vector<eid_t> in_degrees() const;

  /// Sum over active source vertices used in frontier bookkeeping tests.
  [[nodiscard]] eid_t max_degree() const;

  /// Sort edges by (src, dst) — CSR order.
  void sort_by_source();

  /// Sort edges by (dst, src) — CSC order.
  void sort_by_destination();

 private:
  vid_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

/// Which endpoints of an edge check_endpoints() range-checks.
enum class Endpoints { kSource, kDestination, kBoth };

/// Throw std::out_of_range, naming `who` and the first offending edge, if
/// any checked endpoint of `es` is >= `bound`.  The scan is parallel and the
/// throw happens after it, so the layout builders call this before their
/// own parallel passes, which must not throw.
void check_endpoints(std::span<const Edge> es, vid_t bound, Endpoints which,
                     const char* who);

}  // namespace grind::graph
