// Compressed Sparse Row (CSR) and Compressed Sparse Column (CSC) layouts.
//
// CSR indexes the out-edges of every vertex; CSC indexes the in-edges
// (equivalently, CSC is the CSR of the transposed graph).  Both "effectively
// provide an index into the edge list, allowing efficient lookup of the
// edges incident to active vertices" (§I).  Storage (§II-E):
//     CSR / CSC of the whole graph:  |V|·be + |E|·bv   (+ |E| weights)
//
// The engine keeps one *whole-graph* CSR (for sparse forward traversal) and
// one *whole-graph* CSC (for medium-dense backward traversal with a
// partitioned computation range) — partitioning-by-destination does not
// change CSC edge order (§II-C), so the CSC is deliberately unpartitioned.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "sys/types.hpp"

namespace grind::graph {

/// Direction tag selecting which adjacency a Csr object indexes.
enum class Adjacency {
  kOut,  ///< CSR: neighbors(v) = out-neighbors, edge (v, n)
  kIn,   ///< CSC: neighbors(v) = in-neighbors, edge (n, v)
};

/// Immutable CSR/CSC index over a directed weighted graph.
///
/// offsets() has |V|+1 entries; the neighbors of v occupy
/// [offsets()[v], offsets()[v+1]) in neighbors()/weights().
class Csr {
 public:
  Csr() = default;

  /// Build from an edge list.  With Adjacency::kOut the neighbor arrays are
  /// grouped by source (CSR); with kIn they are grouped by destination (CSC).
  /// Within a group, neighbors are sorted ascending, matching Fig 1.
  /// Throws std::out_of_range if an endpoint is >= el.num_vertices().
  static Csr build(const EdgeList& el, Adjacency adj);

  [[nodiscard]] vid_t num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<vid_t>(offsets_.size() - 1);
  }
  [[nodiscard]] eid_t num_edges() const { return neighbors_.size(); }
  [[nodiscard]] Adjacency adjacency() const { return adj_; }

  [[nodiscard]] std::span<const eid_t> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const vid_t> neighbors() const { return neighbors_; }
  [[nodiscard]] std::span<const weight_t> weights() const { return weights_; }

  /// Degree of v in this adjacency (out-degree for CSR, in-degree for CSC).
  [[nodiscard]] eid_t degree(vid_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v as a span.
  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Weights aligned with neighbors(v).
  [[nodiscard]] std::span<const weight_t> weights(vid_t v) const {
    return {weights_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Bytes of storage, per the paper's accounting (offsets + neighbor ids;
  /// weights excluded to match the unweighted formulas of §II-E).
  [[nodiscard]] std::size_t storage_bytes_unweighted() const {
    return offsets_.size() * kBytesPerEdgeIndex +
           neighbors_.size() * kBytesPerVertexId;
  }

 private:
  Adjacency adj_ = Adjacency::kOut;
  std::vector<eid_t> offsets_;    // |V|+1
  std::vector<vid_t> neighbors_;  // |E|
  std::vector<weight_t> weights_; // |E|, aligned with neighbors_
};

}  // namespace grind::graph
