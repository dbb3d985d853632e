// Graph partitioning by destination (the paper's Algorithm 1) and by source,
// with edge-balanced or vertex-balanced split criteria (§III-D).
//
// A partitioning is a split of the vertex set into P contiguous ranges; the
// edge set follows by assigning each edge to the home partition of its
// destination (partition-by-destination, Eq. 1) or source (Eq. 2).
// Partitioning-by-destination guarantees all in-edges of a vertex live in
// one partition, so each vertex's value is updated by at most one thread —
// the property that lets the traversal kernels elide hardware atomics
// (§III-C).
//
// Boundaries are additionally aligned to multiples of `boundary_align`
// vertices (default 64 = one frontier-bitmap word).  At 64 two partitions
// never write the same bitmap word, so the "+na" kernels' next-frontier
// updates need no atomics at all; at a smaller power of two, neighbouring
// partitions share the boundary word and the kernels' OwnedRangeBits writer
// (sys/bitmap.hpp) sets bits there with fetch_or.  The paper does not spell
// this detail out; it is required for correctness of atomic-free
// next-frontier updates.
#pragma once

#include <vector>

#include "graph/edge_list.hpp"
#include "sys/types.hpp"

namespace grind::partition {

/// Which endpoint's home partition an edge follows.
enum class PartitionBy {
  kDestination,  ///< Eq. 1 — all in-edges of a vertex in its home partition.
  kSource,       ///< Eq. 2 — all out-edges of a vertex in its home partition.
};

/// What the split criterion balances across partitions (§III-D).
enum class BalanceMode {
  kEdges,     ///< equal edge counts — for edge-oriented algorithms.
  kVertices,  ///< equal vertex counts — for vertex-oriented algorithms.
};

/// Options for make_partitioning().
struct PartitionOptions {
  PartitionBy by = PartitionBy::kDestination;
  BalanceMode balance = BalanceMode::kEdges;
  /// Boundaries snap up to multiples of this many vertices.  Must be a
  /// power of two.  1 disables alignment (used by the Fig-1 unit test).
  vid_t boundary_align = 64;
};

/// Vertices per schedulable sub-chunk of a partition range.  A multiple of
/// 64, so sub-chunks inside a partition never share a frontier-bitmap word
/// (only a partition's boundary words can be shared); small enough that a
/// skewed in-degree block cannot straggle an entire partition (the intra-
/// partition parallelism the paper gets from a NUMA domain's threads).
inline constexpr vid_t kSubChunkVertices = 256;

/// The result: P contiguous vertex ranges covering [0, |V|).
///
/// ranges()[p] is the set of vertices whose home partition is p.  Trailing
/// partitions may be empty when the graph is small relative to P·align.
class Partitioning {
 public:
  Partitioning() { build_sub_chunks(); }
  Partitioning(std::vector<VertexRange> ranges, std::vector<eid_t> edge_counts,
               PartitionOptions opts)
      : ranges_(std::move(ranges)),
        edge_counts_(std::move(edge_counts)),
        opts_(opts) {
    build_sub_chunks();
  }

  [[nodiscard]] part_t num_partitions() const {
    return static_cast<part_t>(ranges_.size());
  }
  [[nodiscard]] const std::vector<VertexRange>& ranges() const {
    return ranges_;
  }
  [[nodiscard]] const VertexRange& range(part_t p) const { return ranges_[p]; }

  /// Edges whose home is partition p (in-edges for kDestination).
  [[nodiscard]] eid_t edges_in(part_t p) const { return edge_counts_[p]; }

  [[nodiscard]] const PartitionOptions& options() const { return opts_; }

  /// Home partition of vertex v — O(log P) binary search over boundaries.
  /// Contract: v must lie in [0, num_vertices()); out-of-range vertices
  /// (including any v on an empty partitioning) have no home partition and
  /// throw std::out_of_range.  Callers that may hold foreign IDs must range-
  /// check first — the old behaviour of silently returning the last
  /// partition mis-homed every out-of-range edge endpoint.
  [[nodiscard]] part_t partition_of(vid_t v) const;

  /// partition_of for every vertex at once: a num_vertices()-entry table,
  /// so builders that home every edge look it up in O(1) instead of
  /// searching the boundaries per edge.
  [[nodiscard]] std::vector<part_t> home_table() const;

  /// Number of vertices covered (== |V| of the partitioned graph).
  [[nodiscard]] vid_t num_vertices() const {
    return ranges_.empty() ? 0 : ranges_.back().end;
  }

  /// The paper's load-imbalance metric P·max(edges_in)/Σ edges_in, i.e.
  /// peak over mean with the mean taken over *all* P partitions (empty ones
  /// included — they represent idle domains, which is exactly the imbalance
  /// being measured).  1.0 for perfectly balanced or empty partitionings.
  [[nodiscard]] double edge_imbalance() const;

  /// Same peak-over-mean metric for vertex counts: P·max(|range|)/|V|,
  /// mean over all P partitions.  The second axis of the fig3 locality
  /// matrix — a streaming partitioner can hold edge imbalance down while
  /// piling vertices up (or vice versa), and vertex-oriented algorithms
  /// feel the vertex figure.
  [[nodiscard]] double vertex_imbalance() const;

  /// The partition ranges split into kSubChunkVertices-sized sub-chunks
  /// from each partition's start — the schedulable work items of the
  /// backward-CSC traversal.
  /// Computed once at construction so the traversal hot path never rebuilds
  /// the list.  Never empty: a degenerate partitioning yields {{0, 0}}.
  [[nodiscard]] const std::vector<VertexRange>& sub_chunks() const {
    return sub_chunks_;
  }

 private:
  void build_sub_chunks();

  std::vector<VertexRange> ranges_;
  std::vector<eid_t> edge_counts_;
  PartitionOptions opts_;
  std::vector<VertexRange> sub_chunks_;
};

/// Algorithm 1 (generalised): split the vertex set into `num_partitions`
/// contiguous aligned ranges such that the balance criterion is met as
/// closely as alignment permits.
///
/// For BalanceMode::kEdges the boundary of partition i is the smallest
/// aligned vertex v with cum_deg(v) ≥ i·|E|/P, where cum_deg counts
/// in-degrees (kDestination) or out-degrees (kSource) — exactly the greedy
/// fill of Algorithm 1.  For kVertices boundaries are at i·|V|/P.
Partitioning make_partitioning(const graph::EdgeList& el, part_t num_partitions,
                               PartitionOptions opts = {});

/// Same, but from a precomputed degree array (avoids re-scanning the edge
/// list when the caller already has degrees).  degrees.size() == |V|.
Partitioning make_partitioning_from_degrees(const std::vector<eid_t>& degrees,
                                            part_t num_partitions,
                                            PartitionOptions opts = {});

}  // namespace grind::partition
