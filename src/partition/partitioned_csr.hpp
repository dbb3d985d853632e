// Partitioned, zero-degree-pruned CSR — the layout whose storage and work
// grow with vertex replication (§II-E, §II-F), reproduced here both to run
// the Fig 5 "CSR" configuration and to measure the growth curves of Figs 3–4.
//
// For partitioning-by-destination, partition p's CSR indexes the sub-graph
// of edges whose destination lives in p, grouped by *source*.  A source
// vertex with edges into k partitions is replicated k times ("CSR pruned"
// keeps only sources with ≥1 edge in the partition and stores their vertex
// IDs in a sidecar array, §II-E: "We store the vertex ID along with the
// vertex data in order to save space for zero-degree vertices").
//
// It is read off the partitioned COO with no sort of its own: under
// partitioning-by-destination a kSource COO bucket is already grouped by
// source and ordered by destination within each group, which is exactly
// the pruned CSR's edge order (a kDestination bucket is, symmetrically,
// under partitioning-by-source).
#pragma once

#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "partition/partitioned_coo.hpp"
#include "partition/partitioner.hpp"
#include "sys/arena.hpp"
#include "sys/numa.hpp"
#include "sys/types.hpp"

namespace grind::partition {

/// One partition's pruned CSR.  The arrays are DomainVectors — per-partition
/// replication buffers allocated through the owning NUMA domain's arena
/// (sys/arena.hpp); the domain tag travels with copies, so a copied layout
/// keeps its placement.  Built without a NumaModel they sit on domain 0's
/// arena, which in the logical fallback is plain first-touched memory.
struct PrunedCsrPart {
  /// Sources present in this partition (sorted ascending) — the "vertex ID
  /// sidecar".  Its length divided by |V| summed over partitions is the
  /// replication factor.
  DomainVector<vid_t> vertex_ids;
  /// offsets[i]..offsets[i+1] index the edges of vertex_ids[i].
  DomainVector<eid_t> offsets;
  /// Edge targets (destinations for by-destination partitioning).
  DomainVector<vid_t> targets;
  /// Weights aligned with targets.
  DomainVector<weight_t> weights;

  /// Point the (empty) arrays at domain `d`'s arena before filling them.
  void set_domain(int d) {
    vertex_ids = DomainVector<vid_t>(ArenaAllocator<vid_t>(d));
    offsets = DomainVector<eid_t>(ArenaAllocator<eid_t>(d));
    targets = DomainVector<vid_t>(ArenaAllocator<vid_t>(d));
    weights = DomainVector<weight_t>(ArenaAllocator<weight_t>(d));
  }

  [[nodiscard]] vid_t num_local_vertices() const {
    return static_cast<vid_t>(vertex_ids.size());
  }
  [[nodiscard]] eid_t num_edges() const { return targets.size(); }
};

/// Local vertices per schedulable chunk in the atomics-mode partitioned-CSR
/// traversal.
inline constexpr vid_t kPcsrChunkVertices = 1024;

/// One (partition, local-vertex sub-range) work item of the atomics-mode
/// traversal; [begin, end) indexes the partition's local vertex array.
struct PcsrChunk {
  part_t part;
  vid_t begin;
  vid_t end;
};

/// The full partitioned pruned CSR.
class PartitionedCsr {
 public:
  PartitionedCsr() = default;

  /// Compress each bucket of `coo` into a pruned CSR (by destination:
  /// group partition p's in-edges by source; by source: group p's
  /// out-edges by destination — the symmetric construction).  `coo` must
  /// be in its group-major order, group_order(coo.partitioned_by()), or
  /// std::invalid_argument is thrown.  With a NumaModel, each partition's
  /// arrays — including the replicated-vertex sidecar, the per-partition
  /// replication buffer of §II-E — are *allocated* through the
  /// ArenaAllocator of NumaModel::domain_of_partition, so the pages are
  /// first-touch-faulted on (and, under GRIND_NUMA, bound to) the owning
  /// domain from the start.
  static PartitionedCsr build(const PartitionedCoo& coo,
                              const NumaModel* numa = nullptr);

  /// build() over PartitionedCoo::build(el, parts, group_order(...)).
  /// Throws std::out_of_range if an endpoint is >= el.num_vertices().
  static PartitionedCsr build(const graph::EdgeList& el,
                              const Partitioning& parts,
                              const NumaModel* numa = nullptr);

  /// The COO order whose buckets are grouped by the pruned CSR's row
  /// endpoint: kSource under partitioning-by-destination, else kDestination.
  [[nodiscard]] static EdgeOrder group_order(PartitionBy by) {
    return by == PartitionBy::kDestination ? EdgeOrder::kSource
                                           : EdgeOrder::kDestination;
  }

  [[nodiscard]] part_t num_partitions() const {
    return static_cast<part_t>(parts_.size());
  }
  [[nodiscard]] const PrunedCsrPart& part(part_t p) const { return parts_[p]; }

  /// Σ over partitions of replicated-vertex count; divide by |V| for the
  /// replication factor r(p) of Fig 3.
  [[nodiscard]] std::size_t total_vertex_replicas() const;

  /// Measured bytes of the pruned representation:
  /// Σ_p ( |ids_p|·(bv + be) ) + |E|·bv — the "CSR pruned" curve of Fig 4.
  [[nodiscard]] std::size_t storage_bytes_pruned() const;

  /// The atomics-mode work list: every partition's local vertices split into
  /// kPcsrChunkVertices-sized chunks, cached at build time so the traversal
  /// hot path never rebuilds it.
  [[nodiscard]] const std::vector<PcsrChunk>& chunks() const {
    return chunks_;
  }

 private:
  std::vector<PrunedCsrPart> parts_;
  std::vector<PcsrChunk> chunks_;  // cached atomics-mode work list
};

}  // namespace grind::partition
