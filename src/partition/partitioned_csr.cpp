#include "partition/partitioned_csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "sys/parallel.hpp"

namespace grind::partition {

PartitionedCsr PartitionedCsr::build(const PartitionedCoo& coo,
                                     const NumaModel* numa) {
  const bool by_dst = coo.partitioned_by() == PartitionBy::kDestination;
  if (coo.order() != group_order(coo.partitioned_by()))
    throw std::invalid_argument(
        "PartitionedCsr::build: the COO must be grouped by the row endpoint");
  PartitionedCsr pc;
  const part_t np = coo.num_partitions();
  pc.parts_.resize(np);

  // Compress each bucket into a pruned CSR, in parallel across partitions.
  // The bucket is already ordered by (group key, target), where the group
  // key is the source (by-destination partitioning) or destination
  // (by-source).
  parallel_for_dynamic(0, np, [&](std::size_t p) {
    PrunedCsrPart& part = pc.parts_[p];
    // Allocate this partition's arrays through its owning domain's arena
    // (the §II-E replication buffers live where their traversing threads
    // run); without a NumaModel everything sits on domain 0.
    if (numa != nullptr)
      part.set_domain(
          numa->domain_of_partition(static_cast<part_t>(p), np));
    const auto bucket = coo.edges(static_cast<part_t>(p));
    const eid_t m = bucket.size();
    part.targets.resize(m);
    part.weights.resize(m);
    for (eid_t i = 0; i < m; ++i) {
      const Edge& e = bucket[i];
      const vid_t group = by_dst ? e.src : e.dst;
      if (part.vertex_ids.empty() || part.vertex_ids.back() != group) {
        part.vertex_ids.push_back(group);
        part.offsets.push_back(i);
      }
      part.targets[i] = by_dst ? e.dst : e.src;
      part.weights[i] = e.weight;
    }
    part.offsets.push_back(m);
  });

  // Cache the atomics-mode chunk list (partition, local-vertex sub-range).
  for (part_t p = 0; p < np; ++p) {
    const vid_t nloc = pc.parts_[p].num_local_vertices();
    for (vid_t v = 0; v < nloc; v += kPcsrChunkVertices)
      pc.chunks_.push_back({p, v, std::min<vid_t>(nloc, v + kPcsrChunkVertices)});
  }

  return pc;
}

PartitionedCsr PartitionedCsr::build(const graph::EdgeList& el,
                                     const Partitioning& parts,
                                     const NumaModel* numa) {
  return build(
      PartitionedCoo::build(el, parts, group_order(parts.options().by)),
      numa);
}

std::size_t PartitionedCsr::total_vertex_replicas() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p.vertex_ids.size();
  return total;
}

std::size_t PartitionedCsr::storage_bytes_pruned() const {
  std::size_t bytes = 0;
  for (const auto& p : parts_) {
    bytes += p.vertex_ids.size() * (kBytesPerVertexId + kBytesPerEdgeIndex);
    bytes += p.targets.size() * kBytesPerVertexId;
  }
  return bytes;
}

}  // namespace grind::partition
