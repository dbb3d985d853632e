#include "partition/partitioned_csr.hpp"

#include <algorithm>

#include "sys/parallel.hpp"

namespace grind::partition {

PartitionedCsr PartitionedCsr::build(const graph::EdgeList& el,
                                     const Partitioning& parts,
                                     const NumaModel* numa) {
  PartitionedCsr pc;
  const part_t np = parts.num_partitions();
  pc.parts_.resize(np);
  const auto es = el.edges();
  const bool by_dst = parts.options().by == PartitionBy::kDestination;

  graph::check_endpoints(
      es, parts.num_vertices(),
      by_dst ? graph::Endpoints::kDestination : graph::Endpoints::kSource,
      "PartitionedCsr::build");

  // Bucket edge indices per partition (the same stable pass as
  // PartitionedCoo: each bucket lists its edges in edge-list order).
  const std::vector<part_t> home = parts.home_table();
  std::vector<eid_t> offsets(static_cast<std::size_t>(np) + 1);
  std::vector<eid_t> order(es.size());
  stable_bucket(
      es.size(), np,
      [&](std::size_t i) { return home[by_dst ? es[i].dst : es[i].src]; },
      offsets.data(), [&](eid_t slot, std::size_t i) { order[slot] = i; });

  // Compress each bucket into a pruned CSR, in parallel across partitions.
  parallel_for_dynamic_scratch<std::vector<Edge>>(
      0, np, [&](std::size_t p, std::vector<Edge>& bucket) {
    PrunedCsrPart& part = pc.parts_[p];
    // Allocate this partition's arrays through its owning domain's arena
    // (the §II-E replication buffers live where their traversing threads
    // run); without a NumaModel everything sits on domain 0.
    if (numa != nullptr)
      part.set_domain(
          numa->domain_of_partition(static_cast<part_t>(p), np));
    const eid_t lo = offsets[p], hi = offsets[p + 1];
    const eid_t m = hi - lo;
    // Sort the bucket by (group key, target) where the group key is the
    // source (by-destination partitioning) or destination (by-source).
    bucket.resize(m);
    for (eid_t i = 0; i < m; ++i) bucket[i] = es[order[lo + i]];
    auto group_of = [by_dst](const Edge& e) { return by_dst ? e.src : e.dst; };
    auto target_of = [by_dst](const Edge& e) { return by_dst ? e.dst : e.src; };
    std::sort(bucket.begin(), bucket.end(),
              [&](const Edge& a, const Edge& b) {
                return group_of(a) != group_of(b)
                           ? group_of(a) < group_of(b)
                           : target_of(a) < target_of(b);
              });

    part.targets.resize(m);
    part.weights.resize(m);
    for (eid_t i = 0; i < m; ++i) {
      const Edge& e = bucket[i];
      if (part.vertex_ids.empty() || part.vertex_ids.back() != group_of(e)) {
        part.vertex_ids.push_back(group_of(e));
        part.offsets.push_back(i);
      }
      part.targets[i] = target_of(e);
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
