#include "partition/pcpm_bins.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sys/parallel.hpp"

namespace grind::partition {

namespace {

/// `parts`' ranges homed by destination, the homing the bins always use.
/// The edge counts are recounted to match (edges with an out-of-range
/// destination are skipped; the COO build that follows rejects them).
Partitioning homed_by_destination(const graph::EdgeList& el,
                                  const Partitioning& parts) {
  PartitionOptions opts = parts.options();
  if (opts.by == PartitionBy::kDestination) return parts;
  opts.by = PartitionBy::kDestination;
  const std::vector<part_t> home = parts.home_table();
  std::vector<eid_t> counts(parts.num_partitions(), 0);
  for (const Edge& e : el.edges())
    if (e.dst < home.size()) ++counts[home[e.dst]];
  return Partitioning(parts.ranges(), std::move(counts), opts);
}

}  // namespace

PcpmBins PcpmBins::build(const PartitionedCoo& coo, const Partitioning& parts,
                         const NumaModel* numa) {
  if (coo.order() != EdgeOrder::kSource ||
      coo.partitioned_by() != PartitionBy::kDestination ||
      coo.num_partitions() != parts.num_partitions() ||
      coo.num_vertices() != parts.num_vertices())
    throw std::invalid_argument(
        "PcpmBins::build: needs the kSource COO partitioned by destination "
        "over the same partitions");
  PcpmBins bins;
  const part_t np = parts.num_partitions();
  bins.parts_.resize(np);
  bins.total_slots_ = coo.num_edges();
  const std::vector<part_t> home = parts.home_table();

  // Fill each destination partition's bins from its COO bucket, in
  // parallel across partitions.
  parallel_for_dynamic(0, np, [&](std::size_t dp) {
    PcpmPartBins& part = bins.parts_[static_cast<part_t>(dp)];
    // Consumer-domain placement: the gather for dp runs on dp's domain and
    // these are the arrays it walks.
    if (numa != nullptr)
      part.set_domain(
          numa->domain_of_partition(static_cast<part_t>(dp), np));
    const auto bucket = coo.edges(static_cast<part_t>(dp));
    const eid_t m = bucket.size();
    part.slot_base = coo.offsets()[dp];

    part.src.resize(m);
    part.dst.resize(m);
    part.weights.resize(m);
    for (eid_t i = 0; i < m; ++i) {
      part.src[i] = bucket[i].src;
      part.dst[i] = bucket[i].dst;
      part.weights[i] = bucket[i].weight;
    }

    // Per-source-partition bin offsets: count, then prefix-sum in place.
    part.offsets.assign(static_cast<std::size_t>(np) + 1, 0);
    for (eid_t i = 0; i < m; ++i)
      ++part.offsets[home[part.src[i]] + 1];
    for (part_t sp = 0; sp < np; ++sp)
      part.offsets[sp + 1] += part.offsets[sp];
  });

  return bins;
}

PcpmBins PcpmBins::build(const graph::EdgeList& el, const Partitioning& parts,
                         const NumaModel* numa) {
  return build(PartitionedCoo::build(el, homed_by_destination(el, parts)),
               parts, numa);
}

eid_t PcpmBins::cut_slots() const {
  eid_t cut = 0;
  const part_t np = num_partitions();
  for (part_t dp = 0; dp < np; ++dp) {
    const PcpmPartBins& part = parts_[dp];
    const eid_t diagonal = part.offsets.empty()
                               ? 0
                               : part.offsets[dp + 1] - part.offsets[dp];
    cut += part.num_slots() - diagonal;
  }
  return cut;
}

std::size_t PcpmBins::storage_bytes() const {
  std::size_t bytes = 0;
  for (const auto& p : parts_) {
    bytes += p.offsets.size() * sizeof(eid_t);
    bytes += p.src.size() * sizeof(vid_t);
    bytes += p.dst.size() * sizeof(vid_t);
    bytes += p.weights.size() * sizeof(weight_t);
  }
  return bytes;
}

}  // namespace grind::partition
