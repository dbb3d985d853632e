#include "partition/pcpm_bins.hpp"

#include <algorithm>

#include "sys/parallel.hpp"

namespace grind::partition {

PcpmBins PcpmBins::build(const graph::EdgeList& el, const Partitioning& parts,
                         const NumaModel* numa) {
  PcpmBins bins;
  const part_t np = parts.num_partitions();
  bins.parts_.resize(np);
  const auto es = el.edges();
  bins.total_slots_ = es.size();

  // The bins need the home of both endpoints: the destination's picks the
  // partition, the source's the bin.
  graph::check_endpoints(es, parts.num_vertices(), graph::Endpoints::kBoth,
                         "PcpmBins::build");
  const std::vector<part_t> home = parts.home_table();

  // Bucket edge indices by destination partition (always by destination —
  // the gather owns destinations, which is what elides the atomics), with
  // the stable pass of PartitionedCoo.
  std::vector<eid_t> offsets(static_cast<std::size_t>(np) + 1);
  std::vector<eid_t> order(es.size());
  stable_bucket(
      es.size(), np, [&](std::size_t i) { return home[es[i].dst]; },
      offsets.data(), [&](eid_t slot, std::size_t i) { order[slot] = i; });

  // Fill each destination partition's bins, in parallel across partitions.
  parallel_for_dynamic_scratch<std::vector<Edge>>(
      0, np, [&](std::size_t dp, std::vector<Edge>& bucket) {
    PcpmPartBins& part = bins.parts_[static_cast<part_t>(dp)];
    // Consumer-domain placement: the gather for dp runs on dp's domain and
    // these are the arrays it walks.
    if (numa != nullptr)
      part.set_domain(
          numa->domain_of_partition(static_cast<part_t>(dp), np));
    const eid_t lo = offsets[dp], hi = offsets[dp + 1];
    const eid_t m = hi - lo;
    part.slot_base = lo;

    // Sort dp's in-edges by (src, dst) — PartitionedCoo::EdgeOrder::kSource.
    // Contiguous ascending partition ranges make this grouped by source
    // partition as a side effect, which is the bin boundary structure.
    bucket.resize(m);
    for (eid_t i = 0; i < m; ++i) bucket[i] = es[order[lo + i]];
    std::sort(bucket.begin(), bucket.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });

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
