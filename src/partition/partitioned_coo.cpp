#include "partition/partitioned_coo.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "partition/hilbert.hpp"
#include "sys/arena.hpp"
#include "sys/parallel.hpp"

namespace grind::partition {

PartitionedCoo PartitionedCoo::build(const graph::EdgeList& el,
                                     const Partitioning& parts,
                                     EdgeOrder order, const NumaModel* numa) {
  PartitionedCoo coo;
  coo.order_ = order;
  const part_t np = parts.num_partitions();
  const auto es = el.edges();
  const bool by_dst =
      parts.options().by == PartitionBy::kDestination;

  graph::check_endpoints(
      es, parts.num_vertices(),
      by_dst ? graph::Endpoints::kDestination : graph::Endpoints::kSource,
      "PartitionedCoo::build");

  // 1. Bucket the edges by home partition, stably: each bucket holds its
  //    edges in edge-list order, so step 2's sorts see the input a serial
  //    scatter would give them.
  const std::vector<part_t> home = parts.home_table();
  coo.offsets_.resize(static_cast<std::size_t>(np) + 1);
  coo.edges_.resize(es.size());
  stable_bucket(
      es.size(), np,
      [&](std::size_t i) { return home[by_dst ? es[i].dst : es[i].src]; },
      coo.offsets_.data(),
      [&](eid_t slot, std::size_t i) { coo.edges_[slot] = es[i]; });

  // 2. Sort each partition's bucket in the requested order, in parallel
  //    across partitions (buckets are disjoint).  The Hilbert order sorts
  //    (key, edge) pairs, so each edge's curve index is computed once
  //    rather than twice per comparison; comparing keys only, std::sort
  //    makes the same moves as with a key-computing comparator.
  const std::uint32_t horder = hilbert_order_for(parts.num_vertices());
  using Keyed = std::vector<std::pair<std::uint64_t, Edge>>;
  parallel_for_dynamic_scratch<Keyed>(0, np, [&](std::size_t p, Keyed& keyed) {
    Edge* lo = coo.edges_.data() + coo.offsets_[p];
    Edge* hi = coo.edges_.data() + coo.offsets_[p + 1];
    switch (order) {
      case EdgeOrder::kSource:
        std::sort(lo, hi, [](const Edge& a, const Edge& b) {
          return a.src != b.src ? a.src < b.src : a.dst < b.dst;
        });
        break;
      case EdgeOrder::kDestination:
        std::sort(lo, hi, [](const Edge& a, const Edge& b) {
          return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
        });
        break;
      case EdgeOrder::kHilbert:
        keyed.clear();
        for (const Edge* e = lo; e != hi; ++e)
          keyed.emplace_back(hilbert_edge_key(horder, *e), *e);
        std::sort(keyed.begin(), keyed.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (std::size_t i = 0; i < keyed.size(); ++i) lo[i] = keyed[i].second;
        break;
    }
  });

  // 3. Cache the atomics-mode chunk list (partition, edge sub-range).
  for (part_t p = 0; p < np; ++p) {
    const eid_t m = coo.offsets_[p + 1] - coo.offsets_[p];
    for (eid_t lo = 0; lo < m; lo += kCooChunkEdges)
      coo.chunks_.push_back({p, lo, std::min(m, lo + kCooChunkEdges)});
  }

  // 4. Bind each partition's slice of the edge array to its NUMA domain's
  //    arena (§III-D: partition storage lives on the domain whose threads
  //    traverse it).
  if (numa != nullptr) coo.bind_domains(*numa);

  return coo;
}

void PartitionedCoo::bind_domains(const NumaModel& numa) const {
  auto& arenas = NumaArenas::instance();
  const part_t np = num_partitions();
  for (part_t p = 0; p < np; ++p) {
    arenas.place(edges_.data() + offsets_[p],
                 (offsets_[p + 1] - offsets_[p]) * sizeof(Edge),
                 numa.domain_of_partition(p, np));
  }
}

}  // namespace grind::partition
