#include "partition/partitioned_coo.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "partition/hilbert.hpp"
#include "sys/arena.hpp"
#include "sys/parallel.hpp"

namespace grind::partition {

namespace {
// Rows per dynamic-schedule claim when spreading each CSR row's source over
// its slots (most rows of a skewed graph are short).
constexpr std::size_t kRowChunk = 4096;
}  // namespace

PartitionedCoo PartitionedCoo::build(const graph::Csr& csr,
                                     const Partitioning& parts,
                                     EdgeOrder order, const NumaModel* numa) {
  if (csr.adjacency() != graph::Adjacency::kOut ||
      csr.num_vertices() != parts.num_vertices())
    throw std::invalid_argument(
        "PartitionedCoo::build: needs the out-adjacency CSR over the "
        "partitioning's vertices");
  PartitionedCoo coo;
  coo.by_ = parts.options().by;
  coo.num_vertices_ = parts.num_vertices();
  const part_t np = parts.num_partitions();
  const eid_t m = csr.num_edges();
  const auto rows = csr.offsets();
  const auto dst = csr.neighbors();
  const auto weight = csr.weights();
  const bool by_dst = coo.by_ == PartitionBy::kDestination;

  // 1. Bucket the CSR's slots by home partition, stably: each bucket lists
  //    its edges in CSR order — by (src, dst), duplicates in edge-list
  //    order — which is EdgeOrder::kSource.  The source column spreads each
  //    row's vertex over its slots (the bucketing visits slots, not rows)
  //    and is freed before anything is re-sorted.
  {
    const auto src = std::make_unique_for_overwrite<vid_t[]>(m);
    parallel_for_dynamic(
        0, csr.num_vertices(),
        [&](std::size_t v) {
          std::fill(src.get() + rows[v], src.get() + rows[v + 1],
                    static_cast<vid_t>(v));
        },
        kRowChunk);
    const std::vector<part_t> home = parts.home_table();
    coo.offsets_.resize(static_cast<std::size_t>(np) + 1);
    coo.edges_.resize(m);
    stable_bucket(
        m, np, [&](std::size_t i) { return home[by_dst ? dst[i] : src[i]]; },
        coo.offsets_.data(), [&](eid_t slot, std::size_t i) {
          coo.edges_[slot] = Edge{src[i], dst[i], weight[i]};
        });
  }

  // 2. Re-sort the buckets if another order was asked for.
  coo.reorder(order);

  // 3. Cache the atomics-mode chunk list (partition, edge sub-range).
  for (part_t p = 0; p < np; ++p) {
    const eid_t pm = coo.offsets_[p + 1] - coo.offsets_[p];
    for (eid_t lo = 0; lo < pm; lo += kCooChunkEdges)
      coo.chunks_.push_back({p, lo, std::min(pm, lo + kCooChunkEdges)});
  }

  // 4. Bind each partition's slice of the edge array to its NUMA domain's
  //    arena (§III-D: partition storage lives on the domain whose threads
  //    traverse it).
  if (numa != nullptr) coo.bind_domains(*numa);

  return coo;
}

PartitionedCoo PartitionedCoo::build(const graph::EdgeList& el,
                                     const Partitioning& parts,
                                     EdgeOrder order, const NumaModel* numa) {
  return build(graph::Csr::build(el, graph::Adjacency::kOut), parts, order,
               numa);
}

void PartitionedCoo::reorder(EdgeOrder order) {
  if (order == order_) return;
  order_ = order;
  // Stable sorts, in parallel across partitions (buckets are disjoint).
  // The Hilbert order sorts (key, edge) pairs, so each edge's curve index
  // is computed once rather than twice per comparison.
  const std::uint32_t horder = hilbert_order_for(num_vertices_);
  using Keyed = std::vector<std::pair<std::uint64_t, Edge>>;
  parallel_for_dynamic_scratch<Keyed>(
      0, num_partitions(), [&](std::size_t p, Keyed& keyed) {
        Edge* lo = edges_.data() + offsets_[p];
        Edge* hi = edges_.data() + offsets_[p + 1];
        switch (order) {
          case EdgeOrder::kSource:
            std::stable_sort(lo, hi, [](const Edge& a, const Edge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
            break;
          case EdgeOrder::kDestination:
            std::stable_sort(lo, hi, [](const Edge& a, const Edge& b) {
              return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
            });
            break;
          case EdgeOrder::kHilbert:
            keyed.clear();
            for (const Edge* e = lo; e != hi; ++e)
              keyed.emplace_back(hilbert_edge_key(horder, *e), *e);
            std::stable_sort(
                keyed.begin(), keyed.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
            for (std::size_t i = 0; i < keyed.size(); ++i)
              lo[i] = keyed[i].second;
            break;
        }
      });
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
