// The parallel layout builders against the serial builders they replaced.
//
// Csr::build, PartitionedCoo::build, PartitionedCsr::build and
// PcpmBins::build bucket their edges with the parallel stable_bucket pass
// (sys/parallel.hpp).  Their contract is byte identity with the serial
// count-and-scatter builders: every bucket receives its edges in edge-list
// order, so every per-bucket std::sort sees the same input and writes the
// same bytes, at any thread count — duplicates of different weights
// included.  The serial builders live on below as oracles, and every case
// runs at 1 and at 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/hilbert.hpp"
#include "partition/partitioned_coo.hpp"
#include "partition/partitioned_csr.hpp"
#include "partition/pcpm_bins.hpp"
#include "partition/partitioner.hpp"
#include "sys/parallel.hpp"
#include "sys/rng.hpp"

namespace grind {
namespace {

using graph::Adjacency;
using graph::EdgeList;
using partition::EdgeOrder;
using partition::PartitionBy;
using partition::Partitioning;

constexpr int kThreadCounts[] = {1, 4};

// ---------------------------------------------------------------- oracles ---

struct CsrArrays {
  std::vector<eid_t> offsets;
  std::vector<vid_t> neighbors;
  std::vector<weight_t> weights;
};

/// The serial Csr::build: count, prefix-sum, scatter with per-row cursors,
/// then sort each row through a pair buffer.
CsrArrays oracle_csr(const EdgeList& el, Adjacency adj) {
  const vid_t n = el.num_vertices();
  const auto es = el.edges();
  const bool out = adj == Adjacency::kOut;
  CsrArrays g;
  std::vector<eid_t> counts(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : es) ++counts[out ? e.src : e.dst];
  g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) g.offsets[v + 1] = g.offsets[v] + counts[v];
  g.neighbors.resize(es.size());
  g.weights.resize(es.size());
  std::vector<eid_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : es) {
    const eid_t slot = cursor[out ? e.src : e.dst]++;
    g.neighbors[slot] = out ? e.dst : e.src;
    g.weights[slot] = e.weight;
  }
  for (vid_t v = 0; v < n; ++v) {
    const eid_t lo = g.offsets[v], deg = g.offsets[v + 1] - lo;
    if (deg < 2) continue;
    std::vector<std::pair<vid_t, weight_t>> tmp(deg);
    for (eid_t i = 0; i < deg; ++i)
      tmp[i] = {g.neighbors[lo + i], g.weights[lo + i]};
    std::sort(tmp.begin(), tmp.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (eid_t i = 0; i < deg; ++i) {
      g.neighbors[lo + i] = tmp[i].first;
      g.weights[lo + i] = tmp[i].second;
    }
  }
  return g;
}

/// The serial home-partition bucketing shared by the partitioned builders:
/// bucket offsets plus the edge indices in bucket order.
std::pair<std::vector<eid_t>, std::vector<eid_t>> oracle_home_buckets(
    const EdgeList& el, const Partitioning& parts, bool by_dst) {
  const part_t np = parts.num_partitions();
  const auto es = el.edges();
  std::vector<eid_t> offsets(static_cast<std::size_t>(np) + 1, 0);
  for (const Edge& e : es)
    ++offsets[parts.partition_of(by_dst ? e.dst : e.src) + 1];
  for (part_t p = 0; p < np; ++p) offsets[p + 1] += offsets[p];
  std::vector<eid_t> order(es.size());
  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  for (eid_t i = 0; i < es.size(); ++i)
    order[cursor[parts.partition_of(by_dst ? es[i].dst : es[i].src)]++] = i;
  return {offsets, order};
}

bool by_destination(const Partitioning& parts) {
  return parts.options().by == PartitionBy::kDestination;
}

struct CooArrays {
  std::vector<eid_t> offsets;
  std::vector<Edge> edges;
};

/// The serial PartitionedCoo::build, Hilbert comparator included.
CooArrays oracle_coo(const EdgeList& el, const Partitioning& parts,
                     EdgeOrder order) {
  const auto es = el.edges();
  auto [offsets, idx] = oracle_home_buckets(el, parts, by_destination(parts));
  CooArrays coo{offsets, std::vector<Edge>(es.size())};
  for (eid_t s = 0; s < idx.size(); ++s) coo.edges[s] = es[idx[s]];
  const std::uint32_t horder =
      partition::hilbert_order_for(parts.num_vertices());
  for (part_t p = 0; p < parts.num_partitions(); ++p) {
    Edge* lo = coo.edges.data() + offsets[p];
    Edge* hi = coo.edges.data() + offsets[p + 1];
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
        std::sort(lo, hi, [horder](const Edge& a, const Edge& b) {
          return partition::hilbert_edge_key(horder, a) <
                 partition::hilbert_edge_key(horder, b);
        });
        break;
    }
  }
  return coo;
}

struct PcsrPartArrays {
  std::vector<vid_t> vertex_ids;
  std::vector<eid_t> offsets;
  std::vector<vid_t> targets;
  std::vector<weight_t> weights;
};

/// The serial PartitionedCsr::build.
std::vector<PcsrPartArrays> oracle_pcsr(const EdgeList& el,
                                        const Partitioning& parts) {
  const auto es = el.edges();
  const bool by_dst = by_destination(parts);
  auto [offsets, idx] = oracle_home_buckets(el, parts, by_dst);
  auto group_of = [by_dst](const Edge& e) { return by_dst ? e.src : e.dst; };
  auto target_of = [by_dst](const Edge& e) { return by_dst ? e.dst : e.src; };
  std::vector<PcsrPartArrays> out(parts.num_partitions());
  for (part_t p = 0; p < parts.num_partitions(); ++p) {
    std::vector<Edge> bucket;
    for (eid_t s = offsets[p]; s < offsets[p + 1]; ++s)
      bucket.push_back(es[idx[s]]);
    std::sort(bucket.begin(), bucket.end(), [&](const Edge& a, const Edge& b) {
      return group_of(a) != group_of(b) ? group_of(a) < group_of(b)
                                        : target_of(a) < target_of(b);
    });
    PcsrPartArrays& part = out[p];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Edge& e = bucket[i];
      if (part.vertex_ids.empty() || part.vertex_ids.back() != group_of(e)) {
        part.vertex_ids.push_back(group_of(e));
        part.offsets.push_back(i);
      }
      part.targets.push_back(target_of(e));
      part.weights.push_back(e.weight);
    }
    part.offsets.push_back(bucket.size());
  }
  return out;
}

struct PcpmPartArrays {
  std::vector<eid_t> offsets;
  std::vector<vid_t> src;
  std::vector<vid_t> dst;
  std::vector<weight_t> weights;
  eid_t slot_base = 0;
};

/// The serial PcpmBins::build (always bucketed by destination).
std::vector<PcpmPartArrays> oracle_pcpm(const EdgeList& el,
                                        const Partitioning& parts) {
  const auto es = el.edges();
  const part_t np = parts.num_partitions();
  auto [offsets, idx] = oracle_home_buckets(el, parts, /*by_dst=*/true);
  std::vector<PcpmPartArrays> out(np);
  for (part_t dp = 0; dp < np; ++dp) {
    std::vector<Edge> bucket;
    for (eid_t s = offsets[dp]; s < offsets[dp + 1]; ++s)
      bucket.push_back(es[idx[s]]);
    std::sort(bucket.begin(), bucket.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    PcpmPartArrays& part = out[dp];
    part.slot_base = offsets[dp];
    for (const Edge& e : bucket) {
      part.src.push_back(e.src);
      part.dst.push_back(e.dst);
      part.weights.push_back(e.weight);
    }
    part.offsets.assign(static_cast<std::size_t>(np) + 1, 0);
    for (const vid_t s : part.src) ++part.offsets[parts.partition_of(s) + 1];
    for (part_t sp = 0; sp < np; ++sp)
      part.offsets[sp + 1] += part.offsets[sp];
  }
  return out;
}

// ----------------------------------------------------------------- inputs ---

/// Random weights, so duplicate (src, dst) pairs are distinguishable and a
/// reordering of ties changes the bytes.
EdgeList with_random_weights(EdgeList el, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (Edge& e : el.edges()) e.weight = rng.next_float();
  return el;
}

/// R-MAT without deduplication: skewed rows and duplicate edges.
EdgeList rmat_multigraph() {
  graph::RmatParams params;
  params.deduplicate = false;
  return with_random_weights(graph::rmat(11, 8, 17, params), 5);
}

/// Isolated vertices, empty partitions, runs of duplicate edges of
/// distinct weights, and edges listed against their sort order.
EdgeList sparse_multigraph() {
  EdgeList el;
  el.set_num_vertices(3000);
  Xoshiro256 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const auto src = static_cast<vid_t>(2999 - rng.next_below(120));
    const auto dst = static_cast<vid_t>(700 + rng.next_below(90));
    el.add(src, dst);
    if (i % 3 == 0) el.add(src, dst);  // a duplicate, reweighted below
  }
  for (int i = 0; i < 500; ++i)
    el.add(static_cast<vid_t>(1500 + rng.next_below(8)),
           static_cast<vid_t>(1500 + rng.next_below(8)));
  return with_random_weights(std::move(el), 29);
}

struct NamedGraph {
  std::string name;
  EdgeList el;
};

const std::vector<NamedGraph>& graphs() {
  static const std::vector<NamedGraph> g = {{"rmat", rmat_multigraph()},
                                            {"sparse", sparse_multigraph()}};
  return g;
}

/// Every partitioning axis the builders read: P (including the builder's
/// default 384, mostly empty partitions on these graphs), boundary
/// alignment and the homing endpoint.
std::vector<Partitioning> partitionings(const EdgeList& el) {
  std::vector<Partitioning> out;
  for (const part_t p : {part_t{1}, part_t{3}, part_t{8},
                         graph::BuildOptions::kDefaultPartitions}) {
    for (const vid_t align : {vid_t{1}, vid_t{8}, vid_t{64}}) {
      for (const PartitionBy by :
           {PartitionBy::kDestination, PartitionBy::kSource}) {
        partition::PartitionOptions opts;
        opts.by = by;
        opts.boundary_align = align;
        out.push_back(partition::make_partitioning(el, p, opts));
      }
    }
  }
  return out;
}

std::string label(const std::string& graph, const Partitioning& parts,
                  int threads) {
  return graph + " P=" + std::to_string(parts.num_partitions()) +
         " align=" + std::to_string(parts.options().boundary_align) +
         (by_destination(parts) ? " by-dst" : " by-src") +
         " threads=" + std::to_string(threads);
}

template <typename A, typename B>
bool same(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool same_edges(std::span<const Edge> a, const std::vector<Edge>& b) {
  // Byte equality; Edge has no padding (two ids and a float).
  static_assert(sizeof(Edge) == 2 * sizeof(vid_t) + sizeof(weight_t));
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Edge& x, const Edge& y) {
           return x.src == y.src && x.dst == y.dst &&
                  std::memcmp(&x.weight, &y.weight, sizeof(weight_t)) == 0;
         });
}

// ------------------------------------------------------------------ tests ---

TEST(LayoutBuild, StableBucketKeepsItemOrderInEveryBucket) {
  // Skewed keys: bucket 0 holds half the items, so the balanced split of
  // the placing pass gives one thread a single bucket; keys 5..9 are empty.
  // Repeated, so that a placement order that depends on the schedule shows
  // once the team is warm (a freshly started team often runs one thread
  // ahead of the others).
  const std::size_t n = 200000, num_keys = 16;
  auto key = [](std::size_t i) -> std::size_t {
    return i % 2 == 0 ? 0 : (i * 2654435761u) % 5 + 10;
  };
  for (const int t : {1, 4, 4, 4, 4}) {
    ThreadCountGuard guard(t);
    std::vector<std::uint64_t> offsets(num_keys + 1);
    std::vector<std::size_t> placed(n, n);
    stable_bucket(n, num_keys, key, offsets.data(),
                  [&](std::uint64_t slot, std::size_t i) { placed[slot] = i; });
    ASSERT_EQ(offsets[0], 0u);
    ASSERT_EQ(offsets[num_keys], n);
    for (std::size_t k = 0; k < num_keys; ++k) {
      for (std::uint64_t s = offsets[k]; s < offsets[k + 1]; ++s) {
        ASSERT_LT(placed[s], n) << "slot " << s << " never placed";
        ASSERT_EQ(key(placed[s]), k) << "slot " << s;
        if (s > offsets[k])
          ASSERT_LT(placed[s - 1], placed[s])
              << "bucket " << k << " out of item order, threads=" << t;
      }
    }
    EXPECT_EQ(offsets[5], offsets[10]);  // the empty keys
  }
}

TEST(LayoutBuild, CsrAndCscMatchTheSerialBuilder) {
  for (const NamedGraph& g : graphs()) {
    for (const Adjacency adj : {Adjacency::kOut, Adjacency::kIn}) {
      const CsrArrays want = oracle_csr(g.el, adj);
      for (const int t : kThreadCounts) {
        ThreadCountGuard guard(t);
        const graph::Csr got = graph::Csr::build(g.el, adj);
        const std::string what = g.name +
                                 (adj == Adjacency::kOut ? " CSR" : " CSC") +
                                 " threads=" + std::to_string(t);
        EXPECT_TRUE(same(got.offsets(), want.offsets)) << what;
        EXPECT_TRUE(same(got.neighbors(), want.neighbors)) << what;
        EXPECT_TRUE(same(got.weights(), want.weights)) << what;
      }
    }
  }
}

TEST(LayoutBuild, PartitionedCooMatchesTheSerialBuilder) {
  for (const NamedGraph& g : graphs()) {
    for (const Partitioning& parts : partitionings(g.el)) {
      for (const EdgeOrder order :
           {EdgeOrder::kSource, EdgeOrder::kDestination, EdgeOrder::kHilbert}) {
        const CooArrays want = oracle_coo(g.el, parts, order);
        for (const int t : kThreadCounts) {
          ThreadCountGuard guard(t);
          const auto got = partition::PartitionedCoo::build(g.el, parts, order);
          const std::string what = label(g.name, parts, t) + " order=" +
                                   std::to_string(static_cast<int>(order));
          ASSERT_TRUE(same(got.offsets(), want.offsets)) << what;
          ASSERT_TRUE(same_edges(got.all_edges(), want.edges)) << what;
        }
      }
    }
  }
}

TEST(LayoutBuild, HilbertBucketsAreSortedPermutationsOfTheirEdges) {
  // The Hilbert sort compares precomputed keys; within every bucket the
  // keys must be non-decreasing and the edges those of the bucket.
  auto full_order = [](const Edge& a, const Edge& b) {
    return std::tie(a.src, a.dst, a.weight) < std::tie(b.src, b.dst, b.weight);
  };
  for (const NamedGraph& g : graphs()) {
    for (const Partitioning& parts : partitionings(g.el)) {
      const CooArrays source = oracle_coo(g.el, parts, EdgeOrder::kSource);
      const std::uint32_t horder =
          partition::hilbert_order_for(parts.num_vertices());
      for (const int t : kThreadCounts) {
        ThreadCountGuard guard(t);
        const auto coo =
            partition::PartitionedCoo::build(g.el, parts, EdgeOrder::kHilbert);
        for (part_t p = 0; p < coo.num_partitions(); ++p) {
          const auto got = coo.edges(p);
          for (std::size_t i = 1; i < got.size(); ++i)
            ASSERT_LE(partition::hilbert_edge_key(horder, got[i - 1]),
                      partition::hilbert_edge_key(horder, got[i]))
                << label(g.name, parts, t) << " partition " << p;
          std::vector<Edge> a(got.begin(), got.end());
          std::vector<Edge> b(source.edges.begin() + source.offsets[p],
                              source.edges.begin() + source.offsets[p + 1]);
          std::sort(a.begin(), a.end(), full_order);
          std::sort(b.begin(), b.end(), full_order);
          ASSERT_EQ(a, b) << label(g.name, parts, t) << " partition " << p;
        }
      }
    }
  }
}

TEST(LayoutBuild, PartitionedCsrMatchesTheSerialBuilder) {
  for (const NamedGraph& g : graphs()) {
    for (const Partitioning& parts : partitionings(g.el)) {
      const std::vector<PcsrPartArrays> want = oracle_pcsr(g.el, parts);
      for (const int t : kThreadCounts) {
        ThreadCountGuard guard(t);
        const auto got = partition::PartitionedCsr::build(g.el, parts);
        const std::string what = label(g.name, parts, t);
        ASSERT_EQ(got.num_partitions(), want.size()) << what;
        for (part_t p = 0; p < got.num_partitions(); ++p) {
          const auto& gp = got.part(p);
          const auto& wp = want[p];
          ASSERT_TRUE(same(gp.vertex_ids, wp.vertex_ids)) << what << " p" << p;
          ASSERT_TRUE(same(gp.offsets, wp.offsets)) << what << " p" << p;
          ASSERT_TRUE(same(gp.targets, wp.targets)) << what << " p" << p;
          ASSERT_TRUE(same(gp.weights, wp.weights)) << what << " p" << p;
        }
      }
    }
  }
}

TEST(LayoutBuild, PcpmBinsMatchTheSerialBuilder) {
  for (const NamedGraph& g : graphs()) {
    for (const Partitioning& parts : partitionings(g.el)) {
      const std::vector<PcpmPartArrays> want = oracle_pcpm(g.el, parts);
      for (const int t : kThreadCounts) {
        ThreadCountGuard guard(t);
        const auto got = partition::PcpmBins::build(g.el, parts);
        const std::string what = label(g.name, parts, t);
        ASSERT_EQ(got.num_partitions(), want.size()) << what;
        ASSERT_EQ(got.num_slots(), g.el.num_edges()) << what;
        for (part_t p = 0; p < got.num_partitions(); ++p) {
          const auto& gp = got.part(p);
          const auto& wp = want[p];
          ASSERT_EQ(gp.slot_base, wp.slot_base) << what << " p" << p;
          ASSERT_TRUE(same(gp.offsets, wp.offsets)) << what << " p" << p;
          ASSERT_TRUE(same(gp.src, wp.src)) << what << " p" << p;
          ASSERT_TRUE(same(gp.dst, wp.dst)) << what << " p" << p;
          ASSERT_TRUE(same(gp.weights, wp.weights)) << what << " p" << p;
        }
      }
    }
  }
}

TEST(LayoutBuild, OutOfRangeEndpointsThrowBeforeAnyParallelPass) {
  // Edge lists whose vertex bound does not cover their endpoints.  The
  // builders range-check before their parallel passes and throw
  // out_of_range; a throw from inside an OpenMP region would terminate.
  EdgeList base = graph::rmat(8, 4, 3);
  const Partitioning parts = partition::make_partitioning(base, 4);
  const vid_t n = base.num_vertices();
  std::vector<Edge> edges(base.edges().begin(), base.edges().end());
  std::vector<Edge> bad_src = edges, bad_dst = edges;
  bad_src.push_back({n + 5, 0, 1.0f});
  bad_dst.push_back({0, n, 1.0f});
  const EdgeList src_out(n, bad_src), dst_out(n, bad_dst);
  for (const int t : kThreadCounts) {
    ThreadCountGuard guard(t);
    for (const EdgeList* el : {&src_out, &dst_out}) {
      EXPECT_THROW((void)graph::Csr::build(*el, Adjacency::kOut),
                   std::out_of_range);
      EXPECT_THROW((void)graph::Csr::build(*el, Adjacency::kIn),
                   std::out_of_range);
      EXPECT_THROW((void)partition::PcpmBins::build(*el, parts),
                   std::out_of_range);
    }
    // The partitioned COO and CSR home each edge by its destination here,
    // so only the destination is range-checked (as partition_of was).
    EXPECT_THROW((void)partition::PartitionedCoo::build(dst_out, parts),
                 std::out_of_range);
    EXPECT_THROW((void)partition::PartitionedCsr::build(dst_out, parts),
                 std::out_of_range);
  }
}

}  // namespace
}  // namespace grind
