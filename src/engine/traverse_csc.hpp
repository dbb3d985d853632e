// Medium-dense backward traversal (Algorithm 2, line 4): the whole-graph CSC
// with a *partitioned computation range*.
//
// Partitioning-by-destination leaves CSC edge order unchanged (§II-C), so
// the index is unpartitioned; what is partitioned is the iteration space:
// each task owns one partition's destination range, giving (a) edge- or
// vertex-balanced load depending on the algorithm's orientation (§III-D) and
// (b) single-writer destinations — no atomics (§IV-B: "in BFS there is no
// need to use atomics in the CSC case as it uses a backward edge traversal").
//
// Per destination d with cond(d) true, in-edges are scanned; once an update
// deactivates cond(d) the scan breaks early (the direction-optimising trick
// of Beamer et al. that makes backward traversal cheap on dense frontiers).
#pragma once

#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// NUMA domain of one CSC sub-chunk, resolved against the partitioning the
/// *pages* were placed by — the edge-balanced one (builder.cpp
/// place_csr_domains) — which may differ from the partitioning whose
/// sub-chunks drive the computation split (vertex-balanced for
/// vertex-oriented algorithms).  A vertex-balanced chunk can straddle an
/// edge-partition boundary; its begin vertex decides, matching the page
/// granularity of the placement itself.
inline int csc_chunk_domain(const partition::Partitioning& storage_parts,
                            const NumaModel& numa, const VertexRange& chunk) {
  if (chunk.begin >= storage_parts.num_vertices()) return 0;  // degenerate
  return numa.domain_of_partition(storage_parts.partition_of(chunk.begin),
                                  storage_parts.num_partitions());
}

/// Lookahead distance (in edges) of the backward gather's frontier-word
/// prefetch: the inner loop's demand miss is `in.get(s)` — one random
/// bitmap word per in-edge — so the word of the source `kCscPrefetchDist`
/// slots ahead is prefetched while the current edges are applied.
inline constexpr std::size_t kCscPrefetchDist = 8;

/// The gather body over one owned vertex range: each d in `r` with cond(d)
/// pulls from its active neighbours in `adj` (in-edges forward, out-edges
/// for the transpose) and stops once cond(d) drops.  Returns the edges
/// examined.  Shared by the engine's partitioned kernel below and the
/// baseline engines' chunked sweeps; callers differ only in scheduling.
template <EdgeOperator Op>
eid_t gather_range(const graph::Csr& adj, const Bitmap& in, Op& op,
                   Bitmap& next, VertexRange r, bool prefetch) {
  const std::uint64_t* in_words = in.words();
  const OwnedRangeBits out(next, r.begin, r.end);
  eid_t edges = 0;
  for (vid_t d = r.begin; d < r.end; ++d) {
    if (!op.cond(d)) continue;
    const auto neigh = adj.neighbors(d);
    const auto wts = adj.weights(d);
    for (std::size_t j = 0; j < neigh.size(); ++j) {
      ++edges;
      if (prefetch && j + kCscPrefetchDist < neigh.size())
        __builtin_prefetch(&in_words[neigh[j + kCscPrefetchDist] >> 6]);
      const vid_t s = neigh[j];
      if (!in.get(s)) continue;
      if (op.update(s, d, wts[j])) out.set(d);
      if (!op.cond(d)) break;  // destination saturated; skip remaining
    }
  }
  return edges;
}

/// Backward traversal over the sub-chunks of `ranges`, pulling along `adj`
/// and counting the output frontier's Σ-degree in `weigh`: (csc, csr)
/// forward, (csr, csc) for the transpose.
///
/// `cancel`, when non-null, is polled once per sub-chunk: a fired token
/// drains the sweep without work, and the caller re-checks the token and
/// discards the partial frontier (bodies must not throw here).
template <EdgeOperator Op>
Frontier traverse_csc_backward(const graph::Graph& g, Frontier& f, Op& op,
                               const graph::Csr& adj, const graph::Csr& weigh,
                               const partition::Partitioning& ranges,
                               eid_t* edges_examined, TraversalWorkspace& ws,
                               AffineCounts* affinity,
                               const sys::CancelToken* cancel, bool prefetch) {
  f.to_dense(ws);
  const NumaModel& numa = g.numa();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  const std::vector<VertexRange>& chunks = ranges.sub_chunks();
  std::vector<eid_t>& edge_counts = ws.edge_counters(chunks.size());

  // Chunks come from `ranges` (the balance criterion of the running
  // algorithm); their domains come from the edge-balanced partitioning the
  // CSC pages were placed by.
  const partition::Partitioning& storage_parts = g.partitioning_edges();
  const AffineCounts counts = affine_for(
      numa, /*owner=*/&g, /*token=*/&chunks, chunks.size(),
      ws.domain_schedules(),
      [&](std::size_t c) {
        return csc_chunk_domain(storage_parts, numa, chunks[c]);
      },
      [&](std::size_t c) {
        if (cancel != nullptr && cancel->should_stop()) return std::uint64_t{0};
        edge_counts[c] = gather_range(adj, in, op, next, chunks[c], prefetch);
        return static_cast<std::uint64_t>(edge_counts[c]);
      });
  if (affinity != nullptr) affinity->merge(counts);

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (eid_t c : edge_counts) total += c;
    *edges_examined = total;
  }

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(weigh);
  return out;
}

}  // namespace grind::engine
