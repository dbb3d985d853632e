// Sparse forward traversal over the whole-graph CSR (Algorithm 2, line 6).
//
// "When the frontier is sparse ... there is little point in partitioning the
// graph" (§III-A1): the kernel iterates only the active sources from the
// sparse list, visits their out-edges, and applies the operator's *atomic*
// update — destinations are hit by arbitrary threads, so this is the one
// kernel that inherently needs hardware atomics.
//
// The output frontier is produced directly in sparse form, as in Ligra's
// edgeMapSparse: a prefix sum of the active sources' degrees gives every
// edge a slot in one workspace-pooled array, each block of sources writes
// the destinations its updates activated to the front of its slots, and
// the blocks' filled slots are concatenated into the output list.  Every
// buffer comes from the workspace at a size fixed by the frontier, so
// steady-state rounds do not allocate whatever the schedule, and the output
// lists destinations in frontier-then-row order.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// Lookahead distance (in edges) of the software-prefetch path — far enough
/// to cover a memory round-trip at one edge per few cycles, near enough to
/// stay inside the typical active row.
inline constexpr std::size_t kCsrPrefetchDist = 16;

/// Active sources per work item of the sparse push: its dynamic-schedule
/// grain and the granularity of its slot prefix sum.
inline constexpr std::size_t kSparseBlockVertices = 16;

/// Push from each active vertex of `f` along its row of `adj`; the output
/// frontier's Σ-degree statistic is counted in `weigh`.  Forward traversal
/// passes (csr, csr); the transpose passes (csc, csc) — the same kernel
/// with the roles of the two whole-graph adjacencies swapped.
///
/// `prefetch`, when set (Options::prefetch via edge_map), issues
/// __builtin_prefetch for the *next* active source's row bounds in the
/// outer loop and for upcoming target entries in the inner loop — the two
/// demand-miss streams of the sparse push: row starts are random (sparse
/// list order) and the target array is only sequential within a row.
template <EdgeOperator Op>
Frontier traverse_csr_sparse(const graph::Graph& g, Frontier& f, Op& op,
                             const graph::Csr& adj, const graph::Csr& weigh,
                             eid_t* edges_examined, TraversalWorkspace& ws,
                             bool prefetch) {
  f.to_sparse(ws);
  const auto offsets = adj.offsets();
  const auto verts = f.vertices();
  const std::size_t blocks =
      (verts.size() + kSparseBlockVertices - 1) / kSparseBlockVertices;
  // block_slots[b]..block_slots[b+1]: block b's edge slots (a prefix sum of
  // its sources' degrees); block_hits[b]: how many of them it filled.
  std::vector<std::size_t>& block_slots = ws.scratch_offsets(blocks + 1);
  std::vector<std::size_t>& block_hits = ws.scratch_counts(blocks);
  vid_t* slots = nullptr;
  std::size_t hits = 0;
  const int nt = num_threads();

#pragma omp parallel num_threads(nt)
  {
#pragma omp for schedule(static)
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t hi =
          std::min(verts.size(), (b + 1) * kSparseBlockVertices);
      std::size_t deg = 0;
      for (std::size_t i = b * kSparseBlockVertices; i < hi; ++i)
        deg += adj.degree(verts[i]);
      block_slots[b + 1] = deg;
    }
#pragma omp single
    {
      block_slots[0] = 0;
      for (std::size_t b = 0; b < blocks; ++b)
        block_slots[b + 1] += block_slots[b];
      slots = ws.sparse_slots(block_slots[blocks]);
    }
    // A block writes the destinations its updates activated (update_atomic
    // claims a destination exactly once, the Ligra contract) to the front
    // of its own slot range.
#pragma omp for schedule(dynamic, 1) reduction(+ : hits) nowait
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t hi =
          std::min(verts.size(), (b + 1) * kSparseBlockVertices);
      std::size_t filled = 0;
      for (std::size_t i = b * kSparseBlockVertices; i < hi; ++i) {
        const vid_t s = verts[i];
        if (prefetch && i + 1 < verts.size())
          __builtin_prefetch(&offsets[verts[i + 1]]);
        const auto neigh = adj.neighbors(s);
        const auto wts = adj.weights(s);
        for (std::size_t j = 0; j < neigh.size(); ++j) {
          if (prefetch && j + kCsrPrefetchDist < neigh.size())
            __builtin_prefetch(&neigh[j + kCsrPrefetchDist]);
          const vid_t d = neigh[j];
          if (op.cond(d) && op.update_atomic(s, d, wts[j]))
            slots[block_slots[b] + filled++] = d;
        }
      }
      block_hits[b] = filled;
      hits += filled;
    }
  }

  // Concatenate the blocks' filled slots into one sparse list (recycled
  // capacity; ownership moves into the frontier and returns via
  // Frontier::into_workspace).
  std::vector<vid_t> next = ws.acquire_vertex_list();
  next.reserve(hits);
  for (std::size_t b = 0; b < blocks; ++b)
    next.insert(next.end(), slots + block_slots[b],
                slots + block_slots[b] + block_hits[b]);

  if (edges_examined != nullptr) *edges_examined = block_slots[blocks];
  return Frontier::from_vertices(g.num_vertices(), std::move(next), &weigh);
}

}  // namespace grind::engine
