// Edge map over the *transposed* graph: data flows d→s along each original
// edge (s, d).  Ligra exposes this as G.transpose(); it is needed by the
// dependency-accumulation phase of betweenness centrality.
//
// The transpose is the forward computation with the two whole-graph
// adjacencies swapped, so the sparse and medium kernels are the forward
// ones, handed the other adjacency:
//   * sparse  — push from active u along its original *in*-edges (the CSC
//               row of u), atomics required; the output is weighed by
//               in-degree;
//   * medium  — gather per original *source* v over its out-edges (the CSR
//               row of v): v is the unique writer → no atomics, over the
//               same partitioned vertex ranges as the forward gather;
//   * dense   — partitioned COO scanned with endpoint roles swapped.  The
//               partitions own *destination* ranges of the original graph,
//               which are source ranges of the transpose, so writers are
//               not unique and atomics are always required (this is why the
//               paper's partitioning-by-destination pairs with forward
//               flow only).  This sweep is the one kernel of its own here.
#pragma once

#include <algorithm>

#include "engine/edge_map.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/bitmap.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

namespace grind::engine {

/// Dense transpose traversal over the partitioned COO with roles swapped —
/// atomics are unavoidable (partitions own original-destination ranges,
/// which are *reader* ranges here).  Plain dynamic scheduling: there is no
/// home-domain story for the reader side, so it reports no affinity.
template <EdgeOperator Op>
Frontier traverse_transpose_coo(const graph::Graph& g, Frontier& f, Op& op,
                                eid_t* edges_examined, TraversalWorkspace& ws,
                                const sys::CancelToken* cancel) {
  f.to_dense(ws);
  const auto& coo = g.coo();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  if (edges_examined != nullptr) *edges_examined = coo.num_edges();

  const auto all = coo.all_edges();
  constexpr std::size_t kChunk = 1 << 14;
  const std::size_t chunks = (all.size() + kChunk - 1) / kChunk;
  parallel_for_dynamic(0, chunks, [&](std::size_t c) {
    if (cancel != nullptr && cancel->should_stop()) return;
    const std::size_t lo = c * kChunk;
    const std::size_t hi = std::min(all.size(), lo + kChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const Edge& e = all[i];  // flow e.dst → e.src
      if (in.get(e.dst) && op.cond(e.src) &&
          op.update_atomic(e.dst, e.src, e.weight)) {
        next.set_atomic(e.src);
      }
    }
  });
  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csc());
  return out;
}

/// Transpose analogue of edge_map(): Algorithm-2 decision with the frontier
/// weight measured in *in*-degrees (out-degrees of the transpose).
template <EdgeOperator Op>
Frontier edge_map_transpose(const graph::Graph& g, Frontier& f, Op op,
                            TraversalWorkspace& ws, const Options& opts = {},
                            TraversalStats* stats = nullptr) {
  const sys::CancelToken* token = opts.cancel.get();
  poll_cancel(token);
  if (f.empty()) return Frontier::empty(g.num_vertices());

  // |F| + Σ deg⁻ over active vertices, computed in place — copying the
  // frontier to recount it would allocate a bitmap per call.
  const eid_t w = static_cast<eid_t>(f.num_active()) + f.degree_sum(g.csc());

  // No pcpm_capable here: the message bins index forward flow (destination-
  // partition consumers), so the transpose decision stays three-way and a
  // forced Layout::kPcpm degrades through kDenseCoo to the backward gather.
  TraversalKind kind = decide_traversal(w, g.num_edges(), opts);
  if (kind == TraversalKind::kPartitionedCsr)
    kind = TraversalKind::kDenseCoo;  // pruned CSR has no transpose form
  // Unless COO is explicitly forced, prefer the atomic-free gather for
  // dense transpose frontiers: partitioning-by-destination aligns update
  // sets with *forward* flow only, so transpose-COO always pays atomics
  // (§II-C) and loses to the single-writer gather.
  if (kind == TraversalKind::kDenseCoo && opts.layout != Layout::kDenseCoo)
    kind = TraversalKind::kBackwardCsc;

  Timer timer;
  eid_t edges = 0;
  Frontier out;
  bool used_atomics = false;
  AffineCounts affinity;
  switch (kind) {
    case TraversalKind::kSparseCsr:
      out = traverse_csr_sparse(g, f, op, g.csc(), g.csc(), &edges, ws,
                                opts.prefetch);
      used_atomics = true;
      break;
    case TraversalKind::kBackwardCsc:
      out = traverse_csc_backward(g, f, op, g.csr(), g.csc(),
                                  gather_ranges(g, opts), &edges, ws,
                                  &affinity, token, opts.prefetch);
      used_atomics = false;
      break;
    case TraversalKind::kDenseCoo:
    case TraversalKind::kPartitionedCsr:
    case TraversalKind::kPcpm:  // unreachable (remapped above); keeps -Wswitch
      out = traverse_transpose_coo(g, f, op, &edges, ws, token);
      used_atomics = true;
      break;
  }

  // The gather and the COO sweep drain on a fired token; as in edge_map,
  // the post-sweep poll is conclusive and keeps a partial frontier from
  // ever being returned.
  poll_cancel(token);

  if (stats != nullptr) {
    stats->record(kind, timer.seconds(), edges, used_atomics);
    stats->record_affinity(affinity);
  }
  return out;
}

}  // namespace grind::engine
