// The baseline engines of Figs 9–10 — Ligra (L), Polymer (P) and
// GraphGrind-v1 (GG-v1) — as one engine class configured by chunk lists.
//
// All three keep two whole-graph layouts (CSR + CSC), switch direction at
// Ligra's threshold |F| + Σ deg⁺ > |E|/20 (below: sparse forward push with
// atomics; above: dense backward gather over the whole CSC, or over the
// whole CSR for the transpose), and have no Algorithm 2, no COO and no
// atomic elision beyond what the gather gives structurally.  They differ
// only in how the gather's vertex iteration space is *chunked* for dynamic
// scheduling:
//   * Ligra (Shun & Blelloch, PPoPP'13) — uniform fixed-size vertex chunks
//     over [0, |V|) (the work-stealing granularity of cilk_for), which
//     load-balances by *vertices*: the imbalance on skewed graphs that
//     GG-v1 fixes;
//   * Polymer (Zhang, Chen & Chen, PPoPP'15) — one vertex-balanced
//     partition per NUMA domain (4; it does not prune zero-degree vertices,
//     §II-E), each split into uniform chunks, processed partition-major —
//     the logical model of domain-affine processing (docs/NUMA.md covers
//     when pages are physically placed and when only accounted);
//   * GG-v1 (Sun, Vandierendonck & Nikolopoulos, ICS'17) — chunks balanced
//     by *edge* count, its load-balancing contribution.
//
// The sparse push and the per-range gather body are the engine's own
// kernels (engine/traverse_csr.hpp, engine/traverse_csc.hpp); only the
// dynamic chunk scheduling is baseline-specific.  Chunk boundaries are
// multiples of 64 vertices.
#pragma once

#include <utility>
#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/traverse_csc.hpp"
#include "engine/traverse_csr.hpp"
#include "engine/vertex_map.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::baselines {

/// Uniform chunks of `chunk` vertices (rounded to 64) covering [0, n).
std::vector<VertexRange> make_uniform_chunks(vid_t n, vid_t chunk);

/// Chunks covering [0, n) such that each holds ≈ `target_edges` edges of the
/// given adjacency (degree = offsets[v+1]-offsets[v]); boundaries rounded up
/// to multiples of 64.
std::vector<VertexRange> make_edge_balanced_chunks(const graph::Csr& adj,
                                                   eid_t target_edges);

/// Split [0, n) into `parts` vertex-balanced ranges first (the NUMA
/// partitions), then chunk each range uniformly — Polymer's scheme.
std::vector<VertexRange> make_partitioned_uniform_chunks(vid_t n, int parts,
                                                         vid_t chunk);

/// The Ligra direction decision all three baselines share: dense when
/// |F| + Σ deg⁺ exceeds |E|/20 (Ligra's threshold), else the sparse push.
[[nodiscard]] bool ligra_is_dense(eid_t weight, eid_t m);

/// Vertices per uniform chunk of Ligra and Polymer (cilk_for grain).
inline constexpr vid_t kChunkVertices = 256;
static_assert(kChunkVertices % 64 == 0,
              "chunk granularity must preserve bitmap-word ownership");

class ChunkedEngine {
 public:
  /// `backward_chunks` split the forward gather (over the CSC),
  /// `transpose_chunks` the transpose gather (over the CSR).
  ChunkedEngine(const graph::Graph& g, const char* name,
                std::vector<VertexRange> backward_chunks,
                std::vector<VertexRange> transpose_chunks)
      : g_(&g),
        name_(name),
        backward_chunks_(std::move(backward_chunks)),
        transpose_chunks_(std::move(transpose_chunks)) {}

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] const char* name() const { return name_; }

  void set_orientation(engine::Orientation o) { orientation_ = o; }
  [[nodiscard]] engine::Orientation orientation() const {
    return orientation_;
  }

  template <engine::EdgeOperator Op>
  Frontier edge_map(Frontier& f, Op op) {
    if (f.empty()) return Frontier::empty(g_->num_vertices());
    if (ligra_is_dense(f.traversal_weight(), g_->num_edges()))
      return dense_gather(f, op, g_->csc(), g_->csr(), backward_chunks_);
    return engine::traverse_csr_sparse(*g_, f, op, g_->csr(), g_->csr(),
                                       nullptr, ws_, /*prefetch=*/false);
  }

  /// Transpose (data flows d→s): weighed by in-degrees, computed in place.
  template <engine::EdgeOperator Op>
  Frontier edge_map_transpose(Frontier& f, Op op) {
    if (f.empty()) return Frontier::empty(g_->num_vertices());
    const eid_t w =
        static_cast<eid_t>(f.num_active()) + f.degree_sum(g_->csc());
    if (ligra_is_dense(w, g_->num_edges()))
      return dense_gather(f, op, g_->csr(), g_->csc(), transpose_chunks_);
    return engine::traverse_csr_sparse(*g_, f, op, g_->csc(), g_->csc(),
                                       nullptr, ws_, /*prefetch=*/false);
  }

  template <typename Fn>
  Frontier vertex_map(const Frontier& f, Fn&& fn) {
    return engine::vertex_map(*g_, f, std::forward<Fn>(fn));
  }

 private:
  /// The engine's gather body over each chunk under plain dynamic
  /// scheduling; single-writer destinations, no atomics.
  template <engine::EdgeOperator Op>
  Frontier dense_gather(Frontier& f, Op& op, const graph::Csr& adj,
                        const graph::Csr& weigh,
                        const std::vector<VertexRange>& chunks) {
    f.to_dense(ws_);
    const Bitmap& in = f.bitmap();
    Bitmap next = ws_.acquire_bitmap(g_->num_vertices());
    parallel_for_dynamic(0, chunks.size(), [&](std::size_t c) {
      engine::gather_range(adj, in, op, next, chunks[c], /*prefetch=*/false);
    });
    Frontier out = Frontier::from_bitmap(std::move(next));
    out.recount(weigh);
    return out;
  }

  const graph::Graph* g_;
  const char* name_;
  std::vector<VertexRange> backward_chunks_;
  std::vector<VertexRange> transpose_chunks_;
  engine::Orientation orientation_ = engine::Orientation::kEdge;
  engine::TraversalWorkspace ws_;  // reusable kernel scratch
};

/// Ligra: uniform kChunkVertices chunks for both directions.
ChunkedEngine ligra(const graph::Graph& g);

/// Polymer: one vertex-balanced partition of uniform chunks per NUMA domain
/// of the default model (4).
ChunkedEngine polymer(const graph::Graph& g);

/// GraphGrind-v1: edge-balanced chunks over the CSC (forward gather) and the
/// CSR (transpose gather), ~8 per thread for dynamic smoothing.
ChunkedEngine graphgrind_v1(const graph::Graph& g);

}  // namespace grind::baselines
