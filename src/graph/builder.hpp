// Staged graph-construction pipeline:  order → assign → partition → layouts.
//
// Graph::build used to be a monolithic constructor; this class splits it
// into cached stages so that callers varying one knob do not pay for
// the stages it does not touch:
//
//   order      apply the BuildOptions::ordering vertex relabeling to the
//              edge list and record the VertexRemap (reorder.hpp);
//   assign     run the configured PartitionerRegistry strategy
//              (BuildOptions::partitioner) over the ordered edge list and
//              fold its vertex→partition assignment into the pipeline:
//              plan_assignment() turns it into a second VertexRemap
//              (vertices stably sorted by home partition) composed into
//              the build's remap, plus the aligned contiguous ranges the
//              sorted vertices occupy.  The contiguous baseline emits a
//              monotone assignment, so the permutation collapses to the
//              identity and the stage reproduces the pre-registry build
//              bit-for-bit (docs/PARTITIONING.md);
//   partition  resolve the partition count and build both the edge- and
//              vertex-balanced partitionings over the final ID space;
//   layouts    build the CSR/CSC indexes, the partitioned COO, and (on
//              request) the partitioned pruned CSR and PCPM bins.  Each
//              starts with one parallel, stable edge-bucketing pass
//              (stable_bucket in sys/parallel.hpp: rows for CSR/CSC, home
//              partitions for the rest), so every bucket holds its edges
//              in edge-list order and the per-bucket sorts produce the same
//              bytes at any thread count (docs/BUILD_PIPELINE.md,
//              "Layouts (stage 4)").
//
// Stages run lazily and are memoised; the with_*() setters invalidate
// exactly the downstream state they affect (changing the COO edge order
// rebuilds only the COO bucket sort — the ordering, partitionings, and
// CSR/CSC indexes are reused).  `build() &` copies the cached products into
// a Graph and leaves the builder reusable, which is what lets
// bench_fig7_sort_order sweep vertex orderings × edge orders without
// rebuilding unrelated stages; `build() &&` moves them out.
//
// Known tradeoff: the lvalue build() deep-copies the cached stage products
// (memcpy of large arrays) rather than sharing them — cheap next to the
// sorts it avoids re-running, but it transiently doubles the graph's
// footprint.  Sweeps that are memory-bound should drop each Graph before
// the next build(), or use the rvalue overload for the final point.
#pragma once

#include <memory>

#include "graph/graph.hpp"
#include "graph/reorder.hpp"

namespace grind::graph {

class GraphBuilder {
 public:
  explicit GraphBuilder(EdgeList el, BuildOptions opts = {});

  // ---- pipeline configuration (each invalidates its downstream stages) ----
  GraphBuilder& with_ordering(VertexOrdering o);
  /// 0 = auto (paper default 384, capped by alignment and edge count).
  GraphBuilder& with_partitions(part_t p);
  /// Select the partitioning strategy by registry name, with its
  /// (unresolved) parameter bag.  Unknown names / bad params surface when
  /// assign() runs the registry lookup and schema resolution.
  GraphBuilder& with_partitioner(std::string name,
                                 algorithms::Params params = {});
  GraphBuilder& with_coo_order(partition::EdgeOrder o);
  GraphBuilder& with_partitioned_csr(bool on);
  GraphBuilder& with_pcpm_bins(bool on);

  // ---- stages (idempotent; each runs its prerequisites) ----
  GraphBuilder& order();
  GraphBuilder& assign();
  GraphBuilder& partition();
  GraphBuilder& layouts();

  // ---- inspection between stages ----
  [[nodiscard]] const BuildOptions& options() const { return opts_; }
  /// The ordered edge list (runs order()).
  const EdgeList& edge_list();
  /// The remap of the configured ordering (runs order()).
  const VertexRemap& remap();
  /// Partitionings over the ordered ID space (runs partition()).
  const partition::Partitioning& partitioning_edges();
  const partition::Partitioning& partitioning_vertices();

  /// Finish pending stages and assemble a Graph.  The lvalue overload
  /// copies the cached stage products so the builder stays reusable; the
  /// rvalue overload moves them (what Graph::build uses).
  [[nodiscard]] Graph build() &;
  [[nodiscard]] Graph build() &&;

 private:
  void resolve_partition_count();
  /// Restore el_ to original IDs and discard every relabeling-dependent
  /// stage — the reset path for knobs that change the vertex permutation
  /// (ordering, partitioner, and partition count once a non-identity
  /// assignment has been folded in).
  void reset_relabel();

  EdgeList el_;  // ordered in place once order()/assign() have run
  BuildOptions opts_;
  part_t requested_partitions_;  // as configured; opts_ holds the resolved P
  algorithms::Params requested_ppart_;  // as configured; opts_ holds resolved
  NumaModel numa_;

  VertexRemap remap_;
  /// Aligned contiguous ranges from the assign stage (the edge-balanced
  /// partitioning's ranges; its edge counts are recomputed by partition()).
  std::vector<VertexRange> assign_ranges_;
  /// Whether the assign stage's permutation was the identity — with_*
  /// setters use this to keep the cheap invalidation paths for builds the
  /// assignment never actually permuted (the contiguous default).
  bool assign_identity_ = true;
  partition::Partitioning part_edges_;
  partition::Partitioning part_vertices_;
  Csr csr_;
  Csr csc_;
  partition::PartitionedCoo coo_;
  std::unique_ptr<partition::PartitionedCsr> pcsr_;
  std::unique_ptr<partition::PcpmBins> pcpm_;

  bool order_done_ = false;
  bool assign_done_ = false;
  bool partition_done_ = false;
  bool index_done_ = false;  // CSR + CSC arrays
  bool index_placed_ = false;  // their page placement, per current partitioning
  bool coo_done_ = false;
  bool pcsr_done_ = false;
  bool pcpm_done_ = false;
};

}  // namespace grind::graph
