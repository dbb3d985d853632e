// The edge-map decision procedure — Algorithm 2 of the paper.
//
//   weight = |F| + Σ_{v∈F} deg⁺(v)
//   weight >  |E|/2   →  dense frontier        → partitioned COO
//   weight >  |E|/20  →  medium-dense frontier → backward whole-CSC
//   otherwise         →  sparse frontier       → forward whole-CSR
//
// "The distinction of forward vs. backward graph traversal folds into this
// decision and need no longer be specified by the programmer" (abstract):
// callers provide one operator with update / update_atomic / cond and the
// engine picks direction, layout and atomics policy.
//
// Options::layout can force a layout for the non-sparse iterations (sparse
// frontiers always use the unpartitioned CSR, which every configuration in
// the paper keeps, §III-A1) — this reproduces the Fig 5/6 curves.
#pragma once

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/traverse_coo.hpp"
#include "engine/traverse_csc.hpp"
#include "engine/traverse_csr.hpp"
#include "engine/traverse_pcpm.hpp"
#include "engine/traverse_pcsr.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/cancel.hpp"
#include "sys/fault.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

namespace grind::engine {

/// Poll a cancellation token at a kernel boundary; throws sys::Cancelled
/// when the token (or the "engine.poll-cancel" fault site) has fired.
/// Safe to call with a null token.
inline void poll_cancel(const sys::CancelToken* token) {
  if (token == nullptr) return;
  const sys::CancelState s = token->state();
  if (s != sys::CancelState::kRun) throw sys::Cancelled(s);
  if (GRIND_FAULT_FIRE("engine.poll-cancel")) {
    throw sys::Cancelled(sys::CancelState::kCancelled);
  }
}

/// Pick the traversal kind for frontier weight `w` on a graph of `m` edges.
/// Exposed separately so tests can probe the decision thresholds directly.
///
/// `pcpm_capable` is whether the partition-centric scatter-gather kernel is
/// admissible for this call — the operator models ScatterGatherOperator
/// *and* the graph carries message bins (edge_map computes it; it defaults
/// to false so threshold probes ask about the classic three-way decision).
/// When capable, non-sparse frontiers above the Options::pcpm_fraction cut
/// of edge-oriented algorithms take the binned path; a forced
/// Layout::kPcpm without capability degrades to the dense COO, so sweeps
/// may force the layout uniformly across operators.
inline TraversalKind decide_traversal(eid_t w, eid_t m, const Options& opts,
                                      bool pcpm_capable = false) {
  if (opts.layout == Layout::kSparseCsr) return TraversalKind::kSparseCsr;
  const auto sparse_cut =
      static_cast<double>(m) * opts.sparse_fraction;  // |E|/20
  const auto dense_cut = static_cast<double>(m) * opts.dense_fraction;  // |E|/2
  if (static_cast<double>(w) <= sparse_cut) return TraversalKind::kSparseCsr;
  switch (opts.layout) {
    case Layout::kBackwardCsc:
      return TraversalKind::kBackwardCsc;
    case Layout::kDenseCoo:
      return TraversalKind::kDenseCoo;
    case Layout::kPartitionedCsr:
      return TraversalKind::kPartitionedCsr;
    case Layout::kPcpm:
      return pcpm_capable ? TraversalKind::kPcpm : TraversalKind::kDenseCoo;
    case Layout::kAuto:
    case Layout::kSparseCsr:
      break;
  }
  // PCPM cut (checked before the medium/dense split so ablations can push
  // the binned mode down into the medium band): two sequential sweeps only
  // beat one random-write sweep when enough of the graph is active.
  if (pcpm_capable && opts.orientation == Orientation::kEdge &&
      static_cast<double>(w) > static_cast<double>(m) * opts.pcpm_fraction)
    return TraversalKind::kPcpm;
  if (static_cast<double>(w) <= dense_cut) return TraversalKind::kBackwardCsc;
  // Dense frontier: COO for edge-oriented algorithms; vertex-oriented ones
  // stay on the backward CSC (§IV-A's empirical classification).
  return opts.orientation == Orientation::kVertex
             ? TraversalKind::kBackwardCsc
             : TraversalKind::kDenseCoo;
}

/// Whether a partition-parallel kernel should use atomics: forced by the
/// options, else elided exactly when each partition can be processed by one
/// thread — P ≥ threads (§IV-A).
inline bool decide_atomics(const graph::Graph& g, const Options& opts) {
  switch (opts.atomics) {
    case AtomicsMode::kForceOn:
      return true;
    case AtomicsMode::kForceOff:
      return false;
    case AtomicsMode::kAuto:
      break;
  }
  return g.partitioning_edges().num_partitions() <
         static_cast<part_t>(num_threads());
}

/// Computation ranges of the backward gather: vertex- or edge-balanced per
/// the running algorithm's orientation (§III-D).
inline const partition::Partitioning& gather_ranges(const graph::Graph& g,
                                                    const Options& opts) {
  return opts.orientation == Orientation::kVertex ? g.partitioning_vertices()
                                                  : g.partitioning_edges();
}

/// Apply `op` to the out-edges of the active vertices of `f`; returns the
/// new frontier of vertices whose update returned true.
///
/// `f` is taken by mutable reference because the engine may convert its
/// representation (sparse list ↔ bitmap) in place; its logical content is
/// unchanged.
///
/// `ws` supplies all transient kernel state (next-frontier bitmap,
/// sparse-push slots, edge counters, domain schedules) from reusable pools
/// so that steady-state iterations of a traversal loop perform no heap
/// allocation.
template <EdgeOperator Op>
Frontier edge_map(const graph::Graph& g, Frontier& f, Op op,
                  TraversalWorkspace& ws, const Options& opts = {},
                  TraversalStats* stats = nullptr) {
  const sys::CancelToken* token = opts.cancel.get();
  poll_cancel(token);
  if (f.empty()) return Frontier::empty(g.num_vertices());

  const bool pcpm_capable = ScatterGatherOperator<Op> && g.has_pcpm_bins();
  const TraversalKind kind = decide_traversal(f.traversal_weight(),
                                              g.num_edges(), opts,
                                              pcpm_capable);
  const bool atomics = decide_atomics(g, opts);

  Timer timer;
  eid_t edges = 0;
  Frontier out;
  bool used_atomics = false;
  std::uint64_t bin_bytes = 0;  // PCPM message traffic of this call
  AffineCounts affinity;  // home/stolen split of the partition schedulers
  switch (kind) {
    case TraversalKind::kSparseCsr:
      out = traverse_csr_sparse(g, f, op, g.csr(), g.csr(), &edges, ws,
                                opts.prefetch);
      used_atomics = true;  // sparse forward inherently uses update_atomic
      break;
    case TraversalKind::kBackwardCsc:
      out = traverse_csc_backward(g, f, op, g.csc(), g.csr(),
                                  gather_ranges(g, opts), &edges, ws,
                                  &affinity, token, opts.prefetch);
      used_atomics = false;  // backward is single-writer by construction
      break;
    case TraversalKind::kDenseCoo:
      out = traverse_coo(g, f, op, atomics, &edges, ws, &affinity, token);
      used_atomics = atomics;
      break;
    case TraversalKind::kPartitionedCsr:
      out = traverse_partitioned_csr(g, f, op, atomics, &edges, ws, &affinity,
                                     token);
      used_atomics = atomics;
      break;
    case TraversalKind::kPcpm:
      // Guarded if-constexpr: decide_traversal only returns kPcpm when the
      // operator models the concept, but the non-SG instantiations of this
      // function still need the call to type-check away.
      if constexpr (ScatterGatherOperator<Op>) {
        out = traverse_pcpm(g, f, op, &edges, ws, &affinity, token,
                            &bin_bytes);
        used_atomics = false;  // destination partitions are single-writer
      }
      break;
  }

  // The partition kernels early-out (skipping whole partitions) when the
  // token fires mid-sweep; they cannot throw from inside an OpenMP region.
  // The token is monotonic, so checking it *after* the sweep is conclusive:
  // still runnable here ⟹ it never fired during the sweep ⟹ `out` is
  // complete.  Otherwise `out` may be partial and must not be returned as a
  // valid frontier.
  poll_cancel(token);

  if (stats != nullptr) {
    stats->record(kind, timer.seconds(), edges, used_atomics);
    stats->record_affinity(affinity);
    if (bin_bytes != 0) stats->record_pcpm_bytes(bin_bytes);
  }
  return out;
}

}  // namespace grind::engine
