// Partition-centric scatter-gather traversal (PCPM) over the message-bin
// layout of partition/pcpm_bins.hpp — ROADMAP item 3, after "Accelerating
// PageRank using Partition-Centric Processing" (PAPERS.md).
//
// The dense COO sweep interleaves a streaming edge read with a random
// destination write per edge; on power-law graphs those writes are the MPKI
// bench_fig8 measures.  PCPM splits the sweep in two:
//
//   scatter  one task per *source* partition sp: for each destination
//            partition dp, walk the (sp → dp) bin and write one message
//            value per active-source slot — sequential stores into dp's
//            consumer-domain buffer, no atomics (slot ranges are disjoint
//            across source partitions);
//   gather   one task per *destination* partition dp: walk dp's slots in
//            order and reduce each active message into the destination —
//            the random writes now land inside one partition's working set,
//            and destination partitions are disjoint so plain stores
//            suffice (next-frontier bits go through OwnedRangeBits, as in
//            the COO "+na" sweep).
//
// Bit-identity contract: dp's slots are sorted by (src, dst) — exactly the
// per-partition edge order of the non-atomic dense COO sweep under
// EdgeOrder::kSource — and the gather applies the same
// frontier / cond / reduce chain per slot, so for operators satisfying
// update(s,d,w) ≡ gather(d, scatter(s,w)) the floating-point accumulation
// order is identical and results match the COO kernel bitwise
// (tests/engine/test_pcpm.cpp).
//
// Both sweeps are scheduled domain-affinely; the message-value buffer is
// pooled in TraversalWorkspace (steady-state zero-allocation) and each
// destination partition's slice is page-placed on its consumer domain the
// first time a (bins, buffer) pairing is seen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "partition/pcpm_bins.hpp"
#include "sys/arena.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// `cancel`, when non-null, is polled once per partition task in each
/// sweep; a fired token drains the remaining work items.  Bodies never
/// throw (they run inside OpenMP regions) — the caller re-checks the token
/// after the call and discards the partial frontier.  `bin_bytes`, when
/// non-null, receives the message traffic of this call (scatter stores +
/// gather loads).
template <ScatterGatherOperator Op>
Frontier traverse_pcpm(const graph::Graph& g, Frontier& f, Op& op,
                       eid_t* edges_examined, TraversalWorkspace& ws,
                       AffineCounts* affinity, const sys::CancelToken* cancel,
                       std::uint64_t* bin_bytes) {
  using V = typename Op::scatter_value_t;
  f.to_dense(ws);
  const auto& bins = g.pcpm_bins();
  const NumaModel& numa = g.numa();
  DomainScheduleCache& sched = ws.domain_schedules();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  const part_t np = bins.num_partitions();
  const eid_t slots = bins.num_slots();

  if (edges_examined != nullptr) *edges_examined = slots;
  if (bin_bytes != nullptr)
    *bin_bytes = 2 * static_cast<std::uint64_t>(slots) * sizeof(V);

  // Message-value buffer: one slot per edge, indexed by each partition's
  // slot_base.  Pooled in the workspace (capacity retained, so steady-state
  // iterations never allocate).
  V* values = reinterpret_cast<V*>(ws.pcpm_values(slots * sizeof(V)));
  if (ws.pcpm_values_need_placement(&bins)) {
    // Consumer-domain placement: dp's slice is what dp's gather task —
    // running on dp's domain — reads, and what remote scatters stream
    // into.  Done once per (bins, buffer storage) pairing.
    auto& arenas = NumaArenas::instance();
    for (part_t dp = 0; dp < np; ++dp) {
      const auto& part = bins.part(dp);
      if (part.num_slots() == 0) continue;
      arenas.place(values + part.slot_base, part.num_slots() * sizeof(V),
                   numa.domain_of_partition(dp, np));
    }
  }

  AffineCounts counts;

  // Scatter sweep: task sp writes the (sp → dp) slice of every destination
  // partition — sequential within each bin, disjoint across tasks.
  counts = affine_for(
      numa, /*owner=*/&g, /*token=*/&bins, np, sched,
      [&](std::size_t sp) {
        return numa.domain_of_partition(static_cast<part_t>(sp), np);
      },
      [&](std::size_t sp) {
        if (cancel != nullptr && cancel->should_stop()) return std::uint64_t{0};
        std::uint64_t scanned = 0;
        for (part_t dp = 0; dp < np; ++dp) {
          const auto& part = bins.part(dp);
          const eid_t lo = part.offsets[sp], hi = part.offsets[sp + 1];
          V* out = values + part.slot_base;
          for (eid_t i = lo; i < hi; ++i) {
            const vid_t s = part.src[i];
            if (in.get(s)) out[i] = op.scatter(s, part.weights[i]);
          }
          scanned += hi - lo;
        }
        return scanned;
      });

  // Gather sweep: task dp reduces its slots in (src, dst) order — slot
  // order is already grouped by source partition ascending, so a flat walk
  // reproduces the COO per-partition edge order exactly.  The per-slot
  // chain mirrors traverse_coo's no-atomics body with
  // update(s,d,w) replaced by gather(d, scatter(s,w)).
  // Same item count and domain map as the scatter, so both sweeps share one
  // cached schedule (keyed on (&g, &bins, np)).  Bin partition dp collects
  // the in-edges of vertex range dp of the edge-balanced partitioning.
  const partition::Partitioning& parts = g.partitioning_edges();
  AffineCounts gather_counts = affine_for(
      numa, /*owner=*/&g, /*token=*/&bins, np, sched,
      [&](std::size_t dp) {
        return numa.domain_of_partition(static_cast<part_t>(dp), np);
      },
      [&](std::size_t dp) {
        if (cancel != nullptr && cancel->should_stop()) return std::uint64_t{0};
        const auto& part = bins.part(static_cast<part_t>(dp));
        const VertexRange r = parts.range(static_cast<part_t>(dp));
        const OwnedRangeBits out(next, r.begin, r.end);
        const eid_t m = part.num_slots();
        const V* vals = values + part.slot_base;
        for (eid_t i = 0; i < m; ++i) {
          const vid_t s = part.src[i];
          const vid_t d = part.dst[i];
          if (in.get(s) && op.cond(d) && op.gather(d, vals[i])) out.set(d);
        }
        return static_cast<std::uint64_t>(m);
      });
  counts.merge(gather_counts);
  if (affinity != nullptr) affinity->merge(counts);

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csr());
  return out;
}

}  // namespace grind::engine
