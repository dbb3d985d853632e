// Partition-centric message bins — the build-time layout behind the PCPM
// scatter-gather traversal (engine/traverse_pcpm.hpp), after "Accelerating
// PageRank using Partition-Centric Processing" (PAPERS.md; ROADMAP item 3).
//
// Partition dp owns one bin per source partition sp: the (sp → dp) bin holds
// every edge whose source lives in sp and destination in dp.  The scatter
// sweep walks source partitions and writes one message value per slot,
// sequentially within each bin; the gather sweep walks destination
// partitions and reduces their inbound bins with no atomics (destination
// partitions are disjoint, so each accumulator has a single writer).
//
// Slot order is the bit-identity contract with the dense COO kernel: within
// partition dp the slots are sorted by (src, dst) — exactly
// PartitionedCoo's EdgeOrder::kSource — and because partitions are
// contiguous ascending vertex ranges, that global sort is automatically
// grouped by source partition.  A gather that walks sp = 0..P-1 and each
// bin's slots in order therefore reduces dp's in-edges in the *same order*
// as the non-atomic COO sweep, giving bitwise-identical floating-point
// accumulation.
//
// Like the pruned CSR (partitioned_csr.hpp), each partition's arrays are
// DomainVectors allocated through the *consumer* partition's NUMA arena:
// the gather — the random-access, latency-bound half — runs on threads
// attached to dp's domain and finds its bins local; the scatter's remote
// writes are sequential streams the hardware write-combines.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/edge_list.hpp"
#include "partition/partitioner.hpp"
#include "sys/arena.hpp"
#include "sys/numa.hpp"
#include "sys/types.hpp"

namespace grind::partition {

/// One destination partition's inbound bins.  `offsets` is indexed by
/// source partition: bin (sp → this) occupies slots
/// [offsets[sp], offsets[sp+1]).  `src`/`dst`/`weights` are per-slot
/// sidecars (the static half of each message record; the dynamic value
/// lives in a per-traversal buffer indexed by `slot_base` + slot).
struct PcpmPartBins {
  /// P+1 entries; offsets[sp]..offsets[sp+1] are the slots fed by sp.
  DomainVector<eid_t> offsets;
  /// Source vertex of each slot (scatter reads it; gather re-checks the
  /// frontier with it).  Ascending within the partition.
  DomainVector<vid_t> src;
  /// Destination vertex of each slot (gather's reduce target).
  DomainVector<vid_t> dst;
  /// Edge weight of each slot.
  DomainVector<weight_t> weights;
  /// Global slot index of this partition's first slot — the offset of its
  /// bins inside the shared per-traversal value buffer.
  eid_t slot_base = 0;

  /// Point the (empty) arrays at domain `d`'s arena before filling them.
  void set_domain(int d) {
    offsets = DomainVector<eid_t>(ArenaAllocator<eid_t>(d));
    src = DomainVector<vid_t>(ArenaAllocator<vid_t>(d));
    dst = DomainVector<vid_t>(ArenaAllocator<vid_t>(d));
    weights = DomainVector<weight_t>(ArenaAllocator<weight_t>(d));
  }

  [[nodiscard]] eid_t num_slots() const { return src.size(); }
};

/// The full bin layout: one PcpmPartBins per destination partition, always
/// grouped by *destination* regardless of the partitioning's balance
/// criterion (the gather owns destinations; that is what makes it
/// atomics-free).
class PcpmBins {
 public:
  PcpmBins() = default;

  /// Build from an edge list and a partitioning.  With a NumaModel each
  /// partition's arrays are allocated through the arena of
  /// NumaModel::domain_of_partition(dp) — the consumer's domain.  Throws
  /// std::out_of_range if an endpoint lies outside [0, parts.num_vertices()).
  static PcpmBins build(const graph::EdgeList& el, const Partitioning& parts,
                        const NumaModel* numa = nullptr);

  [[nodiscard]] part_t num_partitions() const {
    return static_cast<part_t>(parts_.size());
  }
  [[nodiscard]] const PcpmPartBins& part(part_t p) const { return parts_[p]; }

  /// Total message slots = |E| (every edge carries one message per sweep).
  [[nodiscard]] eid_t num_slots() const { return total_slots_; }

  /// Slots whose source and destination partitions differ — the partition
  /// cut.  Diagonal (sp == dp) bins exist too, so the per-partition offset
  /// arrays always sum to that partition's in-degree.
  [[nodiscard]] eid_t cut_slots() const;

  /// Measured bytes of the static layout (offsets + sidecars).
  [[nodiscard]] std::size_t storage_bytes() const;

 private:
  std::vector<PcpmPartBins> parts_;
  eid_t total_slots_ = 0;
};

}  // namespace grind::partition
