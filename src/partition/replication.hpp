// Vertex replication accounting (§II-D, Fig 3).
//
// When the edge set is partitioned, a vertex "appears" in every partition
// holding one of its incident edges.  For partitioning-by-destination in a
// CSR (source-grouped) layout, vertex v is replicated once per partition in
// which it has at least one out-edge; the Fig-1 example's 7/6 average and
// the worst case r = |E|/|V| both follow from this counting.
//
// The count walks a sorted adjacency index: the CSR under partitioning-by-
// destination (rows = sources, neighbours = the destinations that pick the
// partition), the CSC under partitioning-by-source.  Partitions are
// contiguous vertex ranges and rows are sorted, so a row's distinct
// partitions are its boundary crossings — one linear pass, no sort.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "partition/partitioner.hpp"

namespace grind::partition {

/// Per-vertex replica counts (length |V|): the number of distinct
/// partitions among each row's neighbours.  `rows` must be the CSR
/// (Adjacency::kOut) for PartitionBy::kDestination and the CSC (kIn) for
/// kSource, and `parts` must cover its vertices; otherwise throws
/// std::invalid_argument.
std::vector<part_t> replica_counts(const graph::Csr& rows,
                                   const Partitioning& parts);

/// Replication factor r(p): average over all |V| vertices of
/// replica_counts.  Vertices appearing nowhere contribute 0.
double replication_factor(const graph::Csr& rows, const Partitioning& parts);

/// The same, over an edge list: builds the matching CSR/CSC and counts it.
double replication_factor(const graph::EdgeList& el, const Partitioning& parts);

/// Worst-case replication factor |E| / |V| (§II-D).
double worst_case_replication(const graph::EdgeList& el);

}  // namespace grind::partition
