#include "partition/replication.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sys/parallel.hpp"

namespace grind::partition {

namespace {

/// The adjacency whose rows group each vertex's edges by the endpoint the
/// partitioning does not home them on.
graph::Adjacency counted_rows(const Partitioning& parts) {
  return parts.options().by == PartitionBy::kDestination
             ? graph::Adjacency::kOut
             : graph::Adjacency::kIn;
}

// Rows per dynamic-schedule claim: most rows of a skewed graph are short.
constexpr std::size_t kRowChunk = 256;

}  // namespace

std::vector<part_t> replica_counts(const graph::Csr& rows,
                                   const Partitioning& parts) {
  if (rows.adjacency() != counted_rows(parts))
    throw std::invalid_argument(
        "replica_counts: partitioning by destination counts over the CSR, "
        "by source over the CSC");
  const vid_t n = rows.num_vertices();
  if (n > parts.num_vertices())
    throw std::invalid_argument(
        "replica_counts: partitioning covers " +
        std::to_string(parts.num_vertices()) + " of " + std::to_string(n) +
        " vertices");

  std::vector<part_t> counts(n, 0);
  parallel_for_dynamic(
      0, n,
      [&](std::size_t v) {
        // Neighbours ascend, so each partition's run is contiguous: count a
        // partition when the walk first crosses into it.
        part_t c = 0;
        vid_t end = 0;  // one past the current partition's range
        for (const vid_t u : rows.neighbors(static_cast<vid_t>(v))) {
          if (u < end) continue;
          ++c;
          end = parts.range(parts.partition_of(u)).end;
        }
        counts[v] = c;
      },
      kRowChunk);
  return counts;
}

double replication_factor(const graph::Csr& rows, const Partitioning& parts) {
  if (rows.num_vertices() == 0) return 0.0;
  std::uint64_t total = 0;
  for (const part_t c : replica_counts(rows, parts)) total += c;
  return static_cast<double>(total) /
         static_cast<double>(rows.num_vertices());
}

double replication_factor(const graph::EdgeList& el,
                          const Partitioning& parts) {
  return replication_factor(graph::Csr::build(el, counted_rows(parts)), parts);
}

double worst_case_replication(const graph::EdgeList& el) {
  if (el.num_vertices() == 0) return 0.0;
  return static_cast<double>(el.num_edges()) /
         static_cast<double>(el.num_vertices());
}

}  // namespace grind::partition
