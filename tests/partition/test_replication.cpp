#include "partition/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace grind::partition {
namespace {

using graph::Adjacency;
using graph::Csr;
using graph::EdgeList;

/// Brute-force oracle: distinct partitions per vertex over the edges it
/// groups — (source, partition-of-dst) pairs when partitioning by
/// destination, (destination, partition-of-src) pairs by source.
std::vector<part_t> replica_counts_oracle(const EdgeList& el,
                                         const Partitioning& parts) {
  const bool by_dst = parts.options().by == PartitionBy::kDestination;
  std::vector<std::set<part_t>> sets(el.num_vertices());
  for (const Edge& e : el.edges()) {
    if (by_dst)
      sets[e.src].insert(parts.partition_of(e.dst));
    else
      sets[e.dst].insert(parts.partition_of(e.src));
  }
  std::vector<part_t> counts(el.num_vertices());
  for (vid_t v = 0; v < el.num_vertices(); ++v)
    counts[v] = static_cast<part_t>(sets[v].size());
  return counts;
}

class ReplicationSweep : public ::testing::TestWithParam<part_t> {};

TEST_P(ReplicationSweep, MatchesBruteForceOracle) {
  const EdgeList el = graph::rmat(9, 8, 55);
  const Partitioning parts = make_partitioning(el, GetParam());
  EXPECT_EQ(replica_counts(Csr::build(el, Adjacency::kOut), parts),
            replica_counts_oracle(el, parts));
}

INSTANTIATE_TEST_SUITE_P(Counts, ReplicationSweep,
                         ::testing::Values<part_t>(1, 2, 4, 16, 64),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST(Replication, BySourceCountsOverTheCsc) {
  const EdgeList el = graph::rmat(9, 8, 55);
  PartitionOptions opts;
  opts.by = PartitionBy::kSource;
  const Partitioning parts = make_partitioning(el, 16, opts);
  EXPECT_EQ(replica_counts(Csr::build(el, Adjacency::kIn), parts),
            replica_counts_oracle(el, parts));
  // The CSR groups by source, the wrong rows for this partitioning.
  EXPECT_THROW((void)replica_counts(Csr::build(el, Adjacency::kOut), parts),
               std::invalid_argument);
}

TEST(Replication, GraphCsrMatchesOracleOverTheInternalEdgeList) {
  // A built graph keeps no edge list; its CSR and partitioning, both in
  // internal IDs, must give the counts the builder's ordered list gives —
  // under the identity assignment and under permuting strategies.
  const EdgeList el = graph::rmat(9, 8, 33);
  for (const char* name : {"contiguous", "random", "ldg"}) {
    SCOPED_TRACE(name);
    graph::BuildOptions bopts;
    bopts.num_partitions = 8;
    bopts.partitioner = name;
    graph::GraphBuilder b(EdgeList(el), bopts);
    const graph::Graph g = b.build();
    const Partitioning& pe = g.partitioning_edges();
    const std::vector<part_t> want = replica_counts_oracle(b.edge_list(), pe);
    EXPECT_EQ(replica_counts(g.csr(), pe), want);
    std::uint64_t total = 0;
    for (const part_t c : want) total += c;
    EXPECT_DOUBLE_EQ(replication_factor(g.csr(), pe),
                     static_cast<double>(total) / g.num_vertices());
  }
}

TEST(Replication, GrowsMonotonicallyWithPartitions) {
  const EdgeList el = graph::rmat(11, 12, 5);
  double prev = 0.0;
  for (part_t p : {1u, 4u, 16u, 64u, 256u}) {
    const double r = replication_factor(el, make_partitioning(el, p));
    EXPECT_GE(r, prev - 1e-9) << "p=" << p;
    prev = r;
  }
}

TEST(Replication, SublinearInPartitionCount) {
  // §II-D: "The replication factor grows slower than a linear function".
  const EdgeList el = graph::rmat(11, 12, 5);
  const double r4 = replication_factor(el, make_partitioning(el, 4));
  const double r64 = replication_factor(el, make_partitioning(el, 64));
  EXPECT_LT(r64, r4 * 16.0);
}

TEST(Replication, BoundedByWorstCaseAndPartitionCount) {
  const EdgeList el = graph::rmat(10, 8, 5);
  for (part_t p : {2u, 8u, 32u}) {
    const double r = replication_factor(el, make_partitioning(el, p));
    EXPECT_LE(r, worst_case_replication(el) + 1e-9);
    EXPECT_LE(r, static_cast<double>(p) + 1e-9);
    EXPECT_GE(r, 0.0);
  }
}

TEST(Replication, OnePartitionCountsSourcesOnce) {
  const EdgeList el = graph::star(100);
  const double r = replication_factor(el, make_partitioning(el, 1));
  // Only the hub has out-edges: 1 replica over 100 vertices.
  EXPECT_NEAR(r, 0.01, 1e-12);
}

TEST(Replication, EmptyGraphIsZero) {
  const EdgeList el;
  EXPECT_DOUBLE_EQ(worst_case_replication(el), 0.0);
}

}  // namespace
}  // namespace grind::partition
