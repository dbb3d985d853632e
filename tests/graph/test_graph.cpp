#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace grind::graph {
namespace {

TEST(Graph, BuildsAllThreeLayouts) {
  const EdgeList el = rmat(10, 8, 21);
  const eid_t m = el.num_edges();
  const vid_t n = el.num_vertices();
  const Graph g = Graph::build(EdgeList(el));
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_EQ(g.num_edges(), m);
  EXPECT_EQ(g.csr().num_edges(), m);
  EXPECT_EQ(g.csc().num_edges(), m);
  EXPECT_EQ(g.coo().num_edges(), m);
}

TEST(Graph, AutoPartitionCountIsNumaAdmissible) {
  const Graph g = Graph::build(rmat(10, 8, 3));
  const part_t p = g.partitioning_edges().num_partitions();
  EXPECT_EQ(p % static_cast<part_t>(g.numa().domains()), 0u);
  EXPECT_GT(p, 0u);
  EXPECT_EQ(g.partitioning_vertices().num_partitions(), p);
}

TEST(Graph, ExplicitPartitionCountHonoured) {
  BuildOptions opts;
  opts.num_partitions = 16;
  const Graph g = Graph::build(rmat(10, 8, 3), opts);
  EXPECT_EQ(g.partitioning_edges().num_partitions(), 16u);
  EXPECT_EQ(g.coo().num_partitions(), 16u);
}

TEST(Graph, PartitionedCsrOnlyOnRequest) {
  const Graph without = Graph::build(rmat(8, 4, 3));
  EXPECT_FALSE(without.has_partitioned_csr());
  EXPECT_THROW(static_cast<void>(without.partitioned_csr()),
               std::logic_error);

  BuildOptions opts;
  opts.build_partitioned_csr = true;
  opts.num_partitions = 8;
  const Graph with = Graph::build(rmat(8, 4, 3), opts);
  ASSERT_TRUE(with.has_partitioned_csr());
  EXPECT_EQ(with.partitioned_csr().num_partitions(), 8u);
}

TEST(Graph, DegreesMatchEdgeList) {
  const EdgeList el = rmat(9, 4, 9);
  const auto out = el.out_degrees();
  const auto in = el.in_degrees();
  const Graph g = Graph::build(EdgeList(el));
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.out_degree(v), out[v]);
    ASSERT_EQ(g.in_degree(v), in[v]);
  }
}

TEST(Graph, EdgeListRetained) {
  const EdgeList el = rmat(8, 4, 1);
  const eid_t m = el.num_edges();
  const Graph g = Graph::build(EdgeList(el));
  EXPECT_EQ(g.num_edges(), m);
}

TEST(Graph, TinyGraphCapsPartitions) {
  // 64 vertices with align 64 → at most 1 aligned boundary → P small but
  // still NUMA-admissible.
  const Graph g = Graph::build(cycle(64));
  EXPECT_LE(g.partitioning_edges().num_partitions(), 8u);
}

}  // namespace
}  // namespace grind::graph
