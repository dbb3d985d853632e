#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"

namespace grind::graph {
namespace {

TEST(GraphBuilder, StagedBuildMatchesMonolithicBuild) {
  const EdgeList el = rmat(9, 6, 11);
  BuildOptions opts;
  opts.num_partitions = 16;

  const Graph mono = Graph::build(EdgeList(el), opts);
  GraphBuilder b(EdgeList(el), opts);
  b.order().partition().layouts();
  const Graph staged = b.build();

  ASSERT_EQ(staged.num_vertices(), mono.num_vertices());
  ASSERT_EQ(staged.num_edges(), mono.num_edges());
  ASSERT_EQ(staged.partitioning_edges().num_partitions(),
            mono.partitioning_edges().num_partitions());
  for (part_t p = 0; p < mono.partitioning_edges().num_partitions(); ++p) {
    EXPECT_EQ(staged.partitioning_edges().range(p).begin,
              mono.partitioning_edges().range(p).begin);
    EXPECT_EQ(staged.partitioning_edges().range(p).end,
              mono.partitioning_edges().range(p).end);
  }
  for (vid_t v = 0; v < mono.num_vertices(); ++v)
    ASSERT_EQ(staged.out_degree(v), mono.out_degree(v));
}

TEST(GraphBuilder, DefaultBuildCarriesIdentityRemap) {
  const Graph g = Graph::build(rmat(8, 4, 3));
  EXPECT_TRUE(g.remap().is_identity());
  EXPECT_EQ(g.to_internal(7), 7u);
  EXPECT_EQ(g.to_original(7), 7u);
}

TEST(GraphBuilder, OrderingStageProducesConsistentRemapAndLayouts) {
  const EdgeList el = rmat(9, 6, 7);
  BuildOptions opts;
  opts.num_partitions = 8;
  opts.ordering = VertexOrdering::kDegreeDesc;
  GraphBuilder b(EdgeList(el), opts);
  const Graph g = b.build();

  ASSERT_FALSE(g.remap().is_identity());
  const auto deg = el.out_degrees();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.to_original(g.to_internal(v)), v);
    // The layouts are built over internal IDs: the CSR degree of the
    // internal image must equal the original vertex's degree.
    ASSERT_EQ(g.out_degree(g.to_internal(v)), deg[v]);
  }
  // Hub sort: internal vertex 0 has the maximum out-degree.
  for (vid_t v = 1; v < g.num_vertices(); ++v)
    ASSERT_GE(g.out_degree(0), g.out_degree(v));
  // The builder's edge list is the ordered one.
  const auto rdeg = b.edge_list().out_degrees();
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(rdeg[v], g.out_degree(v));
}

TEST(GraphBuilder, CooOrderChangeReusesOrderingAndPartitioning) {
  GraphBuilder b(rmat(9, 6, 13), [] {
    BuildOptions o;
    o.num_partitions = 8;
    o.ordering = VertexOrdering::kHilbert;
    return o;
  }());

  const Graph g1 = b.build();
  const void* ranges_before = b.partitioning_edges().ranges().data();
  b.with_coo_order(partition::EdgeOrder::kHilbert);
  const Graph g2 = b.build();
  // Order + partition stages were not re-run: same backing storage.
  EXPECT_EQ(ranges_before, b.partitioning_edges().ranges().data());

  // Same remap and CSR either way; only the COO bucket order differs.
  for (vid_t v = 0; v < g1.num_vertices(); ++v)
    ASSERT_EQ(g1.to_original(v), g2.to_original(v));
  ASSERT_EQ(g1.coo().num_edges(), g2.coo().num_edges());
  EXPECT_EQ(g1.coo().order(), partition::EdgeOrder::kSource);
  EXPECT_EQ(g2.coo().order(), partition::EdgeOrder::kHilbert);
  bool differs = false;
  for (eid_t i = 0; i < g1.coo().num_edges() && !differs; ++i)
    differs = !(g1.coo().all_edges()[i] == g2.coo().all_edges()[i]);
  EXPECT_TRUE(differs);
}

TEST(GraphBuilder, WithOrderingInvalidatesEverything) {
  GraphBuilder b(rmat(8, 4, 19), {});
  b.order();
  EXPECT_TRUE(b.remap().is_identity());
  b.with_ordering(VertexOrdering::kDegreeDesc);
  EXPECT_FALSE(b.remap().is_identity());
}

TEST(GraphBuilder, ReorderingAfterOrderRanRestoresOriginalIdSpace) {
  // Regression: order() permutes the edge list in place, so switching the
  // ordering after it has run must un-permute first — otherwise the new
  // remap is computed against already-relabeled IDs and no longer maps the
  // caller's ID space (a non-identity → X transition double-permuted).
  const EdgeList el = rmat(8, 6, 43);
  BuildOptions opts;
  opts.num_partitions = 8;

  // Non-identity → identity: must equal a fresh kOriginal build.
  {
    opts.ordering = VertexOrdering::kDegreeDesc;
    GraphBuilder b(EdgeList(el), opts);
    b.order();
    b.with_ordering(VertexOrdering::kOriginal);
    const Graph g = std::move(b).build();
    ASSERT_TRUE(g.remap().is_identity());
    const auto deg = el.out_degrees();
    for (vid_t v = 0; v < el.num_vertices(); ++v)
      ASSERT_EQ(g.out_degree(v), deg[v]);
  }

  // Non-identity → different non-identity: must equal a fresh build with
  // the final ordering.
  {
    opts.ordering = VertexOrdering::kHilbert;
    GraphBuilder b(EdgeList(el), opts);
    b.order();
    b.with_ordering(VertexOrdering::kDegreeDesc);
    const Graph got = std::move(b).build();

    opts.ordering = VertexOrdering::kDegreeDesc;
    const Graph want = Graph::build(EdgeList(el), opts);
    ASSERT_FALSE(got.remap().is_identity());
    for (vid_t v = 0; v < el.num_vertices(); ++v) {
      ASSERT_EQ(got.to_internal(v), want.to_internal(v));
      ASSERT_EQ(got.out_degree(got.to_internal(v)),
                want.out_degree(want.to_internal(v)));
    }
  }
}

TEST(GraphBuilder, WithPartitionsReResolvesCount) {
  GraphBuilder b(rmat(9, 6, 23), {});
  b.partition();
  const part_t autop = b.options().num_partitions;
  EXPECT_GT(autop, 0u);
  b.with_partitions(8);
  b.partition();
  EXPECT_EQ(b.options().num_partitions, 8u);
  EXPECT_EQ(b.partitioning_edges().num_partitions(), 8u);
  EXPECT_EQ(std::move(b).build().coo().num_partitions(), 8u);
}

TEST(GraphBuilder, PartitionedCsrTogglesWithoutRebuildingCoo) {
  BuildOptions opts;
  opts.num_partitions = 8;
  GraphBuilder b(rmat(8, 4, 31), opts);
  const Graph without = b.build();
  EXPECT_FALSE(without.has_partitioned_csr());
  b.with_partitioned_csr(true);
  const Graph with = b.build();
  ASSERT_TRUE(with.has_partitioned_csr());
  EXPECT_EQ(with.partitioned_csr().num_partitions(), 8u);
}

TEST(GraphBuilder, RvalueBuildMovesEdgeList) {
  const EdgeList el = rmat(8, 4, 37);
  const eid_t m = el.num_edges();
  Graph g = GraphBuilder(EdgeList(el), {}).build();
  EXPECT_EQ(g.num_edges(), m);
  EXPECT_EQ(g.csc().num_edges(), m);
}

TEST(GraphBuilder, EveryOrderingBuildsAValidComposite) {
  const EdgeList el = rmat(8, 6, 41);
  for (const auto o : all_orderings()) {
    BuildOptions opts;
    opts.num_partitions = 8;
    opts.ordering = o;
    const Graph g = Graph::build(EdgeList(el), opts);
    ASSERT_EQ(g.num_vertices(), el.num_vertices()) << ordering_name(o);
    ASSERT_EQ(g.num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.csr().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.csc().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.coo().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.build_options().ordering, o);
  }
}

}  // namespace
}  // namespace grind::graph
