// Orientation-aware routing (§IV-A): dense frontiers of vertex-oriented
// algorithms stay on the backward CSC; edge-oriented ones go to the COO.
#include <gtest/gtest.h>

#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace grind::engine {
namespace {

TEST(Orientation, DenseRoutingFollowsOrientation) {
  const eid_t m = 2000;
  Options opts;  // default orientation: edge
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kBackwardCsc);
  // Forcing still wins over orientation.
  opts.layout = Layout::kDenseCoo;
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
}

TEST(Orientation, MediumAndSparseUnaffected) {
  const eid_t m = 2000;
  Options opts;
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(500, m, opts), TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(50, m, opts), TraversalKind::kSparseCsr);
}

TEST(Orientation, EngineSetterUpdatesBalanceAndRouting) {
  const auto g = graph::Graph::build(graph::rmat(9, 8, 3));
  Engine eng(g);
  EXPECT_EQ(eng.orientation(), Orientation::kEdge);
  eng.set_orientation(Orientation::kVertex);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  EXPECT_EQ(eng.options().orientation, Orientation::kVertex);
  EXPECT_EQ(eng.options().csc_balance, partition::BalanceMode::kVertices);
  eng.set_orientation(Orientation::kEdge);
  EXPECT_EQ(eng.options().csc_balance, partition::BalanceMode::kEdges);
}

TEST(Orientation, VertexOrientedDenseRoundUsesCscKernel) {
  const auto g = graph::Graph::build(graph::rmat(9, 8, 3));
  Engine eng(g);
  eng.set_orientation(Orientation::kVertex);
  auto op = make_symmetric_op([](vid_t, vid_t, weight_t) { return false; },
                              [](vid_t) { return true; });
  Frontier all = Frontier::all(g.num_vertices(), &g.csr());
  eng.edge_map(all, op);
  EXPECT_EQ(
      eng.stats().calls[static_cast<int>(TraversalKind::kBackwardCsc)], 1u);
  EXPECT_EQ(eng.stats().calls[static_cast<int>(TraversalKind::kDenseCoo)],
            0u);
}

TEST(Orientation, CscSubChunksCoverRangesAndAlign) {
  const auto el = graph::rmat(10, 8, 3);
  const auto parts = partition::make_partitioning(el, 8);
  const auto chunks = parts.sub_chunks();
  // Coverage: concatenation of chunks == concatenation of ranges.
  vid_t cursor = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, cursor);
    cursor = c.end;
  }
  EXPECT_EQ(cursor, el.num_vertices());
  // Alignment: every interior boundary is word-aligned (or a partition
  // boundary, which is itself aligned).
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i)
    EXPECT_TRUE(chunks[i].end % 64 == 0 || chunks[i].end == el.num_vertices());
}

}  // namespace
}  // namespace grind::engine
