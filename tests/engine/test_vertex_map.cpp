#include "engine/vertex_map.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace grind::engine {
namespace {

using graph::Graph;

TEST(VertexMap, FiltersActiveVerticesSparse) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Frontier f =
      Frontier::from_vertices(g.num_vertices(), {2, 3, 4, 5, 6}, g.csr());
  Frontier out = vertex_map(g, f, [](vid_t v) { return v % 2 == 0; });
  EXPECT_EQ(out.num_active(), 3u);
  EXPECT_TRUE(out.contains(2));
  EXPECT_FALSE(out.contains(3));
  EXPECT_FALSE(out.is_dense());  // representation preserved
}

TEST(VertexMap, FiltersActiveVerticesDense) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Frontier f = Frontier::all(g.num_vertices(), g.csr());
  Frontier out = vertex_map(g, f, [](vid_t v) { return v < 10; });
  EXPECT_EQ(out.num_active(), 10u);
  EXPECT_TRUE(out.is_dense());
  EXPECT_TRUE(out.contains(9));
  EXPECT_FALSE(out.contains(10));
}

TEST(VertexMap, OutputCarriesDegreeStatistics) {
  const Graph g = Graph::build(graph::star(100));
  Frontier f = Frontier::all(g.num_vertices(), g.csr());
  Frontier out = vertex_map(g, f, [](vid_t v) { return v == 0; });
  EXPECT_EQ(out.num_active(), 1u);
  EXPECT_EQ(out.active_out_degree(), 99u);  // the hub's degree
}

TEST(VertexForeach, VisitsEachActiveVertexOnce) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  const vid_t n = g.num_vertices();
  Frontier f = Frontier::all(n, g.csr());
  std::vector<std::atomic<int>> hits(n);
  vertex_foreach(f, [&](vid_t v) {
    hits[v].fetch_add(1, std::memory_order_relaxed);
  });
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(hits[v].load(), 1);
}

TEST(VertexForeach, SparseVisitsListOnly) {
  const auto out = graph::Csr::build(graph::star(1000), graph::Adjacency::kOut);
  Frontier f = Frontier::from_vertices(1000, {7, 8, 9}, out);
  std::atomic<int> count{0};
  vertex_foreach(f, [&](vid_t v) {
    EXPECT_GE(v, 7u);
    EXPECT_LE(v, 9u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(VertexForeachAll, CoversAllVertices) {
  std::vector<std::atomic<int>> hits(5000);
  vertex_foreach_all(5000, [&](vid_t v) {
    hits[v].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(VertexMap, EngineFacadeDelegates) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Engine eng(g);
  Frontier f = Frontier::from_vertices(g.num_vertices(), {1, 2}, g.csr());
  Frontier out = eng.vertex_map(f, [](vid_t v) { return v == 1; });
  EXPECT_EQ(out.num_active(), 1u);
  int visits = 0;
  eng.vertex_foreach(f, [&](vid_t) {
#pragma omp atomic
    ++visits;
  });
  EXPECT_EQ(visits, 2);
}

}  // namespace
}  // namespace grind::engine
