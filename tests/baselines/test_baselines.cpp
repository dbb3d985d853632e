// The four systems (Ligra, Polymer, GraphGrind-v1, GraphGrind-v2) must
// compute identical results for every Table-II workload — they differ only
// in traversal policy, never in semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/bc.hpp"
#include "algorithms/belief_propagation.hpp"
#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/ref/reference.hpp"
#include "algorithms/spmv.hpp"
#include "baselines/chunked.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace grind {
namespace {

using engine::Engine;
using graph::Graph;

class BaselineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    el_ = new graph::EdgeList(graph::rmat(9, 8, 42));
    g_ = new Graph(Graph::build(graph::EdgeList(*el_)));
  }
  static void TearDownTestSuite() {
    delete g_;
    delete el_;
    g_ = nullptr;
    el_ = nullptr;
  }
  static graph::EdgeList* el_;
  static Graph* g_;
};

graph::EdgeList* BaselineFixture::el_ = nullptr;
Graph* BaselineFixture::g_ = nullptr;

template <typename Fn>
void for_each_system(const Graph& g, Fn&& fn) {
  {
    Engine eng(g);
    fn("GG-v2", eng);
  }
  for (auto make :
       {baselines::ligra, baselines::polymer, baselines::graphgrind_v1}) {
    baselines::ChunkedEngine eng = make(g);
    fn(eng.name(), eng);
  }
}

TEST_F(BaselineFixture, BfsLevelsAgreeAcrossSystems) {
  const auto want = algorithms::ref::bfs_levels(*el_, 0);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::bfs(eng, 0);
    ASSERT_EQ(r.level.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
      ASSERT_EQ(r.level[v], want[v]) << name << " v=" << v;
  });
}

TEST_F(BaselineFixture, CcLabelsAgreeAcrossSystems) {
  const auto want = algorithms::ref::cc_labels(*el_);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::connected_components(eng);
    ASSERT_EQ(r.labels, want) << name;
  });
}

TEST_F(BaselineFixture, PageRankAgreesAcrossSystems) {
  const auto want = algorithms::ref::pagerank(*el_, 10, 0.85);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::pagerank(eng);
    for (std::size_t v = 0; v < want.size(); ++v)
      ASSERT_NEAR(r.rank[v], want[v], 1e-10) << name << " v=" << v;
  });
}

TEST_F(BaselineFixture, PageRankDeltaAgreesAcrossSystems) {
  std::vector<double> reference;
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::pagerank_delta(
        eng, {.epsilon = 1e-9, .max_rounds = 60});
    if (reference.empty()) {
      reference = r.rank;
      return;
    }
    for (std::size_t v = 0; v < reference.size(); ++v)
      ASSERT_NEAR(r.rank[v], reference[v], 1e-6) << name << " v=" << v;
  });
}

TEST_F(BaselineFixture, SpmvAgreesAcrossSystems) {
  const auto want = algorithms::ref::spmv(
      *el_, std::vector<double>(el_->num_vertices(), 1.0));
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::spmv(eng);
    for (std::size_t v = 0; v < want.size(); ++v)
      ASSERT_NEAR(r.y[v], want[v], 1e-9) << name << " v=" << v;
  });
}

TEST_F(BaselineFixture, BellmanFordAgreesAcrossSystems) {
  const auto want = algorithms::ref::sssp_dijkstra(*el_, 0);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::bellman_ford(eng, 0);
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (std::isinf(want[v])) {
        ASSERT_TRUE(std::isinf(r.dist[v])) << name << " v=" << v;
      } else {
        ASSERT_NEAR(r.dist[v], want[v], 1e-9) << name << " v=" << v;
      }
    }
  });
}

TEST_F(BaselineFixture, BcAgreesAcrossSystems) {
  const auto want = algorithms::ref::bc_dependency(*el_, 0);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::betweenness_centrality(eng, 0);
    for (std::size_t v = 0; v < want.size(); ++v)
      ASSERT_NEAR(r.dependency[v], want[v], 1e-7) << name << " v=" << v;
  });
}

TEST_F(BaselineFixture, BeliefPropagationAgreesAcrossSystems) {
  const auto want = algorithms::ref::belief_propagation(*el_, 10, 0.1, 0.3, 42);
  for_each_system(*g_, [&](const char* name, auto& eng) {
    const auto r = algorithms::belief_propagation(eng);
    for (std::size_t v = 0; v < want.size(); ++v)
      ASSERT_NEAR(r.belief0[v], want[v], 1e-8) << name << " v=" << v;
  });
}

TEST(Chunks, UniformChunksCoverAndAlign) {
  const auto chunks = baselines::make_uniform_chunks(1000, 256);
  vid_t cursor = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, cursor);
    if (c.end != 1000) {
      EXPECT_EQ(c.end % 64, 0u);
    }
    cursor = c.end;
  }
  EXPECT_EQ(cursor, 1000u);
}

TEST(Chunks, EdgeBalancedChunksRoughlyEqualEdges) {
  const auto el = graph::rmat(10, 8, 3);
  const auto csc = graph::Csr::build(el, graph::Adjacency::kIn);
  const eid_t target = el.num_edges() / 32;
  const auto chunks = baselines::make_edge_balanced_chunks(csc, target);
  vid_t cursor = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, cursor);
    cursor = c.end;
  }
  EXPECT_EQ(cursor, el.num_vertices());
  EXPECT_GT(chunks.size(), 4u);
}

TEST(Chunks, PartitionedUniformChunksRespectPartBoundaries) {
  const auto chunks = baselines::make_partitioned_uniform_chunks(1024, 4, 128);
  // Partition boundaries at 256/512/768 must coincide with chunk edges.
  for (vid_t bound : {256u, 512u, 768u}) {
    const bool found = std::any_of(chunks.begin(), chunks.end(),
                                   [&](const auto& c) { return c.end == bound; });
    EXPECT_TRUE(found) << bound;
  }
}

TEST(Chunks, LigraDensityThreshold) {
  EXPECT_FALSE(baselines::ligra_is_dense(100, 2000));
  EXPECT_TRUE(baselines::ligra_is_dense(101, 2000));
}

}  // namespace
}  // namespace grind
