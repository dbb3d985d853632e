#include "algorithms/pagerank.hpp"

#include <gtest/gtest.h>

#include "common/test_names.hpp"

#include <cmath>
#include <numeric>

#include "algorithms/pagerank_delta.hpp"
#include "algorithms/ref/reference.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace grind::algorithms {
namespace {

using engine::Engine;
using engine::Layout;
using engine::Options;
using graph::Graph;

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "i=" << i;
}

class PrLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(PrLayouts, MatchesSerialPowerMethod) {
  const auto el = graph::rmat(9, 8, 3);
  const auto want = ref::pagerank(el, 10, 0.85);
  graph::BuildOptions b;
  b.build_partitioned_csr = true;
  b.num_partitions = 16;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  Options opts;
  opts.layout = GetParam();
  Engine eng(g, opts);
  const PageRankResult r = pagerank(eng);
  expect_close(r.rank, want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, PrLayouts,
                         ::testing::Values(Layout::kAuto, Layout::kSparseCsr,
                                           Layout::kBackwardCsc,
                                           Layout::kDenseCoo,
                                           Layout::kPartitionedCsr),
                         [](const auto& info) {
                           return testing_support::layout_test_name(
                               info.param);
                         });

TEST(PageRank, RanksArePositiveAndBounded) {
  const Graph g = Graph::build(graph::rmat(10, 8, 5));
  Engine eng(g);
  const auto r = pagerank(eng);
  for (double x : r.rank) {
    ASSERT_GT(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(PageRank, CycleIsUniform) {
  const Graph g = Graph::build(graph::cycle(256));
  Engine eng(g);
  const auto r = pagerank(eng, {.iterations = 30});
  const double want = 1.0 / 256.0;
  for (double x : r.rank) ASSERT_NEAR(x, want, 1e-12);
}

TEST(PageRank, HubReceivesMoreRankThanLeaves) {
  // Star reversed: all leaves point at vertex 0.
  graph::EdgeList el;
  for (vid_t v = 1; v < 100; ++v) el.add(v, 0);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const auto r = pagerank(eng);
  for (vid_t v = 1; v < 100; ++v) ASSERT_GT(r.rank[0], r.rank[v]);
}

TEST(PageRank, IterationCountHonoured) {
  const Graph g = Graph::build(graph::rmat(8, 4, 5));
  Engine eng(g);
  EXPECT_EQ(pagerank(eng, {.iterations = 3}).iterations, 3);
}

TEST(PageRankDelta, ConvergesToScaledPageRank) {
  // rank_Δ → rank_PR / (1 − damping) as ε → 0 (see pagerank_delta.hpp).
  const auto el = graph::rmat(9, 8, 21);
  const auto pr = ref::pagerank(el, 100, 0.85);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const auto prd = pagerank_delta(
      eng, {.damping = 0.85, .epsilon = 1e-10, .max_rounds = 100});
  ASSERT_EQ(prd.rank.size(), pr.size());
  for (std::size_t i = 0; i < pr.size(); ++i)
    ASSERT_NEAR(prd.rank[i] * 0.15, pr[i], 1e-6) << "i=" << i;
}

TEST(PageRankDelta, FrontierShrinksAndClassifiesRounds) {
  const auto el = graph::rmat(11, 8, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const auto r = pagerank_delta(eng, {.epsilon = 0.01});
  EXPECT_GT(r.rounds, 2);
  EXPECT_GT(r.dense_rounds, 0);
  // With a meaningful epsilon the tail rounds must thin out below dense.
  EXPECT_GT(r.medium_rounds + r.sparse_rounds, 0);
  EXPECT_EQ(r.rounds, r.dense_rounds + r.medium_rounds + r.sparse_rounds);
}

TEST(PageRankDelta, DensityCountersMatchEngineKernelsAtCustomThresholds) {
  // Non-default cuts: rounds whose weight lies in (5 %, 20 %] of |E| run the
  // sparse CSR here but would be "medium" by the default thresholds, and
  // (50 %, 90 %] would be "dense" yet run the backward CSC.  No PCPM bins,
  // so medium ↔ backward CSC and dense ↔ dense COO exactly.
  const auto el = graph::rmat(11, 8, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  Options opts;
  opts.sparse_fraction = 0.2;
  opts.dense_fraction = 0.9;
  Engine eng(g, opts);
  const auto r = pagerank_delta(eng, {.epsilon = 0.01});
  const auto& s = eng.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(r.rounds), s.total_calls());
  EXPECT_EQ(static_cast<std::uint64_t>(r.sparse_rounds),
            s.calls_for(engine::TraversalKind::kSparseCsr));
  EXPECT_EQ(static_cast<std::uint64_t>(r.medium_rounds),
            s.calls_for(engine::TraversalKind::kBackwardCsc));
  EXPECT_EQ(static_cast<std::uint64_t>(r.dense_rounds),
            s.calls_for(engine::TraversalKind::kDenseCoo));
}

TEST(PageRankDelta, TerminatesOnMaxRounds) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Engine eng(g);
  const auto r = pagerank_delta(eng, {.epsilon = 0.0, .max_rounds = 5});
  EXPECT_EQ(r.rounds, 5);
}

TEST(PageRankDelta, RanksSumNearOne) {
  // The delta formulation conserves total delta mass scaled by damping:
  // Σ rank ≈ Σ PR/(1-d) over non-dangling flow; on a cycle it is exact.
  const Graph g = Graph::build(graph::cycle(128));
  Engine eng(g);
  const auto r = pagerank_delta(eng, {.epsilon = 1e-12, .max_rounds = 200});
  const double sum = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(sum * 0.15, 1.0, 1e-6);
}

}  // namespace
}  // namespace grind::algorithms
