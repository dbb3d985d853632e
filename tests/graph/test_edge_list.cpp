#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "graph/generators.hpp"
#include "sys/parallel.hpp"
#include "sys/rng.hpp"

namespace grind::graph {
namespace {

TEST(EdgeList, AddGrowsVertexBound) {
  EdgeList el;
  EXPECT_EQ(el.num_vertices(), 0u);
  el.add(3, 7);
  EXPECT_EQ(el.num_vertices(), 8u);
  EXPECT_EQ(el.num_edges(), 1u);
  el.add(10, 2, 2.5f);
  EXPECT_EQ(el.num_vertices(), 11u);
  EXPECT_FLOAT_EQ(el.edge(1).weight, 2.5f);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList el;
  el.add(0, 0);
  el.add(0, 1);
  el.add(1, 1);
  el.add(1, 0);
  EXPECT_EQ(el.remove_self_loops(), 2u);
  EXPECT_EQ(el.num_edges(), 2u);
  for (const Edge& e : el.edges()) EXPECT_NE(e.src, e.dst);
}

TEST(EdgeList, DeduplicateKeepsOnePerPair) {
  EdgeList el;
  el.add(0, 1, 1.0f);
  el.add(0, 1, 2.0f);
  el.add(1, 0);
  el.add(0, 1, 3.0f);
  EXPECT_EQ(el.deduplicate(), 2u);
  EXPECT_EQ(el.num_edges(), 2u);
}

TEST(EdgeList, DeduplicateKeepsFirstOccurrenceAtEveryThreadCount) {
  // Many weighted copies of few pairs: every pair's surviving weight must
  // be its first occurrence's, whatever the thread count.
  EdgeList el;
  el.set_num_vertices(64);
  Xoshiro256 rng(7);
  for (int i = 0; i < 50000; ++i)
    el.add(static_cast<vid_t>(rng.next_below(64)),
           static_cast<vid_t>(rng.next_below(64)), static_cast<weight_t>(i));
  std::map<std::pair<vid_t, vid_t>, weight_t> first;  // serial oracle
  for (const Edge& e : el.edges()) first.try_emplace({e.src, e.dst}, e.weight);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const ThreadCountGuard guard(threads);
    EdgeList got = el;
    EXPECT_EQ(got.deduplicate(), el.num_edges() - first.size());
    ASSERT_EQ(got.num_edges(), first.size());
    auto want = first.begin();
    for (const Edge& e : got.edges()) {
      ASSERT_EQ(std::pair(e.src, e.dst), want->first);
      ASSERT_EQ(e.weight, want->second) << e.src << " -> " << e.dst;
      ++want;
    }
  }
}

TEST(EdgeList, SymmetrizedRoadIsThreadCountIndependent) {
  // Shortcuts can repeat a lattice edge with another weight, so
  // symmetrize's dedup decides which weight each pair keeps.
  EdgeList one = road_lattice(100, 100, 0.05, 3);
  EdgeList four = one;
  {
    const ThreadCountGuard guard(1);
    one.symmetrize();
  }
  {
    const ThreadCountGuard guard(4);
    four.symmetrize();
  }
  ASSERT_EQ(one.num_edges(), four.num_edges());
  for (eid_t i = 0; i < one.num_edges(); ++i) {
    ASSERT_EQ(one.edge(i).src, four.edge(i).src);
    ASSERT_EQ(one.edge(i).dst, four.edge(i).dst);
    ASSERT_EQ(one.edge(i).weight, four.edge(i).weight) << "edge " << i;
  }
}

TEST(EdgeList, SymmetrizeAddsReverseEdges) {
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.symmetrize();
  EXPECT_EQ(el.num_edges(), 4u);
  bool has10 = false, has21 = false;
  for (const Edge& e : el.edges()) {
    if (e.src == 1 && e.dst == 0) has10 = true;
    if (e.src == 2 && e.dst == 1) has21 = true;
  }
  EXPECT_TRUE(has10);
  EXPECT_TRUE(has21);
}

TEST(EdgeList, SymmetrizeIsIdempotentOnEdgeCount) {
  EdgeList el = rmat(8, 4, 123);
  el.deduplicate();
  el.symmetrize();
  const eid_t m = el.num_edges();
  el.symmetrize();
  EXPECT_EQ(el.num_edges(), m);
}

TEST(EdgeList, DegreesMatchManualCount) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(2, 1);
  el.set_num_vertices(4);
  const auto out = el.out_degrees();
  const auto in = el.in_degrees();
  EXPECT_EQ(out, (std::vector<eid_t>{2, 0, 1, 0}));
  EXPECT_EQ(in, (std::vector<eid_t>{0, 2, 1, 0}));
  EXPECT_EQ(el.max_degree(), 2u);
}

TEST(EdgeList, DegreesAreTheSerialCountAtEveryThreadCount) {
  // Dense enough (32 edges per vertex) that 4 threads take the parallel
  // per-thread-histogram path; the counts must be the serial ones.
  const EdgeList el = graph::rmat(10, 32, 7);
  std::vector<eid_t> want_out(el.num_vertices(), 0);
  std::vector<eid_t> want_in(el.num_vertices(), 0);
  for (const Edge& e : el.edges()) {
    ++want_out[e.src];
    ++want_in[e.dst];
  }
  for (const int t : {1, 2, 3, 4}) {
    ThreadCountGuard guard(t);
    EXPECT_EQ(el.out_degrees(), want_out) << "threads=" << t;
    EXPECT_EQ(el.in_degrees(), want_in) << "threads=" << t;
  }
}

TEST(EdgeList, SortOrders) {
  EdgeList el;
  el.add(2, 0);
  el.add(0, 2);
  el.add(1, 1);
  el.add(0, 1);
  el.sort_by_source();
  EXPECT_EQ(el.edge(0).src, 0u);
  EXPECT_EQ(el.edge(0).dst, 1u);
  EXPECT_EQ(el.edge(3).src, 2u);
  el.sort_by_destination();
  EXPECT_EQ(el.edge(0).dst, 0u);
  EXPECT_EQ(el.edge(3).dst, 2u);
}

TEST(EdgeList, EmptyOperationsAreSafe) {
  EdgeList el;
  EXPECT_EQ(el.remove_self_loops(), 0u);
  EXPECT_EQ(el.deduplicate(), 0u);
  el.symmetrize();
  EXPECT_TRUE(el.empty());
  EXPECT_EQ(el.max_degree(), 0u);
}

}  // namespace
}  // namespace grind::graph
