// Transpose edge map: data flows d→s; results must equal the serial oracle
// over reversed edges across all kernel choices.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/edge_map_transpose.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/atomics.hpp"
#include "sys/cancel.hpp"

namespace grind::engine {
namespace {

using graph::Graph;

struct SumOp {
  std::uint64_t* acc;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    acc[d] += s + 1;
    if (claimed[d] == 0) {
      claimed[d] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(acc[d], static_cast<std::uint64_t>(s) + 1);
    return atomic_claim(claimed[d]);
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

/// Oracle: for every edge (v, u) with u active, v receives u+1.
void transpose_oracle(const graph::EdgeList& el,
                      const std::vector<bool>& active,
                      std::vector<std::uint64_t>& acc,
                      std::vector<bool>& next) {
  acc.assign(el.num_vertices(), 0);
  next.assign(el.num_vertices(), false);
  for (const Edge& e : el.edges()) {
    if (!active[e.dst]) continue;
    acc[e.src] += e.dst + 1;
    next[e.src] = true;
  }
}

TEST(TransposeEdgeMap, DenseMatchesOracle) {
  TraversalWorkspace ws;
  const auto el = graph::rmat(9, 8, 7);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, true);
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  transpose_oracle(el, active, want_acc, want_next);

  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier all = Frontier::all(n, g.csr());
  Frontier next = edge_map_transpose(g, all, SumOp{acc.data(), claimed.data()}, ws);

  EXPECT_EQ(acc, want_acc);
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(next.contains(v), want_next[v]);
}

TEST(TransposeEdgeMap, SparseMatchesOracle) {
  TraversalWorkspace ws;
  const auto el = graph::rmat(9, 8, 11);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, false);
  std::vector<vid_t> verts = {4, 5};
  for (vid_t v : verts) active[v] = true;
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  transpose_oracle(el, active, want_acc, want_next);

  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier f = Frontier::from_vertices(n, verts, g.csr());
  Frontier next = edge_map_transpose(g, f, SumOp{acc.data(), claimed.data()}, ws);

  EXPECT_EQ(acc, want_acc);
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(next.contains(v), want_next[v]);
}

TEST(TransposeEdgeMap, MediumDensityBackwardGatherMatchesOracle) {
  TraversalWorkspace ws;
  const auto el = graph::rmat(9, 8, 13);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, false);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; v += 4) {
    active[v] = true;
    verts.push_back(v);
  }
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  transpose_oracle(el, active, want_acc, want_next);

  Options opts;
  opts.layout = Layout::kBackwardCsc;  // forces the gather kernel
  opts.sparse_fraction = 0.0;
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier f = Frontier::from_vertices(n, verts, g.csr());
  Frontier next =
      edge_map_transpose(g, f, SumOp{acc.data(), claimed.data()}, ws, opts);

  EXPECT_EQ(acc, want_acc);
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(next.contains(v), want_next[v]);
}

TEST(TransposeEdgeMap, ForcedCooUsesAtomicsAndMatches) {
  TraversalWorkspace ws;
  const auto el = graph::rmat(9, 8, 17);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, true);
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  transpose_oracle(el, active, want_acc, want_next);

  Options opts;
  opts.layout = Layout::kDenseCoo;
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier all = Frontier::all(n, g.csr());
  TraversalStats stats;
  edge_map_transpose(g, all, SumOp{acc.data(), claimed.data()}, ws, opts,
                     &stats);

  EXPECT_EQ(acc, want_acc);
  EXPECT_EQ(stats.atomic_rounds, 1u);  // transpose COO always needs atomics
}

TEST(TransposeEdgeMap, EmptyFrontierShortCircuits) {
  TraversalWorkspace ws;
  const Graph g = Graph::build(graph::rmat(8, 4, 5));
  std::vector<std::uint64_t> acc(g.num_vertices(), 0);
  std::vector<unsigned char> claimed(g.num_vertices(), 0);
  Frontier f = Frontier::empty(g.num_vertices());
  Frontier next = edge_map_transpose(g, f, SumOp{acc.data(), claimed.data()}, ws);
  EXPECT_TRUE(next.empty());
}

/// SumOp that fires a cancel token on its first update, i.e. mid-sweep.
struct CancellingOp : SumOp {
  sys::CancelToken* token;

  bool update(vid_t s, vid_t d, weight_t w) {
    token->request_cancel();
    return SumOp::update(s, d, w);
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    token->request_cancel();
    return SumOp::update_atomic(s, d, w);
  }
};

TEST(TransposeEdgeMap, CancelDuringDenseSweepThrowsInsteadOfPartialFrontier) {
  const Graph g = Graph::build(graph::rmat(9, 8, 19));
  const vid_t n = g.num_vertices();
  for (const Layout layout : {Layout::kAuto, Layout::kDenseCoo}) {
    TraversalWorkspace ws;
    auto token = std::make_shared<sys::CancelToken>();
    Options opts;
    opts.layout = layout;
    opts.cancel = token;
    std::vector<std::uint64_t> acc(n, 0);
    std::vector<unsigned char> claimed(n, 0);
    Frontier all = Frontier::all(n, g.csr());
    TraversalStats stats;
    EXPECT_THROW(
        edge_map_transpose(g, all,
                           CancellingOp{{acc.data(), claimed.data()}, token.get()},
                           ws, opts, &stats),
        sys::Cancelled);
    EXPECT_TRUE(token->should_stop());
    EXPECT_EQ(stats.total_calls(), 0u) << "a cancelled sweep is not recorded";
  }
}

}  // namespace
}  // namespace grind::engine
