// TraversalWorkspace reuse: traversals driven through one shared workspace
// must produce results identical to the fresh-allocation path (ws == null),
// across all four traversal kinds, both atomics modes, and consecutive
// iterations that recycle frontier storage between calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "engine/workspace.hpp"
#include "graph/generators.hpp"
#include "sys/atomics.hpp"
#include "sys/bitmap.hpp"

namespace grind::engine {
namespace {

using graph::BuildOptions;
using graph::Graph;

/// Claim-once accumulating operator: acc[d] += s+1; a destination enters the
/// output frontier the first time it is ever updated, so three consecutive
/// calls produce three distinct (deterministic) frontier sets.
struct StepOp {
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

std::vector<bool> snapshot(const Frontier& f, vid_t n) {
  std::vector<bool> bits(n, false);
  f.for_each([&](vid_t v) { bits[v] = true; });
  return bits;
}

struct RunResult {
  std::vector<std::uint64_t> acc;
  std::vector<std::vector<bool>> frontiers;
};

/// Three consecutive edge_map iterations, feeding each output frontier back
/// as the next input.  With `reuse`, retired frontiers are recycled into it
/// — the steady-state reuse path; without, every call gets a fresh
/// workspace and so allocates all of its scratch.
RunResult run_iterations(const Graph& g, const Options& opts,
                         TraversalWorkspace* reuse) {
  const vid_t n = g.num_vertices();
  RunResult r;
  r.acc.assign(n, 0);
  std::vector<unsigned char> claimed(n, 0);

  std::vector<vid_t> seeds;
  for (vid_t v = 0; v < n; v += 7) seeds.push_back(v);
  Frontier f = Frontier::from_vertices(n, seeds, g.csr());

  for (int step = 0; step < 3; ++step) {
    TraversalWorkspace fresh;
    TraversalWorkspace& ws = reuse != nullptr ? *reuse : fresh;
    Frontier next =
        edge_map(g, f, StepOp{r.acc.data(), claimed.data()}, ws, opts);
    r.frontiers.push_back(snapshot(next, n));
    if (reuse != nullptr) f.into_workspace(*reuse);
    f = std::move(next);
  }
  return r;
}

struct WorkspaceCase {
  Layout layout;
  AtomicsMode atomics;
  const char* name;
};

class WorkspaceReuse : public ::testing::TestWithParam<WorkspaceCase> {};

TEST_P(WorkspaceReuse, ThreeIterationsMatchFreshAllocationPath) {
  const WorkspaceCase c = GetParam();
  BuildOptions b;
  b.num_partitions = 16;
  b.build_partitioned_csr = true;
  const Graph g = Graph::build(graph::rmat(10, 8, 77), b);

  Options opts;
  opts.layout = c.layout;
  opts.atomics = c.atomics;
  opts.sparse_fraction = 0.0;  // force the layout under test for every step
  if (c.layout == Layout::kSparseCsr) opts.sparse_fraction = 1.0;

  const RunResult fresh = run_iterations(g, opts, nullptr);
  TraversalWorkspace ws;
  const RunResult reused = run_iterations(g, opts, &ws);

  EXPECT_EQ(fresh.acc, reused.acc) << c.name;
  ASSERT_EQ(fresh.frontiers.size(), reused.frontiers.size());
  for (std::size_t s = 0; s < fresh.frontiers.size(); ++s)
    EXPECT_EQ(fresh.frontiers[s], reused.frontiers[s])
        << c.name << " step=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndAtomics, WorkspaceReuse,
    ::testing::Values(
        WorkspaceCase{Layout::kSparseCsr, AtomicsMode::kAuto, "sparse_csr"},
        WorkspaceCase{Layout::kBackwardCsc, AtomicsMode::kForceOff, "csc_na"},
        WorkspaceCase{Layout::kBackwardCsc, AtomicsMode::kForceOn, "csc_a"},
        WorkspaceCase{Layout::kDenseCoo, AtomicsMode::kForceOff, "coo_na"},
        WorkspaceCase{Layout::kDenseCoo, AtomicsMode::kForceOn, "coo_a"},
        WorkspaceCase{Layout::kPartitionedCsr, AtomicsMode::kForceOff,
                      "pcsr_na"},
        WorkspaceCase{Layout::kPartitionedCsr, AtomicsMode::kForceOn,
                      "pcsr_a"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(WorkspacePool, BitmapPingPongReusesStorage) {
  TraversalWorkspace ws;
  Bitmap a = ws.acquire_bitmap(1024);
  a.set(3);
  a.set(900);
  const std::uint64_t* backing = a.words();
  ws.recycle_bitmap(std::move(a));
  ASSERT_EQ(ws.pooled_bitmaps(), 1u);

  // Re-acquiring the same size must return the same (cleared) storage.
  Bitmap b = ws.acquire_bitmap(1024);
  EXPECT_EQ(b.words(), backing);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(ws.pooled_bitmaps(), 0u);

  // A different size must not match the pooled bitmap.
  ws.recycle_bitmap(std::move(b));
  Bitmap c = ws.acquire_bitmap(2048);
  EXPECT_EQ(c.size(), 2048u);
  EXPECT_EQ(ws.pooled_bitmaps(), 1u);
}

TEST(WorkspacePool, VertexListKeepsCapacity) {
  TraversalWorkspace ws;
  std::vector<vid_t> v = ws.acquire_vertex_list();
  v.reserve(4096);
  const vid_t* backing = v.data();
  ws.recycle_vertex_list(std::move(v));

  std::vector<vid_t> w = ws.acquire_vertex_list();
  EXPECT_EQ(w.data(), backing);
  EXPECT_TRUE(w.empty());
  EXPECT_GE(w.capacity(), 4096u);
}

TEST(WorkspacePool, FrontierIntoWorkspaceDonatesAndEmpties) {
  TraversalWorkspace ws;
  Bitmap bits(512);
  bits.set(7);
  bits.set(400);
  Frontier f = Frontier::from_bitmap(std::move(bits));
  EXPECT_EQ(f.num_active(), 2u);

  f.into_workspace(ws);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.is_dense());
  EXPECT_EQ(ws.pooled_bitmaps(), 1u);
}

TEST(BitmapClearing, ClearRangeZeroesOnlyCoveredWords) {
  Bitmap b(512);
  for (std::size_t i = 0; i < 512; i += 64) b.set(i);
  b.clear_range(128, 256);  // words 2..3
  for (std::size_t i = 0; i < 512; i += 64) {
    const bool inside = i >= 128 && i < 256;
    EXPECT_EQ(b.get(i), !inside) << "bit " << i;
  }
}

TEST(BitmapClearing, ClearDirtyZeroesEverything) {
  Bitmap b(10000);
  for (std::size_t i = 0; i < 10000; i += 97) b.set(i);
  b.clear_dirty();
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
}

/// The Engine's implicit workspace must not change algorithm-visible
/// behaviour over repeated runs on the same engine (pool warm vs cold).
TEST(EngineWorkspace, RepeatedRunsIdentical) {
  const Graph g = Graph::build(graph::rmat(10, 8, 5));
  const vid_t n = g.num_vertices();
  Engine eng(g);

  auto run_once = [&] {
    std::vector<std::uint64_t> acc(n, 0);
    std::vector<unsigned char> claimed(n, 0);
    Frontier f = Frontier::all(n, g.csr());
    Frontier next = eng.edge_map(f, StepOp{acc.data(), claimed.data()});
    eng.recycle(next);
    return acc;
  };

  const auto first = run_once();
  const auto second = run_once();  // pool is warm now
  const auto third = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
}

}  // namespace
}  // namespace grind::engine
