// Partition-centric scatter-gather (PCPM): bin-layout invariants, the
// scatter/gather round-trip against a serial oracle, the routing decision,
// and the headline contract — kPcpm results are *bit-identical* to the
// non-atomic dense COO sweep for every scatter/gather-capable workload,
// across orderings, partition counts and NUMA-domain counts (the slot order
// inside each destination partition reproduces the COO per-partition edge
// order exactly; see partition/pcpm_bins.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/belief_propagation.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/spmv.hpp"
#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "engine/traverse_pcpm.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "sys/atomics.hpp"

namespace grind::engine {
namespace {

using graph::BuildOptions;
using graph::Graph;

// ---------------------------------------------------------------------------
// Bin-layout invariants.

TEST(Pcpm, BinOffsetsSumToPartitionInDegrees) {
  BuildOptions b;
  b.num_partitions = 16;
  b.boundary_align = 8;
  b.build_pcpm_bins = true;
  const Graph g = Graph::build(graph::rmat(9, 8, 17), b);
  ASSERT_TRUE(g.has_pcpm_bins());

  const auto& bins = g.pcpm_bins();
  const auto& parts = g.partitioning_edges();
  const part_t np = parts.num_partitions();
  ASSERT_EQ(bins.num_partitions(), np);
  EXPECT_EQ(bins.num_slots(), g.num_edges());

  // Brute-force per-destination-partition in-degrees and the cut from the
  // (ordered) edge list the bins were built from.
  std::vector<eid_t> in_deg(np, 0);
  eid_t cut = 0;
  for (const Edge& e : g.edge_list().edges()) {
    const part_t sp = parts.partition_of(e.src);
    const part_t dp = parts.partition_of(e.dst);
    ++in_deg[dp];
    if (sp != dp) ++cut;
  }

  eid_t total = 0, expect_base = 0;
  for (part_t dp = 0; dp < np; ++dp) {
    const auto& part = bins.part(dp);
    ASSERT_EQ(part.offsets.size(), static_cast<std::size_t>(np) + 1);
    EXPECT_EQ(part.offsets[0], 0u);
    // Offsets are a prefix sum over source partitions: monotone, ending at
    // the partition's slot count, which is its in-degree.
    for (part_t sp = 0; sp < np; ++sp)
      ASSERT_LE(part.offsets[sp], part.offsets[sp + 1]);
    EXPECT_EQ(part.offsets[np], part.num_slots());
    EXPECT_EQ(part.num_slots(), in_deg[dp]) << "dp=" << dp;
    EXPECT_EQ(part.slot_base, expect_base) << "dp=" << dp;
    expect_base += part.num_slots();
    total += part.num_slots();

    // Every slot's endpoints live in the partitions its bin claims, and the
    // whole partition is sorted by (src, dst) — the COO kSource order.
    for (part_t sp = 0; sp < np; ++sp)
      for (eid_t i = part.offsets[sp]; i < part.offsets[sp + 1]; ++i) {
        ASSERT_EQ(parts.partition_of(part.src[i]), sp);
        ASSERT_EQ(parts.partition_of(part.dst[i]), dp);
      }
    for (eid_t i = 1; i < part.num_slots(); ++i)
      ASSERT_TRUE(part.src[i - 1] < part.src[i] ||
                  (part.src[i - 1] == part.src[i] &&
                   part.dst[i - 1] <= part.dst[i]))
          << "dp=" << dp << " slot=" << i;
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(bins.cut_slots(), cut);
  EXPECT_GT(bins.storage_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Scatter/gather round-trip on a hand-built two-partition graph.

/// Integer SumOp (exact, order-independent) decomposed into scatter/gather:
/// message = s+1, reduce = acc[d] += message, claim-once frontier entry.
struct SumSgOp {
  std::uint64_t* acc;
  unsigned char* claimed;

  using scatter_value_t = std::uint64_t;

  [[nodiscard]] std::uint64_t scatter(vid_t s, weight_t) const {
    return static_cast<std::uint64_t>(s) + 1;
  }
  bool gather(vid_t d, std::uint64_t v) {
    acc[d] += v;
    if (claimed[d] == 0) {
      claimed[d] = 1;
      return true;
    }
    return false;
  }
  bool update(vid_t s, vid_t d, weight_t w) { return gather(d, scatter(s, w)); }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(acc[d], static_cast<std::uint64_t>(s) + 1);
    return atomic_claim(claimed[d]);
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

static_assert(ScatterGatherOperator<SumSgOp>);

/// 16 vertices, 11 edges, in-edge mass front-loaded so the edge-balanced
/// cut (first vertex whose cumulative in-degree reaches ⌊m/2⌋ = 5, aligned
/// up to 8) lands exactly at vertex 8 → partitions [0,8) and [8,16).
graph::EdgeList two_partition_fixture() {
  graph::EdgeList el;
  el.add(0, 1);
  el.add(9, 1);
  el.add(3, 2);
  el.add(0, 2);
  el.add(2, 5);
  el.add(9, 5);
  el.add(0, 9);
  el.add(0, 9);  // parallel edge
  el.add(2, 9);
  el.add(9, 12);
  el.add(15, 15);  // self-loop
  el.set_num_vertices(16);
  return el;
}

void oracle(const graph::EdgeList& el, const std::vector<bool>& active,
            std::vector<std::uint64_t>& acc, std::vector<bool>& next) {
  acc.assign(el.num_vertices(), 0);
  next.assign(el.num_vertices(), false);
  for (const Edge& e : el.edges()) {
    if (!active[e.src]) continue;
    acc[e.dst] += e.src + 1;
    next[e.dst] = true;
  }
}

TEST(Pcpm, ScatterGatherRoundTripsHandBuiltTwoPartitionGraph) {
  const graph::EdgeList el = two_partition_fixture();
  BuildOptions b;
  b.num_partitions = 2;
  b.boundary_align = 8;
  b.numa_domains = 2;  // keep the requested count NUMA-admissible
  b.build_pcpm_bins = true;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  const vid_t n = g.num_vertices();

  const auto& parts = g.partitioning_edges();
  ASSERT_EQ(parts.num_partitions(), 2u);
  ASSERT_EQ(parts.range(0).begin, 0u);
  ASSERT_EQ(parts.range(0).end, 8u);
  ASSERT_EQ(parts.range(1).end, 16u);

  // The layout itself, fully by hand: dp0 holds the in-edges of [0,8) in
  // (src,dst) order {(0,1),(0,2),(2,5),(3,2),(9,1),(9,5)} split [0,4,6] by
  // source partition; dp1 holds {(0,9),(0,9),(2,9),(9,12),(15,15)} split
  // [0,3,5].
  const auto& bins = g.pcpm_bins();
  ASSERT_EQ(bins.part(0).num_slots(), 6u);
  EXPECT_EQ(bins.part(0).offsets[1], 4u);
  ASSERT_EQ(bins.part(1).num_slots(), 5u);
  EXPECT_EQ(bins.part(1).offsets[1], 3u);
  EXPECT_EQ(bins.part(1).slot_base, 6u);
  EXPECT_EQ(bins.cut_slots(), 5u);  // (9,1), (9,5), (0,9) ×2, (2,9)

  for (const bool full : {true, false}) {
    std::vector<bool> active(n, full);
    if (!full) active[0] = active[9] = true;  // hub + cross-partition source
    std::vector<std::uint64_t> want_acc;
    std::vector<bool> want_next;
    oracle(el, active, want_acc, want_next);

    std::vector<std::uint64_t> acc(n, 0);
    std::vector<unsigned char> claimed(n, 0);
    SumSgOp op{acc.data(), claimed.data()};

    TraversalWorkspace ws;
    Frontier f = full ? Frontier::all(n, &g.csr()) : Frontier{};
    if (!full) {
      Bitmap bm(n);
      bm.set(0);
      bm.set(9);
      f = Frontier::from_bitmap(std::move(bm));
      f.recount(&g.csr());
    }

    eid_t edges = 0;
    std::uint64_t bytes = 0;
    Frontier next =
        traverse_pcpm(g, f, op, &edges, ws, nullptr, nullptr, &bytes);

    EXPECT_EQ(edges, g.num_edges());  // PCPM always scans every slot
    EXPECT_EQ(bytes, 2 * static_cast<std::uint64_t>(g.num_edges()) *
                         sizeof(std::uint64_t));
    EXPECT_EQ(acc, want_acc) << "full=" << full;
    for (vid_t v = 0; v < n; ++v)
      ASSERT_EQ(next.contains(v), want_next[v]) << "full=" << full
                                                << " v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity with the non-atomic dense COO sweep, per workload.

struct IdentityCase {
  graph::VertexOrdering ordering;
  part_t partitions;
  int domains;
};

class PcpmIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(PcpmIdentity, MatchesDenseCooBitwiseForAllScatterGatherWorkloads) {
  const IdentityCase c = GetParam();
  BuildOptions b;
  b.ordering = c.ordering;
  b.num_partitions = c.partitions;
  b.boundary_align = 8;
  b.numa_domains = c.domains;
  b.build_pcpm_bins = true;
  const Graph g = Graph::build(graph::rmat(8, 8, 7), b);

  // sparse_fraction 0 keeps every round on the forced layout, so the two
  // runs differ *only* in dense kernel: non-atomic COO vs PCPM.
  Options coo;
  coo.layout = Layout::kDenseCoo;
  coo.atomics = AtomicsMode::kForceOff;
  coo.sparse_fraction = 0.0;
  Options pcpm = coo;
  pcpm.layout = Layout::kPcpm;

  std::vector<double> x(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    x[v] = 0.25 + static_cast<double>(v % 9);

  algorithms::PageRankDeltaOptions prd;
  prd.epsilon = 1e-7;  // keep rounds active deep into the run

  const auto run = [&](const Options& opts, TraversalStats& stats) {
    TraversalWorkspace ws;
    Engine eng(g, opts, ws);
    struct Results {
      std::vector<double> pr, prd, y, b0;
    } r;
    r.pr = algorithms::pagerank(eng, {}).rank;
    r.prd = algorithms::pagerank_delta(eng, prd).rank;
    r.y = algorithms::spmv(eng, x).y;
    r.b0 = algorithms::belief_propagation(eng, {}).belief0;
    stats = eng.stats();
    return r;
  };

  TraversalStats coo_stats, pcpm_stats;
  const auto base = run(coo, coo_stats);
  const auto got = run(pcpm, pcpm_stats);

  // Both engines really took the kernel under test for their dense rounds.
  EXPECT_GT(coo_stats.calls_for(TraversalKind::kDenseCoo), 0u);
  EXPECT_GT(pcpm_stats.calls_for(TraversalKind::kPcpm), 0u);
  EXPECT_EQ(pcpm_stats.calls_for(TraversalKind::kDenseCoo), 0u);
  EXPECT_GT(pcpm_stats.pcpm_bin_bytes, 0u);

  // EXPECT_EQ, not NEAR: the accumulation orders are identical by
  // construction, so every double must match bit for bit.
  EXPECT_EQ(got.pr, base.pr) << "PR";
  EXPECT_EQ(got.prd, base.prd) << "PRDelta";
  EXPECT_EQ(got.y, base.y) << "SPMV";
  EXPECT_EQ(got.b0, base.b0) << "BP";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PcpmIdentity,
    ::testing::Values(
        // Partition × domain sweep under the identity ordering, including
        // the degenerate single-partition layout (all slots diagonal).
        IdentityCase{graph::VertexOrdering::kOriginal, 1, 1},
        IdentityCase{graph::VertexOrdering::kOriginal, 3, 2},
        IdentityCase{graph::VertexOrdering::kOriginal, 8, 4},
        IdentityCase{graph::VertexOrdering::kOriginal, 16, 2},
        // Ordering sweep: relabelling changes the partition contents, never
        // the identity contract.
        IdentityCase{graph::VertexOrdering::kDegreeDesc, 8, 2},
        IdentityCase{graph::VertexOrdering::kHilbert, 8, 4},
        IdentityCase{graph::VertexOrdering::kChildOrder, 8, 4}),
    [](const auto& info) {
      std::string name = graph::ordering_name(info.param.ordering);
      for (char& ch : name)
        if (ch == '-') ch = '_';  // gtest names must be [A-Za-z0-9_]
      return name + "_p" + std::to_string(info.param.partitions) + "_d" +
             std::to_string(info.param.domains);
    });

// ---------------------------------------------------------------------------
// Routing decision probes.

TEST(Pcpm, DecideTraversalRoutesOnlyCapableDenseEdgeOrientedSweeps) {
  const eid_t m = 2000;
  Options opts;

  // Default capable=false: the classic three-way decision is untouched.
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
  opts.layout = Layout::kPcpm;
  // Forced kPcpm without capability degrades to the dense COO; sparse
  // frontiers keep the CSR carve-out either way.
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
  EXPECT_EQ(decide_traversal(50, m, opts), TraversalKind::kSparseCsr);
  EXPECT_EQ(decide_traversal(50, m, opts, true), TraversalKind::kSparseCsr);
  // Forced + capable: every non-sparse frontier is binned.
  EXPECT_EQ(decide_traversal(1500, m, opts, true), TraversalKind::kPcpm);
  EXPECT_EQ(decide_traversal(500, m, opts, true), TraversalKind::kPcpm);

  opts.layout = Layout::kAuto;
  // Auto + capable: dense edge-oriented frontiers take the bins, the medium
  // band keeps the backward CSC at the default cut...
  EXPECT_EQ(decide_traversal(1500, m, opts, true), TraversalKind::kPcpm);
  EXPECT_EQ(decide_traversal(500, m, opts, true), TraversalKind::kBackwardCsc);
  // ...a lowered cut claims the medium band (the ablation sweep)...
  opts.pcpm_fraction = 0.10;
  EXPECT_EQ(decide_traversal(500, m, opts, true), TraversalKind::kPcpm);
  // ...and a cut above 1.0 disables the mode entirely.
  opts.pcpm_fraction = 2.0;
  EXPECT_EQ(decide_traversal(1999, m, opts, true), TraversalKind::kDenseCoo);

  // Vertex-oriented algorithms never bin: their dense sweeps stay on the
  // backward CSC whose early exit suits claim-style operators.
  opts.pcpm_fraction = 0.50;
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(1500, m, opts, true), TraversalKind::kBackwardCsc);
}

TEST(Pcpm, WorkspacePlacementTokenFiresOncePerPairing) {
  TraversalWorkspace ws;
  int bins_a = 0, bins_b = 0;  // stand-in layout identities
  (void)ws.pcpm_values(64);
  EXPECT_TRUE(ws.pcpm_values_need_placement(&bins_a));
  EXPECT_FALSE(ws.pcpm_values_need_placement(&bins_a));  // steady state
  (void)ws.pcpm_values(32);  // shrink request: buffer retained, no move
  EXPECT_FALSE(ws.pcpm_values_need_placement(&bins_a));
  EXPECT_TRUE(ws.pcpm_values_need_placement(&bins_b));  // new layout
}

}  // namespace
}  // namespace grind::engine
