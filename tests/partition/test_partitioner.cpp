// Property tests of make_partitioning across generators, sizes and partition
// counts (TEST_P sweeps).
#include "partition/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "graph/generators.hpp"

namespace grind::partition {
namespace {

using graph::EdgeList;

EdgeList graph_by_name(const std::string& name) {
  if (name == "rmat") return graph::rmat(10, 8, 5);
  if (name == "powerlaw") return graph::powerlaw(2000, 2.0, 8.0, 5);
  if (name == "road") return graph::road_lattice(30, 40, 0.1, 5);
  if (name == "star") return graph::star(4000);
  return graph::cycle(1000);
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<std::string, part_t>> {};

TEST_P(PartitionerSweep, RangesAreContiguousDisjointAndCover) {
  const auto [name, p] = GetParam();
  const EdgeList el = graph_by_name(name);
  const Partitioning parts = make_partitioning(el, p);
  ASSERT_EQ(parts.num_partitions(), p);
  vid_t cursor = 0;
  for (part_t i = 0; i < p; ++i) {
    EXPECT_EQ(parts.range(i).begin, cursor);
    EXPECT_LE(parts.range(i).begin, parts.range(i).end);
    cursor = parts.range(i).end;
  }
  EXPECT_EQ(cursor, el.num_vertices());
}

TEST_P(PartitionerSweep, BoundariesAreWordAligned) {
  // Interior boundaries snap to 64-vertex multiples so two partitions never
  // share a frontier-bitmap word.  A boundary equal to |V| is also safe:
  // every later partition is empty, so the final word has a single writer.
  const auto [name, p] = GetParam();
  const EdgeList el = graph_by_name(name);
  const Partitioning parts = make_partitioning(el, p);
  for (part_t i = 0; i + 1 < p; ++i) {
    const vid_t end = parts.range(i).end;
    EXPECT_TRUE(end % 64 == 0 || end == el.num_vertices())
        << "partition " << i << " boundary " << end;
  }
}

TEST_P(PartitionerSweep, EdgeCountsPartitionTheEdgeSet) {
  const auto [name, p] = GetParam();
  const EdgeList el = graph_by_name(name);
  const Partitioning parts = make_partitioning(el, p);
  eid_t total = 0;
  for (part_t i = 0; i < p; ++i) total += parts.edges_in(i);
  EXPECT_EQ(total, el.num_edges());
  // Cross-check per-partition counts against a direct scan.
  std::vector<eid_t> direct(p, 0);
  for (const Edge& e : el.edges()) ++direct[parts.partition_of(e.dst)];
  for (part_t i = 0; i < p; ++i) EXPECT_EQ(parts.edges_in(i), direct[i]);
}

TEST_P(PartitionerSweep, PartitionOfAgreesWithRanges) {
  const auto [name, p] = GetParam();
  const EdgeList el = graph_by_name(name);
  const Partitioning parts = make_partitioning(el, p);
  for (vid_t v = 0; v < el.num_vertices(); v += 37) {
    const part_t owner = parts.partition_of(v);
    EXPECT_TRUE(parts.range(owner).contains(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndCounts, PartitionerSweep,
    ::testing::Combine(::testing::Values("rmat", "powerlaw", "road", "star",
                                         "cycle"),
                       ::testing::Values<part_t>(1, 2, 4, 8, 16, 48, 128)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Partitioner, EdgeBalanceBeatsVertexBalanceOnSkewedGraphs) {
  const EdgeList el = graph::rmat(12, 16, 9);
  PartitionOptions eopts;
  eopts.balance = BalanceMode::kEdges;
  PartitionOptions vopts;
  vopts.balance = BalanceMode::kVertices;
  const auto eparts = make_partitioning(el, 16, eopts);
  const auto vparts = make_partitioning(el, 16, vopts);
  // Alignment can force hub-heavy blocks into one partition, so perfect
  // balance is unattainable — but edge balancing must still dominate.
  EXPECT_LT(eparts.edge_imbalance(), vparts.edge_imbalance());
}

TEST(Partitioner, VertexBalanceSplitsVerticesEvenly) {
  const EdgeList el = graph::rmat(12, 8, 9);
  PartitionOptions opts;
  opts.balance = BalanceMode::kVertices;
  const auto parts = make_partitioning(el, 8, opts);
  const vid_t per = el.num_vertices() / 8;
  for (part_t i = 0; i < 8; ++i)
    EXPECT_NEAR(static_cast<double>(parts.range(i).size()),
                static_cast<double>(per), 64.0);
}

TEST(Partitioner, BySourceBalancesOutDegrees) {
  const EdgeList el = graph::rmat(10, 8, 9);
  PartitionOptions opts;
  opts.by = PartitionBy::kSource;
  const auto parts = make_partitioning(el, 8, opts);
  std::vector<eid_t> direct(8, 0);
  for (const Edge& e : el.edges()) ++direct[parts.partition_of(e.src)];
  for (part_t i = 0; i < 8; ++i) EXPECT_EQ(parts.edges_in(i), direct[i]);
}

TEST(Partitioner, MorePartitionsThanAlignedSlotsLeavesEmptyTails) {
  const EdgeList el = graph::cycle(128);  // 2 aligned slots of 64
  const auto parts = make_partitioning(el, 8);
  eid_t total = 0;
  for (part_t i = 0; i < 8; ++i) total += parts.edges_in(i);
  EXPECT_EQ(total, el.num_edges());
  EXPECT_EQ(parts.num_vertices(), 128u);
}

TEST(Partitioner, SinglePartitionTakesEverything) {
  const EdgeList el = graph::rmat(8, 4, 9);
  const auto parts = make_partitioning(el, 1);
  EXPECT_EQ(parts.range(0), (VertexRange{0, el.num_vertices()}));
  EXPECT_EQ(parts.edges_in(0), el.num_edges());
  EXPECT_DOUBLE_EQ(parts.edge_imbalance(), 1.0);
}

TEST(Partitioner, EmptyGraph) {
  const auto parts = make_partitioning(EdgeList{}, 4);
  EXPECT_EQ(parts.num_partitions(), 4u);
  EXPECT_EQ(parts.num_vertices(), 0u);
}

TEST(Partitioner, PartitionOfThrowsOutOfRangeBeyondVertexSet) {
  // PR 4 regression: out-of-range vertices used to be silently homed in the
  // last partition (the assert only fired in debug builds).  The contract
  // is now explicit: std::out_of_range.
  const EdgeList el = graph::cycle(100);
  const auto parts = make_partitioning(el, 4);
  EXPECT_EQ(parts.partition_of(0), 0u);
  EXPECT_NO_THROW((void)parts.partition_of(el.num_vertices() - 1));
  EXPECT_THROW((void)parts.partition_of(el.num_vertices()), std::out_of_range);
  EXPECT_THROW((void)parts.partition_of(kInvalidVertex), std::out_of_range);
}

TEST(Partitioner, BoundaryAlignMustBeAPowerOfTwo) {
  // The aligned-boundary math (align_up, and the frontier bitmap's
  // single-writer-per-word guarantee) is only sound for power-of-two
  // alignments, so make_partitioning rejects everything else at entry
  // instead of silently producing misaligned ranges.
  const EdgeList el = graph::cycle(256);
  for (const vid_t bad : {vid_t{0}, vid_t{3}, vid_t{48}, vid_t{65}}) {
    PartitionOptions opts;
    opts.boundary_align = bad;
    try {
      make_partitioning(el, 4, opts);
      FAIL() << "boundary_align=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("boundary_align"),
                std::string::npos)
          << "message must name the offending field: " << e.what();
    }
  }
  for (const vid_t good : {vid_t{1}, vid_t{8}, vid_t{64}, vid_t{128}}) {
    PartitionOptions opts;
    opts.boundary_align = good;
    EXPECT_NO_THROW(make_partitioning(el, 4, opts))
        << "boundary_align=" << good;
  }
}

TEST(Partitioner, PartitionOfOnEmptyPartitioningThrows) {
  const Partitioning parts;  // no ranges at all
  EXPECT_THROW((void)parts.partition_of(0), std::out_of_range);
}

TEST(Partitioner, EdgeImbalanceCountsEmptyPartitionsInTheMean) {
  // PR 4 regression: the mean used to be over non-empty partitions only, so
  // a graph whose aligned slots force all edges into 2 of 8 partitions
  // reported ~1.0 ("perfectly balanced") while 6 domains sat idle.  The
  // paper's metric is P·max/total.
  const EdgeList el = graph::cycle(128);  // 2 aligned slots of 64 vertices
  const auto parts = make_partitioning(el, 8);
  eid_t peak = 0, total = 0;
  for (part_t p = 0; p < 8; ++p) {
    peak = std::max(peak, parts.edges_in(p));
    total += parts.edges_in(p);
  }
  ASSERT_GT(total, 0u);
  const double want = static_cast<double>(peak) * 8.0 /
                      static_cast<double>(total);
  EXPECT_DOUBLE_EQ(parts.edge_imbalance(), want);
  EXPECT_GE(parts.edge_imbalance(), 4.0);  // 64/(128/8): far from balanced
}

TEST(Partitioner, EdgeImbalanceDirectConstruction) {
  // {4,0,0,0} over 4 partitions: peak 4, mean 1 → imbalance 4 (was 1.0
  // under the non-empty-mean bug).
  std::vector<VertexRange> ranges{{0, 64}, {64, 64}, {64, 64}, {64, 64}};
  std::vector<eid_t> counts{4, 0, 0, 0};
  const Partitioning parts(std::move(ranges), std::move(counts), {});
  EXPECT_DOUBLE_EQ(parts.edge_imbalance(), 4.0);
}

TEST(Partitioner, FromDegreesMatchesFromEdgeList) {
  const EdgeList el = graph::rmat(9, 6, 13);
  const auto a = make_partitioning(el, 12);
  const auto b = make_partitioning_from_degrees(el.in_degrees(), 12);
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (part_t i = 0; i < a.num_partitions(); ++i)
    EXPECT_EQ(a.range(i), b.range(i));
}

}  // namespace
}  // namespace grind::partition
