// Domain-affine scheduler unit tests: exactly-once execution across thread
// and domain counts, honest home/stolen accounting, the fair-share split
// (balanced buckets never stolen, skewed buckets share only their excess),
// preferred-domain homes for pinned serial workers, and schedule-cache
// reuse (the zero-allocation steady-state contract).
#include "engine/domain_sched.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "sys/numa.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

/// Run affine_for over n items with domain_of(i) = i % domains and count
/// per-item executions, on a fresh schedule cache.
AffineCounts run_counted(const NumaModel& numa, std::size_t n,
                         std::vector<std::atomic<int>>& hits) {
  DomainScheduleCache cache;
  return affine_for(
      numa, /*owner=*/&numa, /*token=*/&hits, n, cache,
      [&](std::size_t i) { return static_cast<int>(i) % numa.domains(); },
      [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return std::uint64_t{1};
      });
}

TEST(DomainSchedule, EveryItemExactlyOnceAcrossConfigs) {
  for (int domains : {1, 2, 4, 8}) {
    const NumaModel numa(domains);
    for (int threads : {1, 2, 4, 8}) {
      ThreadCountGuard guard(threads);
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{385}}) {
        std::vector<std::atomic<int>> hits(n);
        const AffineCounts c = run_counted(numa, n, hits);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1)
              << "domains=" << domains << " threads=" << threads
              << " n=" << n << " item=" << i;
        EXPECT_EQ(c.home_items + c.stolen_items, n);
        EXPECT_EQ(c.home_weight + c.stolen_weight, n);
      }
    }
  }
}

TEST(DomainSchedule, SingleDomainIsAllHome) {
  const NumaModel numa(1);
  std::vector<std::atomic<int>> hits(100);
  const AffineCounts c = run_counted(numa, 100, hits);
  EXPECT_EQ(c.home_items, 100u);
  EXPECT_EQ(c.stolen_items, 0u);
}

TEST(DomainSchedule, SerialPinnedWorkerCountsItsDomainAsHome) {
  const NumaModel numa(4);
  ThreadCountGuard guard(1);
  // 8 items, domains 0..3 twice.  A worker pinned to domain 2 serves the
  // two domain-2 items as home, steals the rest.
  DomainPinGuard pin(2);
  std::vector<std::atomic<int>> hits(8);
  const AffineCounts c = run_counted(numa, 8, hits);
  EXPECT_EQ(c.home_items, 2u);
  EXPECT_EQ(c.stolen_items, 6u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DomainSchedule, UnpinnedSerialWorkerHomesOnDomainZero) {
  const NumaModel numa(4);
  ThreadCountGuard guard(1);
  std::vector<std::atomic<int>> hits(8);
  const AffineCounts c = run_counted(numa, 8, hits);
  EXPECT_EQ(c.home_items, 2u);  // the two domain-0 items
  EXPECT_EQ(c.stolen_items, 6u);
}

TEST(DomainScheduleCache, ReusesPreparedSchedulesByKey) {
  const NumaModel numa(4);
  DomainScheduleCache cache;
  const int owner = 0;
  const int token_a = 0, token_b = 0;
  auto dom = [](std::size_t i) { return static_cast<int>(i % 4); };
  DomainSchedule& a1 = cache.get(numa, &owner, &token_a, 16, 2, -1, dom);
  DomainSchedule& a2 = cache.get(numa, &owner, &token_a, 16, 2, -1, dom);
  EXPECT_EQ(&a1, &a2);  // steady state: same key, same schedule
  EXPECT_EQ(cache.size(), 1u);
  DomainSchedule& b = cache.get(numa, &owner, &token_b, 16, 2, -1, dom);
  EXPECT_NE(&a1, &b);  // different item set
  // Same token, different owner graph, thread budget or preferred domain →
  // new entry (the owner half guards against heap-address reuse across
  // graphs serving a stale bucket mapping).
  cache.get(numa, &token_b, &token_a, 16, 2, -1, dom);
  cache.get(numa, &owner, &token_a, 16, 4, -1, dom);
  cache.get(numa, &owner, &token_a, 16, 2, 1, dom);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(DomainScheduleCache, EvictsBeyondCapacity) {
  const NumaModel numa(2);
  DomainScheduleCache cache;
  const int owner = 0;
  auto dom = [](std::size_t) { return 0; };
  std::vector<int> tokens(DomainScheduleCache::kMaxEntries + 3);
  for (auto& t : tokens) cache.get(numa, &owner, &t, 4, 1, -1, dom);
  EXPECT_EQ(cache.size(), DomainScheduleCache::kMaxEntries);
}

TEST(DomainSchedule, GatedStealingStillDrainsUnownedDomains) {
  // More domains than threads: some domains have no home thread at all;
  // their buckets must still be fully drained (their fair share is zero,
  // so the whole bucket is open excess).
  const NumaModel numa(8);
  ThreadCountGuard guard(2);
  std::vector<std::atomic<int>> hits(64);
  const AffineCounts c = run_counted(numa, 64, hits);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  EXPECT_EQ(c.home_items + c.stolen_items, 64u);
  EXPECT_GT(c.stolen_items, 0u);  // unowned domains are necessarily stolen
}

TEST(DomainSchedule, BalancedBucketsAreNeverStolen) {
  // Equal buckets, one home thread per domain: every fair share covers its
  // whole bucket, so nothing is open and the gate only opens on an empty
  // bucket.  The numa-locality CI gate relies on this.
  const NumaModel numa(4);
  ThreadCountGuard guard(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> hits(256);
    const AffineCounts c = run_counted(numa, hits.size(), hits);
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " item " << i;
    ASSERT_EQ(c.stolen_items, 0u) << "rep " << rep;
    ASSERT_EQ(c.home_items, hits.size());
  }
}

TEST(DomainSchedule, SkewedBucketsShareTheirExcess) {
  // 90 % of the items live in domain 0.  Its home thread keeps the fair
  // share ceil(n / 4); the rest is open, and the other three threads take it
  // once their own small buckets are done.
  const NumaModel numa(4);
  ThreadCountGuard guard(4);
  constexpr std::size_t kN = 400;
  constexpr std::size_t kSkewed = kN * 9 / 10;
  auto domain_of = [](std::size_t i) {
    return i < kSkewed ? 0 : 1 + static_cast<int>(i % 3);
  };
  std::vector<std::atomic<int>> hits(kN);
  std::vector<int> ran_on(kN, -1);
  DomainScheduleCache cache;
  const AffineCounts c = affine_for(
      numa, /*owner=*/&numa, /*token=*/&hits, kN, cache, domain_of,
      [&](std::size_t i) {
        // Spin so the skewed domain's home thread is still busy when the
        // others run out of home work.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(50);
        while (std::chrono::steady_clock::now() < until) {
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
        ran_on[i] = omp_get_thread_num();
        return std::uint64_t{1};
      });
  const DomainSchedule& sched =
      cache.get(numa, &numa, &hits, kN, 4, preferred_domain(), domain_of);
  ASSERT_EQ(cache.size(), 1u);  // the schedule affine_for ran

  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  EXPECT_EQ(c.home_items + c.stolen_items, kN);
  EXPECT_GT(c.stolen_items, 0u);
  const std::size_t fair = (kN + 3) / 4;  // one home thread per domain
  for (int d = 0; d < numa.domains(); ++d) {
    const auto bucket = sched.bucket(d);
    for (std::size_t pos = 0; pos < bucket.size() && pos < fair; ++pos) {
      const std::size_t item = bucket[pos];
      EXPECT_EQ(sched.home_domain(ran_on[item]), d)
          << "domain " << d << " position " << pos << " item " << item
          << " ran on thread " << ran_on[item];
    }
  }
}

TEST(DomainSchedule, ZeroItemsIsANoOp) {
  const NumaModel numa(4);
  std::vector<std::atomic<int>> hits(1);
  const AffineCounts c = run_counted(numa, 0, hits);
  EXPECT_EQ(c.home_items, 0u);
  EXPECT_EQ(c.stolen_items, 0u);
}

}  // namespace
}  // namespace grind::engine
