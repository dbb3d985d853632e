// Domain-affine partition scheduler — the execution side of the NumaModel
// policy (§III-D: a partition is processed by threads attached to the domain
// that stores it).
//
// The previous kernels handed the partition loop to OpenMP dynamic
// scheduling, which assigns partitions to whichever thread asks next —
// correct, but any thread ends up touching any domain's pages.  Here every
// traversal item (partition, COO edge chunk, CSC sub-chunk) is bucketed by
// its NUMA domain once, and each OpenMP thread drains the buckets in its
// NumaModel::visit_order: home domain first, then the remaining domains
// rotated to start after home.
//
// Each bucket is split at its domain's *fair share*,
// ceil(n · home_threads[d] / threads) positions (capped at the bucket
// size), fixed in prepare():
//   * positions below the fair share are home-only: a foreign thread may
//     take them only once that domain has no active home threads left (they
//     finished their share, or fewer threads materialised than requested —
//     gated stealing).  While gated the thread yields, which matters on
//     oversubscribed hosts: an eager stealer that got the CPU first would
//     otherwise claim every other domain's partitions before their home
//     threads were ever scheduled, silently destroying the locality the
//     arenas paid for;
//   * positions at or above it are the domain's excess, open to every
//     thread that has drained its own home range, with no gate.
// A thread drains its fair range, then its own excess, then the other
// domains' excess, then gated-steals whatever home-only work is left.
// Balanced buckets (COO partitions and atomic chunks, PCPM and pruned-CSR
// partitions) have no excess and are never stolen.  Skewed item sets — CSC
// sub-chunks of a vertex-balanced sweep, homed by the edge-balanced storage
// partitioning — would otherwise leave the over-full domain's home threads
// with most of the sweep while the others wait at its gate.  Intra-range
// distribution is an atomic claim cursor per range, so load balance inside
// a domain matches the old dynamic schedule.
//
// A DomainSchedule's buckets depend only on (item set, thread count,
// domains, preferred domain), all fixed across the iterations of a
// traversal loop, so schedules are cached in the TraversalWorkspace
// (DomainScheduleCache) and steady-state edge_map iterations stay
// zero-allocation.  Contract details: docs/NUMA.md.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "engine/options.hpp"
#include "sys/numa.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// One prepared (item set × thread count) affine schedule: per-domain item
/// buckets split at their fair share, plus the per-run claim cursors.
/// prepare() once, run() per traversal; run() never allocates.
class DomainSchedule {
 public:
  /// Build buckets for `n` items whose domains `domain_of(i)` gives.
  /// `owner` identifies the graph (its address) and `token` the item set
  /// (the address of the backing container) for cache matching — the pair
  /// guards against a freed container's heap address being reused by a
  /// different graph's equally-sized item list, which would silently serve
  /// a stale bucket→domain mapping.  `pref` rotates thread homes so a
  /// pinned service worker (sys preferred_domain) starts from its own
  /// domain.
  template <typename DomainOf>
  void prepare(const NumaModel& numa, const void* owner, const void* token,
               std::size_t n, int threads, int pref, DomainOf&& domain_of) {
    owner_ = owner;
    token_ = token;
    n_ = n;
    threads_ = threads < 1 ? 1 : threads;
    domains_ = numa.domains();
    pref_ = pref;

    const auto D = static_cast<std::size_t>(domains_);
    std::vector<std::size_t> counts(D, 0);
    std::vector<int> dom(n);
    for (std::size_t i = 0; i < n; ++i) {
      int d = domain_of(i);
      if (d < 0 || d >= domains_) d = 0;
      dom[i] = d;
      ++counts[static_cast<std::size_t>(d)];
    }
    bucket_begin_.assign(D + 1, 0);
    for (std::size_t d = 0; d < D; ++d)
      bucket_begin_[d + 1] = bucket_begin_[d] + counts[d];
    items_.resize(n);
    std::vector<std::size_t> cursor(bucket_begin_.begin(),
                                    bucket_begin_.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      items_[cursor[static_cast<std::size_t>(dom[i])]++] = i;

    home_of_.resize(static_cast<std::size_t>(threads_));
    home_threads_.assign(D, 0);
    for (int t = 0; t < threads_; ++t) {
      int home = numa.domain_of_thread(t, threads_);
      if (pref >= 0) home = (pref + home) % domains_;
      home_of_[static_cast<std::size_t>(t)] = home;
      ++home_threads_[static_cast<std::size_t>(home)];
    }
    fair_.resize(D);
    const auto T = static_cast<std::size_t>(threads_);
    for (std::size_t d = 0; d < D; ++d)
      fair_[d] = std::min(bucket_begin_[d + 1] - bucket_begin_[d],
                          (n * home_threads_[d] + T - 1) / T);

    cursors_ = std::make_unique<PaddedCounter[]>(D);
    excess_ = std::make_unique<PaddedCounter[]>(D);
    active_ = std::make_unique<PaddedCounter[]>(D);
  }

  [[nodiscard]] bool matches(const void* owner, const void* token,
                             std::size_t n, int threads, int domains,
                             int pref) const {
    return owner_ == owner && token_ == token && n_ == n &&
           threads_ == threads && domains_ == domains && pref_ == pref;
  }

  /// True when run() would execute single-threaded — affine_for then runs
  /// the (claim-free) serial loop inline at its own call site instead, so
  /// the body stays flattened into the kernel's frame; routing a serial
  /// memory-bound loop through this out-of-line member costs ~10% codegen
  /// quality (measured on the PageRank COO iteration).
  [[nodiscard]] bool serial() const { return threads_ == 1 || n_ <= 1; }

  [[nodiscard]] std::size_t num_items() const { return n_; }
  [[nodiscard]] int domains() const { return domains_; }
  /// Home domain of prepared thread t.
  [[nodiscard]] int home_domain(int t) const {
    return home_of_[static_cast<std::size_t>(t % threads_)];
  }
  /// Items of domain d, ascending.
  [[nodiscard]] std::span<const std::size_t> bucket(int d) const {
    const auto lo = bucket_begin_[static_cast<std::size_t>(d)];
    const auto hi = bucket_begin_[static_cast<std::size_t>(d) + 1];
    return {items_.data() + lo, hi - lo};
  }

  /// Process every item exactly once; body(item) returns the work weight
  /// (e.g. edges examined) attributed to the item.  Body must not throw.
  /// Multi-threaded execution — serial schedules are run by affine_for.
  template <typename Body>
  AffineCounts run(Body&& body) {
    AffineCounts total;
    if (n_ == 0) return total;
    const auto D = static_cast<std::size_t>(domains_);
    for (std::size_t d = 0; d < D; ++d) {
      cursors_[d].v.store(0, std::memory_order_relaxed);
      excess_[d].v.store(fair_[d], std::memory_order_relaxed);
      active_[d].v.store(home_threads_[d], std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t> home_items{0}, stolen_items{0};
    std::atomic<std::uint64_t> home_weight{0}, stolen_weight{0};

    // Claim positions of domain d's bucket through `cursor` until it
    // reaches `end` (fair_[d] for the home-only range, the bucket size for
    // the excess).
    auto drain = [&](std::atomic<std::size_t>& cursor, std::size_t d,
                     std::size_t end, bool home, AffineCounts& local) {
      const std::size_t lo = bucket_begin_[d];
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        const auto w = static_cast<std::uint64_t>(body(items_[lo + i]));
        if (home) {
          ++local.home_items;
          local.home_weight += w;
        } else {
          ++local.stolen_items;
          local.stolen_weight += w;
        }
      }
    };
    auto bucket_size = [&](std::size_t d) {
      return bucket_begin_[d + 1] - bucket_begin_[d];
    };

    auto worker = [&](int t, int actual) {
      AffineCounts local;
      // If OpenMP delivered fewer threads than the schedule was prepared
      // for, the phantom threads' home domains must not stay gated forever.
      if (t == 0 && actual < threads_) {
        for (int u = actual; u < threads_; ++u)
          active_[static_cast<std::size_t>(home_of_[static_cast<std::size_t>(u)])]
              .v.fetch_sub(1, std::memory_order_release);
      }
      const auto home = static_cast<std::size_t>(
          home_of_[static_cast<std::size_t>(t % threads_)]);
      drain(cursors_[home].v, home, fair_[home], /*home=*/true, local);
      drain(excess_[home].v, home, bucket_size(home), /*home=*/true, local);
      active_[home].v.fetch_sub(1, std::memory_order_release);
      // Other domains' excess is open to any thread, no gate.
      for (std::size_t k = 1; k < D; ++k) {
        const std::size_t d = (home + k) % D;
        drain(excess_[d].v, d, bucket_size(d), /*home=*/false, local);
      }
      // Every excess cursor is now exhausted; what is left are home-only
      // ranges, stolen only once their domain has no active home thread.
      for (;;) {
        bool pending = false;     // any foreign home-only range unfinished?
        bool progressed = false;  // drained anything this pass?
        for (std::size_t k = 1; k < D; ++k) {
          const std::size_t d = (home + k) % D;
          if (cursors_[d].v.load(std::memory_order_relaxed) >= fair_[d]) continue;
          pending = true;
          if (active_[d].v.load(std::memory_order_acquire) > 0) continue;
          drain(cursors_[d].v, d, fair_[d], /*home=*/false, local);
          progressed = true;
        }
        if (!pending) break;
        // Gated behind an active home thread: yield so that thread can run
        // (decisive on hosts with fewer cores than threads).
        if (!progressed) std::this_thread::yield();
      }
      home_items.fetch_add(local.home_items, std::memory_order_relaxed);
      stolen_items.fetch_add(local.stolen_items, std::memory_order_relaxed);
      home_weight.fetch_add(local.home_weight, std::memory_order_relaxed);
      stolen_weight.fetch_add(local.stolen_weight, std::memory_order_relaxed);
    };

#pragma omp parallel num_threads(threads_)
    { worker(omp_get_thread_num(), omp_get_num_threads()); }
    total.home_items = home_items.load(std::memory_order_relaxed);
    total.stolen_items = stolen_items.load(std::memory_order_relaxed);
    total.home_weight = home_weight.load(std::memory_order_relaxed);
    total.stolen_weight = stolen_weight.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) PaddedCounter {
    std::atomic<std::size_t> v{0};
  };

  const void* owner_ = nullptr;
  const void* token_ = nullptr;
  std::size_t n_ = 0;
  int threads_ = 0;
  int domains_ = 0;
  int pref_ = -1;
  std::vector<std::size_t> items_;         // n, grouped by domain
  std::vector<std::size_t> bucket_begin_;  // D+1
  std::vector<int> home_of_;               // per prepared thread
  std::vector<std::size_t> home_threads_;  // per domain
  std::vector<std::size_t> fair_;          // per domain: home-only positions
  std::unique_ptr<PaddedCounter[]> cursors_;  // home-only range [0, fair)
  std::unique_ptr<PaddedCounter[]> excess_;   // open range [fair, size)
  std::unique_ptr<PaddedCounter[]> active_;
};

/// Small per-workspace cache of prepared schedules, keyed by
/// (item-set token, n, threads, domains, preferred domain).  A traversal
/// loop's steady-state iterations hit the same entry, so only the first
/// iteration of each (graph layout × thread budget) pays the prepare.
class DomainScheduleCache {
 public:
  /// A workspace serves one graph's handful of item sets (COO partitions,
  /// COO chunks, two CSC sub-chunk lists, pruned-CSR partitions/chunks) —
  /// but the key also includes the preferred domain, and a pooled
  /// workspace can be leased to workers pinned to different domains over
  /// its lifetime (the pool's foreign-warm fallback).  Size for the worst
  /// realistic product — ~6 item sets × the paper's 4–8 domains — so
  /// steady state never evicts a live schedule and re-prepares per
  /// iteration.  Entries are small (a few KB of index arrays each).
  static constexpr std::size_t kMaxEntries = 48;

  template <typename DomainOf>
  DomainSchedule& get(const NumaModel& numa, const void* owner,
                      const void* token, std::size_t n, int threads, int pref,
                      DomainOf&& domain_of) {
    for (auto& s : entries_)
      if (s->matches(owner, token, n, threads, numa.domains(), pref))
        return *s;
    if (entries_.size() >= kMaxEntries) entries_.erase(entries_.begin());
    entries_.push_back(std::make_unique<DomainSchedule>());
    entries_.back()->prepare(numa, owner, token, n, threads, pref,
                             std::forward<DomainOf>(domain_of));
    return *entries_.back();
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  std::vector<std::unique_ptr<DomainSchedule>> entries_;
};

/// Run `body` over [0, n) with domain-affine scheduling: each item exactly
/// once, home-domain threads first, over-full domains' excess shared.
/// `owner` is the graph the items belong to (cache-key half alongside
/// `token`, the item container's address).  `cache` (normally
/// ws.domain_schedules()) reuses prepared schedules.
template <typename DomainOf, typename Body>
AffineCounts affine_for(const NumaModel& numa, const void* owner,
                        const void* token, std::size_t n,
                        DomainScheduleCache& cache, DomainOf&& domain_of,
                        Body&& body) {
  if (n == 0) return {};
  const int nt = std::max(1, num_threads());
  const int pref = preferred_domain();
  DomainSchedule& sched = cache.get(numa, owner, token, n, nt, pref,
                                    std::forward<DomainOf>(domain_of));
  if (!sched.serial()) return sched.run(std::forward<Body>(body));

  // Serial traversal (1-thread budget or a single item): claim-free plain
  // loop over the rotated buckets, inline here so the body stays flattened
  // into the calling kernel's frame (see DomainSchedule::serial()).
  AffineCounts total;
  const int D = sched.domains();
  const int home = sched.home_domain(0);
  for (int k = 0; k < D; ++k) {
    const auto b = sched.bucket((home + k) % D);
    std::uint64_t weight = 0;
    for (const std::size_t item : b)
      weight += static_cast<std::uint64_t>(body(item));
    if (k == 0) {
      total.home_items += b.size();
      total.home_weight += weight;
    } else {
      total.stolen_items += b.size();
      total.stolen_weight += weight;
    }
  }
  return total;
}

}  // namespace grind::engine
