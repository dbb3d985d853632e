// NUMA-domain model: placement *policy* here, physical placement in
// sys/arena.{hpp,cpp}.
//
// The paper runs on a 4-socket machine and (a) allocates each graph partition
// on one NUMA domain, (b) processes a partition only with threads attached to
// its domain, and (c) spreads partitions round-robin so every domain holds
// the same number (§III-D: "we consider only multiples of 4").
//
// This module is the policy layer: it maps partitions to D logical domains,
// maps threads to domains, and defines the order in which a thread visits
// partitions (home domain first, then the remaining domains rotated per
// thread so no two domains' stragglers are stolen in the same order).  The
// traversal kernels schedule with it (engine/domain_sched.hpp) and the
// builder routes each partition's storage through the matching arena.
//
// Physical page placement and thread binding are real when the build detects
// libnuma (-DGRIND_NUMA, CMake autodetect) on a multi-node machine; on
// single-node or libnuma-free hosts the same policy runs against the logical
// arenas, so every scheduling decision the paper's system makes is made
// identically — only the page migration is absent (docs/NUMA.md has the
// arena lifecycle and the full fallback matrix).
#pragma once

#include <cstddef>
#include <vector>

#include "sys/types.hpp"

namespace grind {

/// Policy describing how partitions map onto logical NUMA domains.
class NumaModel {
 public:
  /// `domains`: number of logical NUMA domains (paper: 4).
  explicit NumaModel(int domains = kDefaultDomains);

  [[nodiscard]] int domains() const { return domains_; }

  /// Domain that owns partition p of P total partitions.  Partitions are
  /// block-distributed: with P a multiple of D, each domain owns P/D
  /// consecutive partitions, matching the paper's allocation.
  [[nodiscard]] int domain_of_partition(part_t p, part_t total) const;

  /// Domain a given worker thread is attached to, with T total threads.
  /// With T ≥ D threads are spread uniformly, t → t mod D (§IV-F:
  /// "Additional threads are spread uniformly across NUMA nodes").  With
  /// T < D ownership is spread over the *active* thread count, t → ⌊t·D/T⌋,
  /// so the homes cover the domain space instead of clustering in the low
  /// domains — paired with the rotated visit_order this keeps the unowned
  /// domains' partitions from being stolen by every thread in the same
  /// order (the PR 4 contention fix).
  [[nodiscard]] int domain_of_thread(int thread, int total_threads) const;

  /// Round `partitions` up to the nearest multiple of the domain count, the
  /// paper's rule for choosing admissible partition counts.
  [[nodiscard]] part_t admissible_partitions(part_t partitions) const;

  /// Order in which a thread should visit partitions: first the partitions
  /// of its own domain, then (for load-balance stealing) the remaining
  /// domains in rotated order starting after the home domain — thread homes
  /// differ, so steal orders differ.  Returns a permutation of [0, total).
  [[nodiscard]] std::vector<part_t> visit_order(int thread, int total_threads,
                                               part_t total_partitions) const;

  /// visit_order for an explicit home domain (what a service worker pinned
  /// to `home` uses when running a query single-threaded).
  [[nodiscard]] std::vector<part_t> visit_order_for_domain(
      int home, part_t total_partitions) const;

  static constexpr int kDefaultDomains = 4;

 private:
  int domains_;
};

/// The calling thread's preferred NUMA domain, or -1 when unpinned.  Set by
/// DomainPinGuard; consulted by the domain-affine scheduler so a pinned
/// service worker visits its home partitions first even when the traversal
/// itself runs single-threaded.
[[nodiscard]] int preferred_domain();

/// Set (domain >= 0) or clear (domain < 0) the calling thread's preferred
/// domain.  Prefer DomainPinGuard, which restores the previous value and
/// also binds the OS thread when physical placement is active.
void set_preferred_domain(int domain);

/// RAII pin of the calling thread to a NUMA domain: records the preferred
/// domain for the scheduler and, under a physical libnuma backend, binds the
/// thread to the matching node.  Restores both on destruction.
class DomainPinGuard {
 public:
  explicit DomainPinGuard(int domain);
  ~DomainPinGuard();
  DomainPinGuard(const DomainPinGuard&) = delete;
  DomainPinGuard& operator=(const DomainPinGuard&) = delete;

 private:
  int saved_;
};

}  // namespace grind
