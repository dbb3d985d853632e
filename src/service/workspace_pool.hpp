// WorkspacePool: a bounded check-out / check-in pool of TraversalWorkspace
// instances for concurrent query execution over one shared immutable Graph.
//
// A TraversalWorkspace is deliberately not thread-safe (one workspace per
// running traversal loop), so shared-graph concurrency needs exactly this
// shape: N queries in flight ⇒ N workspaces in use, each thread-confined
// for the duration of its query.  The pool grows lazily — workspaces are
// created on demand up to a fixed cap, after which acquire() blocks until a
// lease is returned — so a service that never sees more than k concurrent
// queries only ever pays for k workspaces, and each workspace's internal
// buffer pools stay warm across the many queries it serves over its
// lifetime (the whole point of PR 1's zero-allocation steady state).
//
// Leases are RAII: destroying a Lease returns the workspace even when the
// query throws, so an algorithm failure can never drain the pool.
//
// Leases are domain-preferring: acquire(domain) first looks for an idle
// workspace last used on the same NUMA domain, so a pinned service worker
// keeps getting scratch whose pages (bitmaps, sparse-push slots, cached affine
// schedules) were faulted in by threads of its own domain.  Creating a
// fresh workspace beats stealing another domain's warm one; a foreign warm
// workspace is the last resort.  Domain kAnyDomain (-1) restores the old
// most-recently-returned behaviour.
//
// Locking contract is machine-checked (sys/thread_safety.hpp): all pool
// state is GRIND_GUARDED_BY(m_), and the untimed acquire() is the ONE
// sanctioned untimed lease wait in the tree — every caller outside this
// file must use try_acquire / try_acquire_until (grind_lint rule
// `untimed-acquire`, the PR-8 bug class).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "engine/workspace.hpp"
#include "sys/fault.hpp"
#include "sys/thread_safety.hpp"

namespace grind::service {

class WorkspacePool {
 public:
  /// acquire() domain argument meaning "no placement preference".
  static constexpr int kAnyDomain = -1;

  /// A pool that will create at most `cap` workspaces (cap is clamped to at
  /// least 1; a zero-capacity pool could never serve a query).
  explicit WorkspacePool(std::size_t cap) : cap_(cap == 0 ? 1 : cap) {
    idle_.reserve(cap_);
  }

  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Exclusive RAII hold on one workspace.  Movable; returns the workspace
  /// to the pool on destruction (exception-safe by construction).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          ws_(std::move(other.ws_)),
          domain_(other.domain_) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = std::exchange(other.pool_, nullptr);
        ws_ = std::move(other.ws_);
        domain_ = other.domain_;
      }
      return *this;
    }
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return ws_ != nullptr; }
    [[nodiscard]] engine::TraversalWorkspace& operator*() { return *ws_; }
    [[nodiscard]] engine::TraversalWorkspace* operator->() { return ws_.get(); }
    [[nodiscard]] engine::TraversalWorkspace* get() { return ws_.get(); }
    /// Domain this lease was acquired for (kAnyDomain when unspecified);
    /// the workspace is re-tagged with it on check-in.
    [[nodiscard]] int domain() const { return domain_; }

    /// Return the workspace early (idempotent).
    void release() {
      if (pool_ != nullptr && ws_ != nullptr)
        pool_->check_in(std::move(ws_), domain_);
      pool_ = nullptr;
      ws_ = nullptr;
    }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<engine::TraversalWorkspace> ws,
          int domain)
        : pool_(pool), ws_(std::move(ws)), domain_(domain) {}

    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<engine::TraversalWorkspace> ws_;
    int domain_ = kAnyDomain;
  };

  /// Check a workspace out, blocking while all `capacity()` workspaces are
  /// leased.  Lazily creates a new workspace when none is idle but the cap
  /// has not been reached.  `domain` expresses a placement preference
  /// (typically sys preferred_domain() of a pinned worker); it never
  /// changes *whether* a workspace is obtained, only which one.
  ///
  /// This is the one sanctioned untimed wait: deadline- or timeout-carrying
  /// callers must use try_acquire_until so a starved pool can never wedge
  /// them (grind_lint enforces this outside the pool's own tests).
  [[nodiscard]] Lease acquire(int domain = kAnyDomain) GRIND_EXCLUDES(m_) {
    sys::UniqueLock lock(m_);
    while (!(closed_ || !idle_.empty() || created_ < cap_)) cv_.wait(lock);
    if (closed_) return Lease{};  // invalid: the pool is shutting down
    return take(domain);
  }

  /// Non-blocking check-out; std::nullopt when the pool is exhausted (or
  /// closed).
  [[nodiscard]] std::optional<Lease> try_acquire(int domain = kAnyDomain)
      GRIND_EXCLUDES(m_) {
    sys::UniqueLock lock(m_);
    if (closed_ || (idle_.empty() && created_ >= cap_)) return std::nullopt;
    return take(domain);
  }

  /// Timed check-out: wait at most until `deadline` for a workspace.
  /// std::nullopt on timeout or when the pool closes while waiting — so a
  /// service worker can never wedge forever on a lease.
  [[nodiscard]] std::optional<Lease> try_acquire_until(
      std::chrono::steady_clock::time_point deadline,
      int domain = kAnyDomain) GRIND_EXCLUDES(m_) {
    sys::UniqueLock lock(m_);
    while (!(closed_ || !idle_.empty() || created_ < cap_)) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // One final re-check: the state may have become acquirable between
        // the last wakeup and the deadline passing.
        if (closed_ || !idle_.empty() || created_ < cap_) break;
        return std::nullopt;  // timed out
      }
    }
    if (closed_) return std::nullopt;
    return take(domain);
  }

  /// Poison the pool for shutdown: every blocked acquire() wakes and returns
  /// an invalid Lease, every timed wait returns std::nullopt, and future
  /// check-outs fail immediately.  Outstanding leases may still check in
  /// (their workspaces are simply retained for destruction).  Idempotent.
  void close() GRIND_EXCLUDES(m_) {
    {
      sys::MutexLock lock(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const GRIND_EXCLUDES(m_) {
    sys::MutexLock lock(m_);
    return closed_;
  }

  /// Maximum number of workspaces this pool will ever create.
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Workspaces created so far (monotone, ≤ capacity()).
  [[nodiscard]] std::size_t created() const GRIND_EXCLUDES(m_) {
    sys::MutexLock lock(m_);
    return created_;
  }
  /// Idle workspaces available for immediate acquisition.
  [[nodiscard]] std::size_t available() const GRIND_EXCLUDES(m_) {
    sys::MutexLock lock(m_);
    return idle_.size() + (cap_ - created_);
  }
  /// Workspaces currently leased out.
  [[nodiscard]] std::size_t in_use() const GRIND_EXCLUDES(m_) {
    sys::MutexLock lock(m_);
    return created_ - idle_.size();
  }
  /// Monotone count of successful check-outs over the pool's lifetime —
  /// the instrument for "this query never leased scratch" assertions
  /// (result-cache hits must not touch the pool) and serving-tier reports.
  [[nodiscard]] std::uint64_t total_leases() const GRIND_EXCLUDES(m_) {
    sys::MutexLock lock(m_);
    return leases_;
  }

 private:
  struct Idle {
    std::unique_ptr<engine::TraversalWorkspace> ws;
    int domain;  ///< domain of the lease that returned it (kAnyDomain: none)
  };

  Lease take(int domain) GRIND_REQUIRES(m_) {
    std::unique_ptr<engine::TraversalWorkspace> ws;
    if (!idle_.empty()) {
      // Preference order: (1) idle workspace warm on the requested domain
      // (most recently returned first), (2) a fresh workspace — no pages to
      // mis-inherit, (3) any idle workspace, most recently returned first.
      std::size_t pick = idle_.size();  // sentinel: none matched
      if (domain != kAnyDomain) {
        for (std::size_t i = idle_.size(); i-- > 0;) {
          if (idle_[i].domain == domain) {
            pick = i;
            break;
          }
        }
      }
      if (pick == idle_.size() && domain != kAnyDomain && created_ < cap_) {
        auto fresh = create_workspace();  // may throw: count only on success
        ++leases_;
        return Lease(this, std::move(fresh), domain);
      }
      if (pick == idle_.size()) pick = idle_.size() - 1;
      ws = std::move(idle_[pick].ws);
      idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      ws = create_workspace();
    }
    ++leases_;
    return Lease(this, std::move(ws), domain);
  }

  // Creation may throw (std::bad_alloc; also the "pool.workspace-alloc"
  // fault site).  created_ is incremented only after a successful create so
  // a failed creation never leaks capacity: the slot stays claimable and the
  // pool still reaches its full cap once memory pressure clears.  No notify
  // is needed on the throw path — waiters only block when created_ == cap_,
  // and this path runs only when created_ < cap_.
  std::unique_ptr<engine::TraversalWorkspace> create_workspace()
      GRIND_REQUIRES(m_) {
    if (GRIND_FAULT_FIRE("pool.workspace-alloc")) throw std::bad_alloc();
    auto ws = std::make_unique<engine::TraversalWorkspace>();
    ++created_;
    return ws;
  }

  void check_in(std::unique_ptr<engine::TraversalWorkspace> ws, int domain)
      GRIND_EXCLUDES(m_) {
    {
      sys::MutexLock lock(m_);
      idle_.push_back(Idle{std::move(ws), domain});
    }
    cv_.notify_one();
  }

  mutable sys::Mutex m_;
  sys::CondVar cv_;
  std::vector<Idle> idle_ GRIND_GUARDED_BY(m_);
  std::size_t created_ GRIND_GUARDED_BY(m_) = 0;
  std::uint64_t leases_ GRIND_GUARDED_BY(m_) = 0;
  bool closed_ GRIND_GUARDED_BY(m_) = false;
  const std::size_t cap_;
};

}  // namespace grind::service
