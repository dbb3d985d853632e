// TraversalWorkspace: per-graph reusable scratch arena for the traversal
// kernels, in the partition-centric tradition (PCPM, GraphChi): the hot loop
// of an iterative algorithm must not allocate, because malloc/free traffic
// pollutes exactly the caches the partitioned layouts exist to protect.
//
// The workspace pools every piece of transient state an edge_map call needs:
//   * next-frontier bitmaps — retired frontier bitmaps ping-pong back in via
//     Frontier::into_workspace; acquisition clears only the dirty (nonzero)
//     words of the recycled bitmap (Bitmap::clear_dirty), so the clearing
//     cost tracks the previous frontier's density rather than |V|;
//   * sparse vertex lists — the packed output of the sparse forward kernel,
//     and the sparse representation built by Frontier::to_sparse;
//   * the sparse push's edge-slot array — one slot per edge of the active
//     rows, grown only while the high-water mark is still rising;
//   * per-chunk edge counters and prefix-sum scratch;
//   * prepared domain-affine schedules (per-domain item buckets + claim
//     cursors, domain_sched.hpp), keyed by item set and thread budget.
//
// The partition chunk work lists (COO edge chunks, CSC vertex sub-chunks,
// pruned-CSR vertex chunks) are NOT here: they depend only on the immutable
// graph, so they are computed once at build time and cached inside
// PartitionedCoo / Partitioning / PartitionedCsr.
//
// A workspace is not thread-safe: one workspace per concurrently running
// traversal loop.  It may be shared freely across sequential edge_map calls
// and across graphs (pooled buffers are keyed by size where it matters).
// Engine owns one by default, so all Engine-driven algorithms get
// steady-state zero-allocation traversal without code changes; an Engine
// can instead borrow a caller-owned workspace (Engine(g, opts, ws)) — the
// re-entrant form used by the explicit-workspace algorithm entry points
// and service::WorkspacePool for concurrent queries over one shared graph.
// Call-site workspaces also drive the kernels directly (benchmarks,
// baseline engines).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/domain_sched.hpp"
#include "sys/bitmap.hpp"
#include "sys/types.hpp"

namespace grind::engine {

class TraversalWorkspace {
 public:
  /// Retired bitmaps kept for reuse.  Two suffice for frontier ping-pong
  /// (input + output); a couple more absorb algorithms that hold several
  /// frontiers (BC's level stack) without unbounded growth.
  static constexpr std::size_t kMaxPooledBitmaps = 4;
  /// Retired sparse vertex lists kept for reuse.
  static constexpr std::size_t kMaxPooledLists = 4;

  TraversalWorkspace() {
    // Reserve the (tiny) pool vectors up front so pool push_backs never
    // reallocate inside a traversal.
    bitmaps_.reserve(kMaxPooledBitmaps);
    lists_.reserve(kMaxPooledLists);
  }
  TraversalWorkspace(TraversalWorkspace&&) = default;
  TraversalWorkspace& operator=(TraversalWorkspace&&) = default;
  TraversalWorkspace(const TraversalWorkspace&) = delete;
  TraversalWorkspace& operator=(const TraversalWorkspace&) = delete;

  /// A cleared bitmap of `bits` bits.  Reuses a pooled bitmap of matching
  /// size when one is available (clearing only its dirty words); allocates
  /// otherwise.
  [[nodiscard]] Bitmap acquire_bitmap(std::size_t bits) {
    for (std::size_t i = 0; i < bitmaps_.size(); ++i) {
      if (bitmaps_[i].size() != bits) continue;
      Bitmap b = std::move(bitmaps_[i]);
      bitmaps_[i] = std::move(bitmaps_.back());
      bitmaps_.pop_back();
      b.clear_dirty();
      return b;
    }
    return Bitmap(bits);
  }

  /// Return a bitmap to the pool (contents may be dirty; cleared on
  /// acquisition).  Zero-size bitmaps are dropped.
  void recycle_bitmap(Bitmap&& b) {
    if (b.size() == 0) return;
    if (bitmaps_.size() < kMaxPooledBitmaps) {
      bitmaps_.push_back(std::move(b));
    } else {
      // Pool full: prefer evicting a mismatched size so a workspace shared
      // across graphs converges on the active graph's size.
      for (auto& slot : bitmaps_) {
        if (slot.size() != b.size()) {
          slot = std::move(b);
          return;
        }
      }
      bitmaps_.front() = std::move(b);
    }
  }

  /// An empty vertex list with whatever capacity a previous traversal left
  /// behind.  Returns the largest-capacity pooled list so small lists (e.g.
  /// the single-vertex seed frontier's) cannot keep forcing reallocations
  /// once a run's high-water mark is known.
  [[nodiscard]] std::vector<vid_t> acquire_vertex_list() {
    if (lists_.empty()) return {};
    std::size_t best = 0;
    for (std::size_t i = 1; i < lists_.size(); ++i)
      if (lists_[i].capacity() > lists_[best].capacity()) best = i;
    std::vector<vid_t> v = std::move(lists_[best]);
    lists_[best] = std::move(lists_.back());
    lists_.pop_back();
    v.clear();
    return v;
  }

  void recycle_vertex_list(std::vector<vid_t>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    if (lists_.size() < kMaxPooledLists) {
      lists_.push_back(std::move(v));
      return;
    }
    // Pool full: replace the smallest pooled list if the newcomer is bigger.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < lists_.size(); ++i)
      if (lists_[i].capacity() < lists_[worst].capacity()) worst = i;
    if (lists_[worst].capacity() < v.capacity())
      lists_[worst] = std::move(v);
  }

  /// `n` vertex slots (uninitialized contents) for the sparse push, one
  /// per edge of the active rows.  Capacity is retained, so once a run's
  /// largest frontier has been seen the push never allocates.
  [[nodiscard]] vid_t* sparse_slots(std::size_t n) {
    if (sparse_slots_.size() < n) sparse_slots_.resize(n);
    return sparse_slots_.data();
  }

  /// `n` zeroed edge counters (one per work chunk).
  [[nodiscard]] std::vector<eid_t>& edge_counters(std::size_t n) {
    counters_.assign(n, 0);
    return counters_;
  }

  /// Two size_t scratch arrays of length `n` (uninitialized contents) for
  /// count/prefix-sum passes such as Frontier::to_sparse.
  [[nodiscard]] std::vector<std::size_t>& scratch_counts(std::size_t n) {
    scratch_counts_.resize(n);
    return scratch_counts_;
  }
  [[nodiscard]] std::vector<std::size_t>& scratch_offsets(std::size_t n) {
    scratch_offsets_.resize(n);
    return scratch_offsets_;
  }

  /// Cached domain-affine schedules (per item set × thread budget), so
  /// steady-state iterations of a traversal loop never rebuild the
  /// per-domain buckets (domain_sched.hpp).
  [[nodiscard]] DomainScheduleCache& domain_schedules() {
    return sched_cache_;
  }

  /// Raw message-value buffer for the PCPM scatter-gather kernel: `bytes`
  /// bytes, 8-byte aligned (double-sized elements), contents uninitialized.
  /// Capacity is retained across traversals, so steady-state iterations of
  /// one algorithm resize to the same byte count and never allocate.
  [[nodiscard]] std::byte* pcpm_values(std::size_t bytes) {
    if (pcpm_values_.size() < bytes) pcpm_values_.resize(bytes);
    return pcpm_values_.data();
  }

  /// One-time NUMA placement guard for the values buffer: the kernel
  /// page-places each destination partition's slice on its consumer domain
  /// the first time a given (graph bins, buffer storage) pairing is seen.
  /// The token compares the bin layout's identity and the buffer's data
  /// pointer, so a reallocation (growth) or a graph switch re-places while
  /// steady-state iterations skip the syscall path entirely.
  [[nodiscard]] bool pcpm_values_need_placement(const void* bins) {
    if (pcpm_placed_bins_ == bins && pcpm_placed_data_ == pcpm_values_.data())
      return false;
    pcpm_placed_bins_ = bins;
    pcpm_placed_data_ = pcpm_values_.data();
    return true;
  }

  /// Pool introspection (tests / diagnostics).
  [[nodiscard]] std::size_t pooled_bitmaps() const { return bitmaps_.size(); }
  [[nodiscard]] std::size_t pooled_vertex_lists() const {
    return lists_.size();
  }

  /// Drop all pooled storage (e.g. before measuring cold-start behaviour).
  void release_memory() {
    bitmaps_.clear();
    lists_.clear();
    sparse_slots_ = {};
    counters_ = {};
    scratch_counts_ = {};
    scratch_offsets_ = {};
    pcpm_values_ = {};
    pcpm_placed_bins_ = nullptr;
    pcpm_placed_data_ = nullptr;
    sched_cache_.clear();
  }

 private:
  std::vector<Bitmap> bitmaps_;
  std::vector<std::vector<vid_t>> lists_;
  std::vector<vid_t> sparse_slots_;
  std::vector<eid_t> counters_;
  std::vector<std::size_t> scratch_counts_;
  std::vector<std::size_t> scratch_offsets_;
  std::vector<std::byte> pcpm_values_;
  const void* pcpm_placed_bins_ = nullptr;
  const void* pcpm_placed_data_ = nullptr;
  DomainScheduleCache sched_cache_;
};

}  // namespace grind::engine
