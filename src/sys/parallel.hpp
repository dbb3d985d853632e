// OpenMP-based parallel primitives: parallel_for over index ranges, tree
// reductions, inclusive/exclusive prefix sums, a stable bucketing (counting)
// sort and a parallel merge-style sort.  This is the only module that touches OpenMP pragmas directly (apart
// from the traversal kernels), so the rest of the library stays portable.
//
// The paper's framework is built on Cilk with NUMA-aware loop scheduling;
// OpenMP dynamic scheduling over partitions provides the same work
// distribution semantics (docs/NUMA.md, "Scheduler contract", covers the
// domain-affine layer on top).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace grind {

/// Number of worker threads the runtime will use for parallel regions
/// launched by the *calling* thread.  A thread-local limit (ThreadLimitGuard)
/// takes precedence over the process-wide setting, so concurrent queries can
/// each run with their own parallelism budget; the process-wide value is
/// stored atomically so first use from several threads at once is race-free.
int num_threads();

/// The process-wide thread count, ignoring any thread-local limit; what
/// num_threads() returns on threads with no ThreadLimitGuard active.
int process_num_threads();

/// Set the process-wide number of worker threads (wraps omp_set_num_threads).
/// Not thread-safe in intent: call from a single-threaded phase (main, test
/// setup), never concurrently with running traversals.
void set_num_threads(int n);

/// The calling thread's thread-count limit; 0 when none is set.
int thread_limit();

/// Set (n >= 1) or clear (n == 0) the calling thread's thread-count limit.
/// Prefer ThreadLimitGuard, which also pins the OpenMP ICV and restores
/// both on scope exit.
void set_thread_limit(int n);

/// RAII guard that temporarily changes the process-wide thread count,
/// restoring the previous value on destruction (used by the scalability
/// benches).
class ThreadCountGuard {
 public:
  // Saves the raw process-wide value, not limit-aware num_threads(): a
  // ThreadCountGuard constructed on a thread under a ThreadLimitGuard must
  // not restore that thread's local limit into the global.
  explicit ThreadCountGuard(int n) : saved_(process_num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// RAII guard limiting parallelism for the *calling thread only*: both
/// num_threads() (the serial-fallback checks in the primitives below) and
/// the thread's OpenMP nthreads ICV (the raw pragmas in the traversal
/// kernels) see `n` until the guard is destroyed.  This is how GraphService
/// workers run many queries side by side without oversubscribing: each
/// worker holds a ThreadLimitGuard(threads_per_query) and other threads'
/// parallel regions are unaffected.
class ThreadLimitGuard {
 public:
  explicit ThreadLimitGuard(int n);
  ~ThreadLimitGuard();
  ThreadLimitGuard(const ThreadLimitGuard&) = delete;
  ThreadLimitGuard& operator=(const ThreadLimitGuard&) = delete;

 private:
  int saved_limit_;
  int saved_omp_;
};

/// Minimum trip count below which parallel_for runs serially; avoids paying
/// the fork-join overhead on tiny loops (frequent with sparse frontiers).
inline constexpr std::size_t kSerialCutoff = 2048;

/// Parallel for over [begin, end): f(i) is invoked exactly once per index.
/// Static scheduling: best for uniform per-iteration work (vertex loops).
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n < kSerialCutoff || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = begin; i < end; ++i) f(i);
}

/// Parallel for with dynamic scheduling; best for skewed per-iteration work
/// (per-partition or per-vertex-degree loops).
template <typename F>
void parallel_for_dynamic(std::size_t begin, std::size_t end, F&& f,
                          std::size_t chunk = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n <= 1 || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, chunk)
  for (std::size_t i = begin; i < end; ++i) f(i);
}

/// parallel_for_dynamic whose body also receives a per-thread `Scratch&`,
/// default-constructed once per thread and reused across that thread's
/// iterations: f(i, scratch).  For loops that need a temporary buffer per
/// iteration (per-row or per-bucket sorts) without allocating one each time.
template <typename Scratch, typename F>
void parallel_for_dynamic_scratch(std::size_t begin, std::size_t end, F&& f,
                                  std::size_t chunk = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n <= 1 || num_threads() == 1) {
    Scratch s;
    for (std::size_t i = begin; i < end; ++i) f(i, s);
    return;
  }
#pragma omp parallel
  {
    Scratch s;
#pragma omp for schedule(dynamic, chunk)
    for (std::size_t i = begin; i < end; ++i) f(i, s);
  }
}

/// Stable parallel bucketing — a counting sort of the items [0, n) by
/// key(i) ∈ [0, num_keys).  Writes the bucket bounds to `offsets`
/// (num_keys + 1 entries: bucket k is [offsets[k], offsets[k+1])) and calls
/// place(slot, i) exactly once per item, with slot inside its bucket.  Each
/// bucket receives its items in ascending i — the order of a serial
/// count-and-scatter loop — at every thread count.
///
/// Every thread of the team owns a contiguous key range and scans all n
/// items, acting only on the keys it owns: first counting, under an even
/// split of the key space, then placing, under a split balanced by bucket
/// sizes.  One thread places a whole bucket, in item order, so the result
/// needs no atomics and does not depend on the schedule; the only scratch
/// is one num_keys-entry cursor array plus O(threads).  The same code runs
/// at one thread (a team of one).  key(i) must lie in [0, num_keys): range-
/// check before calling, since nothing may throw inside the region.
template <typename T, typename KeyFn, typename PlaceFn>
void stable_bucket(std::size_t n, std::size_t num_keys, KeyFn&& key,
                   T* offsets, PlaceFn&& place) {
  const int nt = num_threads();
  // Uninitialised: each thread zeroes (first-touches) the share it counts.
  const auto cursor = std::make_unique_for_overwrite<T[]>(num_keys);
  std::vector<T> team_base(static_cast<std::size_t>(nt) + 1, T{});
#pragma omp parallel num_threads(nt)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    // 1. Count the keys of an even share of the key space.
    const std::size_t clo = num_keys * t / team;
    const std::size_t chi = num_keys * (t + 1) / team;
    std::fill(cursor.get() + clo, cursor.get() + chi, T{});
    T mine{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = key(i);
      if (k >= clo && k < chi) {
        ++cursor[k];
        ++mine;
      }
    }
    team_base[t + 1] = mine;
#pragma omp barrier
#pragma omp single
    for (std::size_t s = 1; s <= team; ++s) team_base[s] += team_base[s - 1];
    // 2. Offsets of the counted share (the single's barrier published the
    //    shares' bases).
    T run = team_base[t];
    for (std::size_t k = clo; k < chi; ++k) {
      const T c = cursor[k];
      offsets[k] = run;
      run += c;
    }
    if (t + 1 == team) offsets[num_keys] = run;
#pragma omp barrier
    // 3. Place: re-split the keys so each thread owns about n / team items,
    //    point the owned keys' cursors at their bucket starts, and scatter
    //    the owned keys' items in index order.
    auto split = [&](std::size_t s) -> std::size_t {
      if (s == 0) return 0;
      if (s == team) return num_keys;
      const T target = static_cast<T>(n * s / team);
      return static_cast<std::size_t>(
          std::lower_bound(offsets, offsets + num_keys, target) - offsets);
    };
    const std::size_t plo = split(t);
    const std::size_t phi = split(t + 1);
    for (std::size_t k = plo; k < phi; ++k) cursor[k] = offsets[k];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = key(i);
      if (k >= plo && k < phi) place(cursor[k]++, i);
    }
  }
}

/// Parallel sum-reduction of f(i) over [begin, end).  Uses the OpenMP
/// reduction clause (tree combine) rather than a critical section, so the
/// combine step is O(log threads) instead of serialized.  T must be an
/// arithmetic type (all in-tree uses are).
template <typename T, typename F>
T parallel_reduce_sum(std::size_t begin, std::size_t end, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  T total{};
  if (n < kSerialCutoff || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) total += f(i);
    return total;
  }
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (std::size_t i = begin; i < end; ++i) total += f(i);
  return total;
}

/// Parallel max-reduction of f(i) over [begin, end); returns `identity` for
/// an empty range.  Reduction clause for the same reason as above; note the
/// OpenMP max reduction initializes privates to the type's minimum, so the
/// identity is folded in afterwards.
template <typename T, typename F>
T parallel_reduce_max(std::size_t begin, std::size_t end, T identity, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n < kSerialCutoff || num_threads() == 1) {
    T best = identity;
    for (std::size_t i = begin; i < end; ++i) best = std::max(best, f(i));
    return best;
  }
  T best = std::numeric_limits<T>::lowest();
#pragma omp parallel for schedule(static) reduction(max : best)
  for (std::size_t i = begin; i < end; ++i) best = std::max(best, f(i));
  return std::max(best, identity);
}

/// Exclusive prefix sum: out[i] = sum of in[0..i).  `out` may alias `in`.
/// Returns the grand total (== out[n] if out has n+1 slots; here out has the
/// same length as in, so the total is returned separately).
///
/// Used pervasively: CSR construction (degree counting → row offsets),
/// sparse-frontier compaction, partition offset computation.
template <typename T>
T exclusive_scan(const T* in, T* out, std::size_t n) {
  if (n == 0) return T{};
  const int nt = num_threads();
  if (n < kSerialCutoff || nt == 1) {
    T run{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = in[i];
      out[i] = run;
      run += v;
    }
    return run;
  }
  std::vector<T> block_sum(static_cast<std::size_t>(nt) + 1, T{});
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(nt);
    const std::size_t hi = n * (static_cast<std::size_t>(t) + 1) /
                           static_cast<std::size_t>(nt);
    T local{};
    for (std::size_t i = lo; i < hi; ++i) local += in[i];
    block_sum[static_cast<std::size_t>(t) + 1] = local;
#pragma omp barrier
#pragma omp single
    {
      for (int b = 1; b <= nt; ++b) block_sum[static_cast<std::size_t>(b)] +=
          block_sum[static_cast<std::size_t>(b) - 1];
    }
    T run = block_sum[static_cast<std::size_t>(t)];
    for (std::size_t i = lo; i < hi; ++i) {
      T v = in[i];
      out[i] = run;
      run += v;
    }
  }
  return block_sum.back();
}

/// Convenience overload for vectors; resizes `out` to in.size().
template <typename T>
T exclusive_scan(const std::vector<T>& in, std::vector<T>& out) {
  out.resize(in.size());
  return exclusive_scan(in.data(), out.data(), in.size());
}

template <typename It, typename Cmp>
void detail_parallel_sort(It first, It last, Cmp cmp, int depth);

/// Parallel sort (stable not guaranteed).  Recursive merge parallelism via
/// OpenMP tasks; falls back to std::sort for small inputs.
template <typename It, typename Cmp>
void parallel_sort(It first, It last, Cmp cmp) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n < 1u << 14 || num_threads() == 1) {
    std::sort(first, last, cmp);
    return;
  }
#pragma omp parallel
#pragma omp single nowait
  detail_parallel_sort(first, last, cmp, /*depth=*/0);
}

template <typename It>
void parallel_sort(It first, It last) {
  parallel_sort(first, last, std::less<>{});
}

/// Implementation helper for parallel_sort; splits until depth exhausts the
/// thread pool, then sorts serially and merges in-place.
template <typename It, typename Cmp>
void detail_parallel_sort(It first, It last, Cmp cmp, int depth) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n < 1u << 14 || depth > 6) {
    std::sort(first, last, cmp);
    return;
  }
  It mid = first + static_cast<std::ptrdiff_t>(n / 2);
#pragma omp task untied shared(cmp)
  detail_parallel_sort(first, mid, cmp, depth + 1);
  detail_parallel_sort(mid, last, cmp, depth + 1);
#pragma omp taskwait
  std::inplace_merge(first, mid, last, cmp);
}

/// Parallel fill.
template <typename T>
void parallel_fill(T* data, std::size_t n, const T& value) {
  parallel_for(0, n, [&](std::size_t i) { data[i] = value; });
}

template <typename T>
void parallel_fill(std::vector<T>& v, const T& value) {
  parallel_fill(v.data(), v.size(), value);
}

}  // namespace grind
