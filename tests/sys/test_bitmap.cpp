#include "sys/bitmap.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "sys/parallel.hpp"

namespace grind {
namespace {

TEST(Bitmap, EmptyHasNoBits) {
  Bitmap b(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, SetGetClear) {
  Bitmap b(130);
  EXPECT_FALSE(b.get(0));
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(63));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  EXPECT_FALSE(b.get(128));
  EXPECT_EQ(b.count(), 4u);
  b.clear_bit(63);
  EXPECT_FALSE(b.get(63));
  EXPECT_EQ(b.count(), 3u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, SetAllRespectsTail) {
  // size not a multiple of 64: count must not include phantom tail bits.
  for (std::size_t n : {1u, 63u, 64u, 65u, 100u, 1000u}) {
    Bitmap b(n);
    b.set_all();
    EXPECT_EQ(b.count(), n) << "n=" << n;
  }
}

TEST(Bitmap, CountRangeWordAligned) {
  Bitmap b(256);
  for (std::size_t i = 0; i < 256; i += 2) b.set(i);
  EXPECT_EQ(b.count_range(0, 64), 32u);
  EXPECT_EQ(b.count_range(64, 256), 96u);
}

TEST(Bitmap, ForEachSetVisitsExactlySetBits) {
  Bitmap b(300);
  std::vector<std::size_t> want = {0, 1, 63, 64, 65, 128, 299};
  for (auto i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(Bitmap, AtomicSetReturnsTrueOnlyOnce) {
  Bitmap b(128);
  EXPECT_TRUE(b.set_atomic(77));
  EXPECT_FALSE(b.set_atomic(77));
  EXPECT_TRUE(b.get(77));
}

TEST(Bitmap, ConcurrentAtomicSetsAllLand) {
  const std::size_t n = 1 << 16;
  Bitmap b(n);
  parallel_for(0, n, [&](std::size_t i) { b.set_atomic(i); });
  EXPECT_EQ(b.count(), n);
}

TEST(Bitmap, EqualityComparesContent) {
  Bitmap a(100), b(100);
  a.set(7);
  EXPECT_FALSE(a == b);
  b.set(7);
  EXPECT_TRUE(a == b);
}

TEST(AtomicBitmap, SetReturnsClaim) {
  AtomicBitmap b(200);
  EXPECT_TRUE(b.set(5));
  EXPECT_FALSE(b.set(5));
  EXPECT_TRUE(b.get(5));
  EXPECT_EQ(b.count(), 1u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(AtomicBitmap, ParallelClaimsAreExclusive) {
  const std::size_t n = 1 << 14;
  AtomicBitmap b(n);
  std::atomic<std::size_t> claims{0};
  parallel_for(0, n * 4, [&](std::size_t i) {
    if (b.set(i % n)) claims.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(claims.load(), n);  // each bit claimed exactly once
}

/// Barrier whose waiters spin rather than sleep, so released threads
/// restart within a few hundred nanoseconds of each other (yielding after a
/// while, so a host with fewer cores than threads still makes progress).
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}
  void wait() {
    const int gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      return;
    }
    for (int spins = 0; gen_.load(std::memory_order_acquire) == gen; ++spins)
      if (spins > 256) std::this_thread::yield();
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<int> gen_{0};
};

/// Pin the calling thread to the k-th CPU (mod count) of `allowed`.  Left to
/// the scheduler, freshly started threads often share one CPU for tens of
/// milliseconds, and threads that never run at the same instant cannot race.
void pin_to_nth(const cpu_set_t& allowed, int k) {
  k %= CPU_COUNT(&allowed);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || k-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

/// Bits lost when 4 threads, each pinned to its own CPU where the host has
/// them, concurrently write interleaved owned ranges whose bounds are
/// multiples of `align`: range r has length align·(1+r%3) and belongs to
/// thread r%4, so with align < 64 several writers share a word.  The bitmap
/// is sixteen words and each thread visits its ranges in its own random
/// order.
std::size_t lost_owned_range_bits(std::size_t align, int rounds) {
  constexpr int kThreads = 4;
  constexpr std::size_t kBits = 64 * 16;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> mine(kThreads);
  std::size_t r = 0;
  for (std::size_t b = 0; b < kBits; ++r) {
    const std::size_t e = std::min(kBits, b + align * (1 + r % 3));
    mine[r % kThreads].emplace_back(b, e);
    b = e;
  }
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937 rng(static_cast<unsigned>(t + 1));
    std::shuffle(mine[t].begin(), mine[t].end(), rng);
  }

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  Bitmap bits(kBits);
  SpinBarrier barrier(kThreads);
  std::size_t lost = 0;
  auto worker = [&](int t) {
    pin_to_nth(allowed, t);
    for (int round = 0; round < rounds; ++round) {
      barrier.wait();
      for (const auto& [b, e] : mine[t]) {
        const OwnedRangeBits out(bits, b, e);
        for (std::size_t i = b; i < e; ++i) out.set(i);
      }
      barrier.wait();
      if (t == 0) {
        std::uint64_t* w = bits.words();
        for (std::size_t i = 0; i < bits.num_words(); ++i) {
          lost += 64 - static_cast<std::size_t>(std::popcount(w[i]));
          w[i] = 0;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  return lost;
}

TEST(OwnedRangeBits, ConcurrentOwnersOfSharedWordsLoseNoBits) {
  for (std::size_t align : {1, 8, 64})
    EXPECT_EQ(lost_owned_range_bits(align, 100), 0u) << "align=" << align;
}

TEST(BitmapWords, WordCountFormula) {
  EXPECT_EQ(bitmap_words(0), 0u);
  EXPECT_EQ(bitmap_words(1), 1u);
  EXPECT_EQ(bitmap_words(64), 1u);
  EXPECT_EQ(bitmap_words(65), 2u);
}

}  // namespace
}  // namespace grind
