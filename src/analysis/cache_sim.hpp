// Set-associative LRU last-level-cache simulator — the instrument behind
// Fig 8 (MPKI as a function of the partition count).
//
// The paper measures hardware LLC misses per kilo-instruction; this
// environment has no stable access to those counters, so the benchmark
// drives a trace of the traversal's memory accesses (analysis/access_trace)
// through this model instead.  The response of MPKI to the partitioning
// degree — halving for edge-oriented algorithms, flat for BFS — is a
// property of the access stream, which the model preserves exactly
// (bench/bench_fig8_mpki.cpp describes the replay).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grind::analysis {

struct CacheConfig {
  std::size_t size_bytes = 8u << 20;  ///< total capacity (default 8 MiB)
  std::size_t line_bytes = 64;
  std::size_t ways = 16;
};

class CacheSim {
 public:
  explicit CacheSim(CacheConfig cfg = {});

  /// Simulate one access; returns true on hit.
  bool access(std::uintptr_t addr);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t accesses() const { return hits_ + misses_; }
  [[nodiscard]] double miss_rate() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(misses_) / static_cast<double>(accesses());
  }

  /// Misses per kilo-instruction given an instruction count for the traced
  /// region.
  [[nodiscard]] double mpki(std::uint64_t instructions) const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(misses_) * 1000.0 /
                                   static_cast<double>(instructions);
  }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }

  void reset();

 private:
  CacheConfig cfg_;
  std::size_t sets_;
  std::size_t line_shift_;
  /// tags_[set*ways + i], i = 0 is MRU; kEmptyTag marks an invalid way.
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
};

}  // namespace grind::analysis
