// Shared pieces of the perfbench harness: clocks, percentiles, the seeded
// samplers, the in-memory span recorder and the metric table that becomes
// the run's final JSON line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sys/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation percentile (q in [0,1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Seeded uniform source; the same seed gives the same stream everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : g_(seed) {}
  double uniform() { return static_cast<double>(g_.next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return g_.next() % n; }

 private:
  grind::Xoshiro256 g_;
};

/// Discrete sampler over explicit weights (inverse CDF by binary search).
class Weighted {
 public:
  explicit Weighted(const std::vector<double>& w) {
    double acc = 0.0;
    for (double x : w) cdf_.push_back(acc += x);
    for (double& c : cdf_) c /= acc;
  }
  /// Zipf(s) over n ranks: weight of rank r is 1/(r+1)^s.
  static Weighted zipf(std::size_t n, double s) {
    std::vector<double> w(n);
    for (std::size_t r = 0; r < n; ++r) w[r] = 1.0 / std::pow(double(r + 1), s);
    return Weighted(w);
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One recorded span.  `parent` indexes the span list (-1 = root); spans of
/// one serve request share `request`.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder, written out when the run ends.  Recording is
/// single-threaded (main / load-generator thread only).  When off, begin()
/// returns -1 and nothing is stored, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }
  [[nodiscard]] double at(Clock::time_point t) const { return seconds_between(t0_, t); }

  int begin(std::string name, int parent = -1, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }
  /// A span whose interval was measured elsewhere (e.g. a request's due time
  /// to its observed completion).
  int add(std::string name, double start, double end, int parent = -1,
          std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write the spans as a JSON array; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Named metrics with units, in insertion order of first set().
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.emplace(name, rows_.size()).second)
      rows_.push_back({name, value, unit});
    else
      rows_[index_[name]] = {name, value, unit};
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
