// Small statistics helpers shared by benchmarks and reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace looplynx::util {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> values);

/// Geometric mean; values must be positive. Returns 0 for an empty span.
/// The paper's "average speed-up" claims are ratio averages, for which the
/// geometric mean is the correct aggregate.
double geomean(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// The latency percentiles every serving report needs (p50/p95/p99), plus
/// mean and count, computed with a single sort. Empty input yields all
/// zeros; a single sample yields that sample for every percentile.
struct PercentileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

PercentileSummary percentile_summary(std::vector<double> values);

/// In-place ascending LSD radix sort (16-bit digits, high passes skipped
/// once the maximum key is exhausted). The serve layer's million-sample
/// cycle-domain latency vectors sort here in O(n) instead of O(n log n);
/// small inputs fall back to std::sort.
void radix_sort(std::vector<std::uint64_t>& keys);

/// Ascending sort of doubles, radix-accelerated when every value is
/// finite and non-negative with a clear sign bit (IEEE-754 orders such
/// values exactly like their u64 bit patterns; equal values have equal
/// bits, so the result is indistinguishable from std::sort). Anything
/// else — negatives, -0.0, NaN, small inputs — falls back to std::sort.
void sort_ascending(std::vector<double>& values);

/// Time-stamped sample window for rolling-percentile control signals (the
/// serve-layer autoscaler's p99 TTFT). Samples enter in non-decreasing
/// time order and leave from the front as the window slides, so push +
/// evict are O(1) amortized — an evaluation never re-scans samples that
/// already left the window, however long the run gets. percentile() sorts
/// only the samples currently inside the window (cost bounded by window
/// occupancy, not run length).
class SlidingWindow {
 public:
  /// `at` must be >= the previous push's `at` (fleet clocks are monotone).
  void push(double at, double value);

  /// Drops every sample with time < `at` (the trailing window edge).
  void evict_before(double at);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Linear-interpolated percentile over the samples in the window, p in
  /// [0, 100]. Returns 0 for an empty window.
  double percentile(double p) const;

 private:
  std::deque<std::pair<double, double>> samples_;  // (time, value)
};

}  // namespace looplynx::util
