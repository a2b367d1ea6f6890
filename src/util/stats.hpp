// Small statistics helpers shared by benchmarks and reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace looplynx::util {

/// Geometric mean; values must be positive. Returns 0 for an empty span.
/// The paper's "average speed-up" claims are ratio averages, for which the
/// geometric mean is the correct aggregate.
double geomean(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100]; returns 0 for an empty
/// vector. The autoscaler's sliding window reads its p99 through it, and
/// the tests use it as the reference for ValueCounts::summary.
double percentile(std::vector<double> values, double p);

/// The latency percentiles every serving report needs (p50/p95/p99), plus
/// mean and count. Empty input yields all zeros; a single sample yields
/// that sample for every percentile.
struct PercentileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  bool operator==(const PercentileSummary&) const = default;
};

/// In-place ascending LSD radix sort (high passes skipped once the maximum
/// key is exhausted) over 8-bit digits; inputs below 4096 keys fall back
/// to std::sort.
void radix_sort(std::vector<std::uint64_t>& keys);

/// Exact multiset of integer samples held as ascending (value, count)
/// runs, so memory grows with the number of distinct values rather than
/// with the number of samples. Non-negative finite doubles fit too, keyed
/// by std::bit_cast<std::uint64_t>: IEEE-754 orders them exactly like
/// their bit patterns, and equal values have equal bits. add() appends to
/// a pending buffer; once the buffer holds max(4096, runs held) samples it
/// is radix-sorted and merged into the runs. Every flush therefore moves
/// at least as many new samples as old runs, and a sample costs amortized
/// O(1) however many distinct values accumulate. compact() merges what is
/// left; merge() and summary() read only a compacted store. Construction
/// allocates nothing.
class ValueCounts {
 public:
  struct Run {
    std::uint64_t value = 0;
    std::size_t count = 0;
  };

  void add(std::uint64_t value) {
    pending_.push_back(value);
    if (pending_.size() >= std::max(kMinFlush, runs_.size())) flush();
  }

  /// Merges the pending buffer into the runs and releases it.
  void compact();

  /// Adds every sample of `other` (compacted) by merging its runs.
  void merge(const ValueCounts& other);

  /// Entries held: runs plus pending samples.
  std::size_t held() const { return runs_.size() + pending_.size(); }
  const std::vector<Run>& runs() const { return runs_; }

  /// The percentile summary of the samples mapped through the monotone
  /// non-decreasing `convert`, bit-identical to sorting every converted
  /// sample: the mean adds one converted sample at a time in ascending
  /// order, the additions a sum over the sorted vector makes, and each
  /// percentile interpolates between the converted samples at the ranks
  /// util::percentile reads.
  template <class Convert>
  PercentileSummary summary(Convert convert) const;

 private:
  static constexpr std::size_t kMinFlush = 4096;

  void flush();
  void require_compacted() const;
  /// The sample at ascending rank `rank` (< count()).
  std::uint64_t value_at(std::size_t rank) const;
  /// Merges `n` ascending items, `item(j)` for j in [0, n), holding at
  /// most `distinct` distinct values, into runs_ in place.
  template <class Item>
  void merge_ascending(std::size_t n, std::size_t distinct, Item item);

  std::vector<Run> runs_;
  std::vector<std::uint64_t> pending_;
  std::size_t count_ = 0;  // samples in runs_
};

template <class Convert>
PercentileSummary ValueCounts::summary(Convert convert) const {
  require_compacted();
  PercentileSummary s;
  if (count_ == 0) return s;
  double sum = 0.0;
  for (const Run& r : runs_) {
    const double x = convert(r.value);
    for (std::size_t k = 0; k < r.count; ++k) sum += x;
  }
  s.count = count_;
  s.mean = sum / static_cast<double>(count_);
  const auto interp = [&](double p) {
    const double rank = (p / 100.0) * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return convert(value_at(lo)) * (1.0 - frac) +
           convert(value_at(hi)) * frac;
  };
  s.p50 = interp(50.0);
  s.p95 = interp(95.0);
  s.p99 = interp(99.0);
  return s;
}

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
