#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace looplynx::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/// Linear-interpolated percentile over an already-sorted, non-empty range.
double sorted_percentile(std::span<const double> sorted, double p) {
  const double rank =
      (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

void sort_ascending(std::vector<double>& values) {
  if (values.size() < 4096) {
    std::sort(values.begin(), values.end());
    return;
  }
  for (double v : values) {
    if (!(v >= 0.0) || std::signbit(v) || !std::isfinite(v)) {
      std::sort(values.begin(), values.end());
      return;
    }
  }
  std::vector<std::uint64_t> keys(values.size());
  std::memcpy(keys.data(), values.data(), values.size() * sizeof(double));
  radix_sort(keys);
  std::memcpy(values.data(), keys.data(), values.size() * sizeof(double));
}

PercentileSummary percentile_summary(std::vector<double> values) {
  PercentileSummary s;
  if (values.empty()) return s;
  sort_ascending(values);
  s.count = values.size();
  s.mean = mean(values);
  s.p50 = sorted_percentile(values, 50.0);
  s.p95 = sorted_percentile(values, 95.0);
  s.p99 = sorted_percentile(values, 99.0);
  return s;
}

void radix_sort(std::vector<std::uint64_t>& keys) {
  // Comparison sort is the better deal until the counting tables pay off.
  if (keys.size() < 4096) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t max_key = 0;
  for (std::uint64_t k : keys) max_key = std::max(max_key, k);
  std::vector<std::uint64_t> buf(keys.size());
  std::vector<std::size_t> count(1u << 16);
  std::vector<std::uint64_t>* src = &keys;
  std::vector<std::uint64_t>* dst = &buf;
  for (unsigned shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 16) {
    std::fill(count.begin(), count.end(), 0);
    for (std::uint64_t k : *src) ++count[(k >> shift) & 0xffff];
    std::size_t total = 0;
    for (std::size_t& c : count) {
      const std::size_t n = c;
      c = total;
      total += n;
    }
    for (std::uint64_t k : *src) (*dst)[count[(k >> shift) & 0xffff]++] = k;
    std::swap(src, dst);
  }
  if (src != &keys) keys.swap(buf);
}

void SlidingWindow::push(double at, double value) {
  samples_.emplace_back(at, value);
}

void SlidingWindow::evict_before(double at) {
  while (!samples_.empty() && samples_.front().first < at) {
    samples_.pop_front();
  }
}

double SlidingWindow::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(samples_.size());
  for (const auto& [at, v] : samples_) values.push_back(v);
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

}  // namespace looplynx::util
