#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace looplynx::util {

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      (p / 100.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void radix_sort(std::vector<std::uint64_t>& keys) {
  // Comparison sort is the better deal until the counting tables pay off.
  if (keys.size() < 4096) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t max_key = 0;
  for (std::uint64_t k : keys) max_key = std::max(max_key, k);
  // 8-bit digits: a 256-entry table stays in L1 and is cheap to clear.
  std::vector<std::uint64_t> buf(keys.size());
  std::vector<std::size_t> count(256);
  std::vector<std::uint64_t>* src = &keys;
  std::vector<std::uint64_t>* dst = &buf;
  for (unsigned shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 8) {
    std::fill(count.begin(), count.end(), 0);
    for (std::uint64_t k : *src) ++count[(k >> shift) & 0xff];
    std::size_t total = 0;
    for (std::size_t& c : count) {
      const std::size_t n = c;
      c = total;
      total += n;
    }
    for (std::uint64_t k : *src) (*dst)[count[(k >> shift) & 0xff]++] = k;
    std::swap(src, dst);
  }
  if (src != &keys) keys.swap(buf);
}

template <class Item>
void ValueCounts::merge_ascending(std::size_t n, std::size_t distinct,
                                  Item item) {
  // Backward merge in place: grow by the new distinct values, fill from
  // the back and fold each value equal to the entry written last into it.
  // The write cursor never passes the unread prefix runs_[0, i), which
  // stays where it is; the slack between it and the merged tail (one slot
  // per incoming value the runs already held) is erased at the end.
  const std::size_t end = runs_.size() + distinct;
  std::size_t i = runs_.size();
  std::size_t k = end;
  runs_.resize(end);
  for (std::size_t j = n; j > 0;) {
    const Run next = i > 0 && runs_[i - 1].value >= item(j - 1).value
                         ? runs_[--i]
                         : item(--j);
    if (k < end && runs_[k].value == next.value) {
      runs_[k].count += next.count;
    } else {
      runs_[--k] = next;
    }
  }
  runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i),
              runs_.begin() + static_cast<std::ptrdiff_t>(k));
}

void ValueCounts::flush() {
  radix_sort(pending_);
  std::size_t distinct = 0;
  for (std::size_t j = 0; j < pending_.size(); ++j) {
    if (j == 0 || pending_[j] != pending_[j - 1]) ++distinct;
  }
  merge_ascending(pending_.size(), distinct,
                  [&](std::size_t j) { return Run{pending_[j], 1}; });
  count_ += pending_.size();
  pending_.clear();
}

void ValueCounts::compact() {
  if (!pending_.empty()) flush();
  std::vector<std::uint64_t>().swap(pending_);
}

void ValueCounts::merge(const ValueCounts& other) {
  other.require_compacted();
  merge_ascending(other.runs_.size(), other.runs_.size(),
                  [&](std::size_t j) { return other.runs_[j]; });
  count_ += other.count_;
}

void ValueCounts::require_compacted() const {
  if (!pending_.empty()) {
    throw std::logic_error("ValueCounts: read before compact()");
  }
}

std::uint64_t ValueCounts::value_at(std::size_t rank) const {
  for (const Run& r : runs_) {
    if (rank < r.count) return r.value;
    rank -= r.count;
  }
  throw std::logic_error("ValueCounts: rank past the last sample");
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
  std::vector<double> values;
  values.reserve(samples_.size());
  for (const auto& [at, v] : samples_) values.push_back(v);
  return util::percentile(std::move(values), p);
}

}  // namespace looplynx::util
