// Deterministic pseudo-random generation for reproducible weights/workloads.
//
// Header-only: SplitMix64 (seeding) + xoshiro256** (bulk generation). We do
// not use std::mt19937 because its distributions are not guaranteed to be
// bit-identical across standard library implementations; reproducibility of
// generated model weights matters for the functional co-simulation tests.
#pragma once

#include <cmath>
#include <cstdint>

namespace looplynx::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x100057f1a2bULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) { return next_u64() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (uses two uniforms per pair; caches one).
  double normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = next_double();
    double u2 = next_double();
    // Avoid log(0).
    if (u1 <= 1e-300) u1 = 1e-300;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with mean `mu` and standard deviation `sigma`.
  double normal(double mu, double sigma) { return mu + sigma * normal(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace looplynx::util
