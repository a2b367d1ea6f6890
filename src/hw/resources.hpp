// FPGA resource vectors and device budgets (paper Fig. 7 and Table II).
//
// Resources are modeled as integer vectors over {DSP, LUT, FF, BRAM, URAM};
// BRAM is counted in BRAM36-equivalents, which is why fractional values
// appear in the paper (924.5) — we track half-BRAM18 units as 0.5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace looplynx::hw {

struct ResourceVector {
  double dsp = 0;
  double lut = 0;
  double ff = 0;
  double bram = 0;  // BRAM36-equivalents (can be fractional)
  double uram = 0;

  ResourceVector& operator+=(const ResourceVector& other);
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    a += b;
    return a;
  }
  friend ResourceVector operator*(ResourceVector a, double scale) {
    a.dsp *= scale;
    a.lut *= scale;
    a.ff *= scale;
    a.bram *= scale;
    a.uram *= scale;
    return a;
  }

  /// True when every component fits within `budget`.
  bool fits_within(const ResourceVector& budget) const;

  /// Max over components of this/budget (utilization of the scarcest
  /// resource); returns +inf if the budget has a zero where we need some.
  double max_utilization(const ResourceVector& budget) const;
};

/// A named sub-block contribution (one row of the paper's Fig. 7 table).
struct ComponentUsage {
  std::string name;
  ResourceVector usage;
};

/// Device budgets.
ResourceVector alveo_u50_budget();   // whole device
ResourceVector alveo_u50_slr_budget();  // one of two SLRs

}  // namespace looplynx::hw
