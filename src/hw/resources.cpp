#include "hw/resources.hpp"

#include <algorithm>
#include <limits>

namespace looplynx::hw {

ResourceVector& ResourceVector::operator+=(const ResourceVector& other) {
  dsp += other.dsp;
  lut += other.lut;
  ff += other.ff;
  bram += other.bram;
  uram += other.uram;
  return *this;
}

bool ResourceVector::fits_within(const ResourceVector& budget) const {
  return dsp <= budget.dsp && lut <= budget.lut && ff <= budget.ff &&
         bram <= budget.bram && uram <= budget.uram;
}

double ResourceVector::max_utilization(const ResourceVector& budget) const {
  double worst = 0.0;
  const auto ratio = [](double need, double have) {
    if (need <= 0) return 0.0;
    if (have <= 0) return std::numeric_limits<double>::infinity();
    return need / have;
  };
  worst = std::max(worst, ratio(dsp, budget.dsp));
  worst = std::max(worst, ratio(lut, budget.lut));
  worst = std::max(worst, ratio(ff, budget.ff));
  worst = std::max(worst, ratio(bram, budget.bram));
  worst = std::max(worst, ratio(uram, budget.uram));
  return worst;
}

ResourceVector alveo_u50_budget() {
  // AMD Alveo U50: XCU50 (UltraScale+), production-card budgets.
  return ResourceVector{
      .dsp = 5952, .lut = 872e3, .ff = 1743e3, .bram = 1344, .uram = 640};
}

ResourceVector alveo_u50_slr_budget() {
  // The XCU50 die is split into two SLRs; budgets are per-SLR halves.
  return alveo_u50_budget() * 0.5;
}

}  // namespace looplynx::hw
