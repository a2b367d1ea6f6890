#include "serve/serving_sim.hpp"

#include <utility>

#include "serve/fleet.hpp"

namespace looplynx::serve {

ServingSim::ServingSim(const ServingConfig& config)
    : fleet_(std::make_shared<const FleetSim>(
          FleetConfig::homogeneous(config, 1))) {}

ServingSim::ServingSim(const ServingConfig& config,
                       const core::StepCostModel& costs)
    : fleet_(std::make_shared<const FleetSim>(
          FleetConfig::homogeneous(config, 1), costs)) {}

FleetMetrics ServingSim::run() const { return run(nullptr); }

FleetMetrics ServingSim::run(Observer* observer) const {
  return std::move(fleet_->run(observer).replicas.front());
}

}  // namespace looplynx::serve
