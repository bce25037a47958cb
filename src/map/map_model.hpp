// Map-model compilation: point cloud -> mixture map -> CIM programming.
//
// This is the software half of the paper's co-design loop: the environment
// cloud is fitted either with a conventional GMM or with the
// hardware-friendly HMGM, and the HMGM is then lowered onto the inverter
// array through an affine world-to-voltage mapping plus weight-to-column
// allocation.
#pragma once

#include <vector>

#include "circuit/array.hpp"
#include "core/rng.hpp"
#include "core/vec.hpp"
#include "prob/hmg.hpp"

namespace cimnav::map {

/// Per-axis affine mapping from world coordinates to the array's usable
/// voltage window. Sigmas transform by the same scale factors.
class WorldToVoltage {
 public:
  /// Maps [world_min, world_max] onto [v_lo, v_hi] per axis.
  WorldToVoltage(const core::Vec3& world_min, const core::Vec3& world_max,
                 double v_lo, double v_hi);

  /// Inline: the likelihood update maps every read's point.
  core::Vec3 point_to_voltage(const core::Vec3& world_point) const {
    core::Vec3 v;
    for (int d = 0; d < 3; ++d)
      v[d] = v_lo_ + (world_point[d] - world_min_[d]) * scale_[d];
    return v;
  }
  core::Vec3 sigma_to_voltage(const core::Vec3& world_sigma) const;
  core::Vec3 voltage_to_point(const core::Vec3& v) const;

  double v_lo() const { return v_lo_; }
  double v_hi() const { return v_hi_; }

 private:
  core::Vec3 world_min_;
  core::Vec3 scale_;  // volts per meter, per axis
  double v_lo_, v_hi_;
};

/// Lowers an HMGM map onto voltage-domain components for the inverter
/// array. Column weights follow Hmgm::hardware_column_weights so the
/// analog current stays proportional to the normalized density.
std::vector<circuit::VoltageComponent> compile_hmgm(
    const prob::Hmgm& hmgm, const WorldToVoltage& mapping);

/// Maps the array's achievable bump-width window [sigma_min_v, sigma_max_v]
/// back to per-axis world-unit bounds under the given mapping, for use as
/// MixtureFitOptions::sigma_floor_axes / sigma_ceiling_axes.
std::pair<core::Vec3, core::Vec3> world_sigma_bounds(
    const WorldToVoltage& mapping, double sigma_min_v, double sigma_max_v);

}  // namespace cimnav::map
