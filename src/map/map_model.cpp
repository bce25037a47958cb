#include "map/map_model.hpp"

#include "core/error.hpp"

namespace cimnav::map {

WorldToVoltage::WorldToVoltage(const core::Vec3& world_min,
                               const core::Vec3& world_max, double v_lo,
                               double v_hi)
    : world_min_(world_min), v_lo_(v_lo), v_hi_(v_hi) {
  CIMNAV_REQUIRE(v_hi > v_lo, "voltage window must be non-empty");
  for (int d = 0; d < 3; ++d) {
    CIMNAV_REQUIRE(world_max[d] > world_min[d], "world bounds must be ordered");
    scale_[d] = (v_hi - v_lo) / (world_max[d] - world_min[d]);
  }
}

core::Vec3 WorldToVoltage::sigma_to_voltage(const core::Vec3& s) const {
  core::Vec3 v;
  for (int d = 0; d < 3; ++d) v[d] = s[d] * scale_[d];
  return v;
}

core::Vec3 WorldToVoltage::voltage_to_point(const core::Vec3& v) const {
  core::Vec3 p;
  for (int d = 0; d < 3; ++d) p[d] = world_min_[d] + (v[d] - v_lo_) / scale_[d];
  return p;
}

std::vector<circuit::VoltageComponent> compile_hmgm(
    const prob::Hmgm& hmgm, const WorldToVoltage& mapping) {
  const std::vector<double> col_w = hmgm.hardware_column_weights();
  std::vector<circuit::VoltageComponent> out;
  out.reserve(hmgm.components().size());
  for (std::size_t k = 0; k < hmgm.components().size(); ++k) {
    const auto& c = hmgm.components()[k];
    circuit::VoltageComponent vc;
    vc.center_v = mapping.point_to_voltage(c.mean);
    vc.sigma_v = mapping.sigma_to_voltage(c.sigma);
    vc.weight = col_w[k];
    out.push_back(vc);
  }
  return out;
}

std::pair<core::Vec3, core::Vec3> world_sigma_bounds(
    const WorldToVoltage& mapping, double sigma_min_v, double sigma_max_v) {
  CIMNAV_REQUIRE(sigma_min_v > 0.0 && sigma_max_v > sigma_min_v,
                 "sigma window must be ordered and positive");
  // sigma_to_voltage is linear per axis; invert by probing unit sigmas.
  const core::Vec3 scale = mapping.sigma_to_voltage({1.0, 1.0, 1.0});
  core::Vec3 lo, hi;
  for (int d = 0; d < 3; ++d) {
    lo[d] = sigma_min_v / scale[d];
    hi[d] = sigma_max_v / scale[d];
  }
  return {lo, hi};
}

}  // namespace cimnav::map
