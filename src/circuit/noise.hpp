// Read-out noise model for analog current summation.
//
// Two contributions matter at the bit line: shot noise of the aggregated
// DC current (variance proportional to I) and a thermal/readout floor
// (variance independent of I). Both scale with the measurement bandwidth;
// we fold bandwidth into the coefficients so callers think in terms of one
// evaluation window.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace cimnav::circuit {

/// Parameters of the additive current-noise model
///   sigma_I^2 = shot_coeff_a * I + thermal_floor_a^2.
struct NoiseParams {
  bool enabled = true;
  /// Shot-noise coefficient [A]: 2 q Δf expressed as an equivalent current
  /// scale. At Δf = 1 GHz, 2qΔf ≈ 3.2e-10 A; we default slightly higher to
  /// absorb flicker contributions.
  double shot_coeff_a = 5.0e-10;
  /// Thermal/readout noise floor standard deviation [A].
  double thermal_floor_a = 2.0e-9;
};

/// Applies one noisy read of a DC current [A]; never returns negative.
/// Inline: it runs once per likelihood read.
inline double noisy_current(double i_a, const NoiseParams& p,
                            core::Rng& rng) {
  CIMNAV_REQUIRE(i_a >= 0.0, "current must be non-negative");
  if (!p.enabled) return i_a;
  const double variance =
      p.shot_coeff_a * i_a + p.thermal_floor_a * p.thermal_floor_a;
  const double noisy = i_a + rng.normal(0.0, std::sqrt(variance));
  return std::max(noisy, 0.0);
}

}  // namespace cimnav::circuit
