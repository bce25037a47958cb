// Shared statistical tolerances of the SRAM-embedded RNG.
//
// One place for the bounds that decide whether a bit source is good
// enough for dropout masks: the cimsram unit tests and the RNG quality
// bench both read these constants, so a tolerance change is a
// single-line diff reviewed once instead of drifting literals.
#pragma once

namespace cimnav::core::tol {

/// SRAM-embedded RNG bit quality (test_cimsram, bench_rng_quality):
/// |bias - 1/2| of a calibrated instance, the looser bound for
/// strong-offset instances after trim, and the lag-1 autocorrelation
/// magnitude over >= 20k bits.
inline constexpr double kBitBiasTol = 0.02;
inline constexpr double kBitBiasCalibratedTol = 0.03;
inline constexpr double kAutocorrTol = 0.03;

}  // namespace cimnav::core::tol
