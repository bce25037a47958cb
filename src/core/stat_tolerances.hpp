// Shared statistical-equivalence tolerances.
//
// One place for every bound the repo uses to decide "these two random
// processes implement the same distribution": the backend conformance
// harness (tests/conformance/conformance.hpp), the cimsram unit tests and
// the RNG quality bench all read these constants, so a tolerance change
// is a single-line diff reviewed once instead of three drifting literals.
//
// The moment bounds are expressed in standard errors, so they scale with
// the rep count a caller chooses; the factors are sized for sweeps that
// evaluate hundreds of columns per run (a 6-sigma bound keeps the
// per-run false-positive probability negligible while still catching a
// kStddevRatioTol-sized model error within a few hundred reps).
#pragma once

namespace cimnav::core::tol {

/// Mean-equality bound: |mean_a - mean_b| <= factor * combined standard
/// error. 6 sigma: ~1e-9 per comparison, safe across per-column sweeps.
inline constexpr double kMeanStdErrFactor = 6.0;

/// Spread-equality bound on stddev_a / stddev_b: the larger of this
/// absolute tolerance and kStddevRatioSigmas standard errors of a sample
/// stddev ratio (SE ~ 1/sqrt(2 reps)). The absolute floor is the model
/// tolerance — a backend whose noise sigma drifts >10% is wrong even if
/// the rep count could not prove it; the sigma term keeps small-rep
/// sweeps from false-positive flakes.
inline constexpr double kStddevRatioTol = 0.10;
inline constexpr double kStddevRatioSigmas = 6.0;

/// Quantile-equality bound (KS-style check at fixed probabilities):
/// factor on the asymptotic standard error of a sample quantile,
/// sqrt(q(1-q)) / (pdf(Q_q) * sqrt(reps)).
inline constexpr double kQuantileStdErrFactor = 6.0;

/// SRAM-embedded RNG bit quality (test_cimsram, bench_rng_quality):
/// |bias - 1/2| of a calibrated instance, the looser bound for
/// strong-offset instances after trim, and the lag-1 autocorrelation
/// magnitude over >= 20k bits.
inline constexpr double kBitBiasTol = 0.02;
inline constexpr double kBitBiasCalibratedTol = 0.03;
inline constexpr double kAutocorrTol = 0.03;

}  // namespace cimnav::core::tol
