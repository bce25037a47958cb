// Floating-gate inverter models (paper Fig. 2a-d).
//
// One *branch* is a P/N pair driven by a single input voltage V: the series
// pair conducts appreciably only when V sits between the NMOS threshold and
// V_DD minus the PMOS threshold, producing a Gaussian-like current bump
// centered where pull-up and pull-down drives balance. Series conduction is
// approximated by the harmonic composition I = 1 / (1/I_N + 1/I_P), the
// standard smooth-min surrogate for stacked devices.
//
// A *six-transistor inverter* stacks three such branches (inputs V_X, V_Y,
// V_Z). Following the paper, the multi-input current is
//
//   I_INV = 1 / (1/I_b(V_X) + 1/I_b(V_Y) + 1/I_b(V_Z)),
//
// i.e. one third of the harmonic mean of the branch currents — the "HMG"
// kernel whose level sets have rectilinear tails (Fig. 2c,d).
//
// Floating-gate programming shifts each device's threshold, which moves the
// bump center mu and scales its width sigma; `InverterProgrammer` solves the
// inverse problem (mu, sigma) -> (dVT_n, dVT_p) numerically so that mixture
// components learned in software can be compiled onto the array.
#pragma once

#include <array>

#include "circuit/mosfet.hpp"
#include "core/rng.hpp"

namespace cimnav::circuit {

/// Supply / bias conditions of the array.
struct SupplyParams {
  double vdd_v = 1.0;  ///< Supply voltage [V] (45 nm nominal)
};

/// One P/N branch with independently programmable thresholds.
class InverterBranch {
 public:
  InverterBranch(const MosfetParams& nmos, const MosfetParams& pmos,
                 const SupplyParams& supply);

  /// Programs floating-gate threshold shifts (NMOS, PMOS) in volts.
  void program(double delta_vt_n_v, double delta_vt_p_v);

  /// Adds random mismatch on top of the programmed thresholds (process
  /// variation); drawn once per device, models fixed-pattern non-ideality.
  void apply_mismatch(double sigma_vt_v, core::Rng& rng);

  /// Scales both devices' W/L (design-time sizing for amplitude control).
  void set_size_factor(double f);

  /// Branch current at input voltage v [A].
  double current(double v_in) const;

  /// Input voltage of peak conduction (numerical argmax, cached).
  double center() const;

  /// Half-width: |v - center| where current drops to exp(-1/2) of the peak
  /// (the sigma of a Gaussian with the same 60.65% width).
  double sigma() const;

  /// Peak current value [A].
  double peak_current() const;

  const SupplyParams& supply() const { return supply_; }

 private:
  void invalidate_cache();
  // Center and peak come from one golden-section search; sigma adds two
  // half-width bisections on top, so readers of center() or
  // peak_current() alone never pay for them.
  void refresh_center() const;
  void refresh_sigma() const;

  Mosfet nmos_;
  Mosfet pmos_;
  SupplyParams supply_;
  double mismatch_n_v_ = 0.0;
  double mismatch_p_v_ = 0.0;
  double programmed_n_v_ = 0.0;
  double programmed_p_v_ = 0.0;

  mutable bool center_valid_ = false;
  mutable bool sigma_valid_ = false;
  mutable double cached_center_ = 0.0;
  mutable double cached_sigma_ = 0.0;
  mutable double cached_peak_ = 0.0;
};

/// Three-branch (six-transistor) inverter: the HMG kernel cell.
class SixTransistorInverter {
 public:
  SixTransistorInverter(const MosfetParams& nmos, const MosfetParams& pmos,
                        const SupplyParams& supply);

  InverterBranch& branch(int axis);
  const InverterBranch& branch(int axis) const;

  /// I_INV for the applied input triple [A]: harmonic composition of the
  /// three branch currents (paper's 1/(1/I1 + 1/I2 + 1/I3)).
  double current(const std::array<double, 3>& v_in) const;

  /// Peak current when every input sits at its branch center.
  double peak_current() const;

 private:
  std::array<InverterBranch, 3> branches_;
};

/// Solves floating-gate programming for a requested (center, sigma) pair.
///
/// Width control: shifting V_T,n and V_T,p *together* narrows or widens the
/// conduction window symmetrically; shifting them *differentially* moves the
/// center. The programmer runs a 2-D bisection/secant search on these two
/// knobs against the measured center()/sigma() of a scratch branch.
class InverterProgrammer {
 public:
  InverterProgrammer(const MosfetParams& nmos, const MosfetParams& pmos,
                     const SupplyParams& supply);

  struct Programming {
    double delta_vt_n_v = 0.0;
    double delta_vt_p_v = 0.0;
    double achieved_center_v = 0.0;
    double achieved_sigma_v = 0.0;
  };

  /// Computes threshold shifts realizing the requested bump. `center_v`
  /// must lie inside the supply range; `sigma_v` within the achievable
  /// window (roughly [0.03, 0.25] V at the default 45 nm parameters —
  /// out-of-range requests are clamped to the closest achievable value).
  Programming solve(double center_v, double sigma_v) const;

  /// Achievable sigma range at the centered programming (diagnostics).
  std::pair<double, double> sigma_range() const;

 private:
  MosfetParams nmos_;
  MosfetParams pmos_;
  SupplyParams supply_;
};

}  // namespace cimnav::circuit
