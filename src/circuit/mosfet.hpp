// Compact MOSFET model for the floating-gate inverter simulator.
//
// The paper's co-design leans on one device-physics fact: the switching
// (short-circuit) current of a CMOS inverter is a Gaussian-like bump in its
// input voltage, peaked where pull-up and pull-down conduct equally. To
// reproduce that shape faithfully across sub- and strong-inversion we use an
// EKV-style interpolation,
//
//   I_D(V_GS) = I_spec * ln(1 + exp((V_GS - V_T) / (2 n V_t)))^2
//
// which tends to the exponential subthreshold law for V_GS << V_T and to the
// square law ~ (V_GS - V_T)^2 / (2 n V_t)^2 above threshold, with a smooth
// C-infinity transition. Saturation is assumed (the inverter output sits
// mid-rail during evaluation); channel-length modulation is ignored because
// the co-design only exploits the V_GS dependence.
#pragma once

namespace cimnav::circuit {

/// Physical/sizing parameters of one transistor in the 45 nm inverter array.
/// Plain data: no invariant beyond positivity checks at use sites.
struct MosfetParams {
  double i_spec_a = 4.0e-7;   ///< Specific current I_spec = 2 n mu Cox (W/L) V_t^2 [A]
  double vt0_v = 0.35;        ///< Intrinsic threshold voltage magnitude [V]
  double n_slope = 1.35;      ///< Subthreshold slope factor (dimensionless)
  double thermal_vt_v = 0.0258;  ///< Thermal voltage kT/q at 300 K [V]
  double size_factor = 1.0;   ///< W/L multiplier applied to i_spec_a
};

/// One MOS device with an optional floating-gate threshold shift.
///
/// The charge-trap floating gate programs an effective threshold
/// V_T = vt0 + delta_vt; positive delta weakens the device. The model is
/// symmetric for NMOS and PMOS: callers pass the *overdrive-defining* gate
/// voltage (V_GS for NMOS, V_SG for PMOS), so a single class serves both.
class Mosfet {
 public:
  explicit Mosfet(const MosfetParams& p);

  /// Programs the floating-gate threshold shift in volts.
  void set_delta_vt(double delta_vt_v) { delta_vt_v_ = delta_vt_v; }
  double delta_vt() const { return delta_vt_v_; }

  /// Design-time W/L re-sizing (amplitude knob). Requires f > 0.
  void set_size_factor(double f);

  /// Effective threshold after programming.
  double effective_vt() const;

  /// Saturation drain current for the given effective gate drive [A].
  /// `v_gs` is V_GS for NMOS or V_SG for PMOS (both positive-on).
  double drain_current(double v_gs) const;

  const MosfetParams& params() const { return params_; }

 private:
  MosfetParams params_;
  double delta_vt_v_ = 0.0;
};

}  // namespace cimnav::circuit
