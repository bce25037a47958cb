// Data converter models at the analog/digital boundary of the CIM arrays.
//
// The paper's likelihood pipeline is: digital coordinates -> DAC -> analog
// inverter array -> summed current -> logarithmic ADC -> digital
// log-likelihood. Converters dominate the precision budget, so they are
// modeled explicitly: uniform quantization for the DAC and linear ADC, and
// log-domain companding for the log ADC (which is what makes a 4-bit
// conversion usable on a quantity spanning decades).
#pragma once

#include <cstdint>

namespace cimnav::circuit {

/// Uniform digital-to-analog converter over [v_min, v_max].
class Dac {
 public:
  Dac(int bits, double v_min, double v_max);

  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }

  /// Nearest-code quantization of an analog target [V] (clamps to range;
  /// NaN maps to code 0).
  std::uint32_t encode(double v) const;

  /// Output voltage for a code.
  double decode(std::uint32_t code) const;

  /// Convenience: encode-then-decode (the voltage actually applied).
  double quantize(double v) const { return decode(encode(v)); }

  /// LSB step size [V].
  double step() const;

 private:
  int bits_;
  std::uint32_t levels_;
  double v_min_, v_max_;
};

/// Uniform analog-to-digital converter over [x_min, x_max].
class LinearAdc {
 public:
  LinearAdc(int bits, double x_min, double x_max);

  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }
  std::uint32_t encode(double x) const;
  double decode(std::uint32_t code) const;
  double quantize(double x) const { return decode(encode(x)); }

 private:
  int bits_;
  std::uint32_t levels_;
  double x_min_, x_max_;
};

/// Logarithmic ADC for currents spanning [i_min, i_max] (both > 0).
/// Codes are uniform in log(i); decode returns the *logarithm* of the
/// current (natural log), which is exactly the quantity the particle filter
/// accumulates as log-likelihood.
class LogAdc {
 public:
  LogAdc(int bits, double i_min_a, double i_max_a);

  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }

  /// Code for a current; currents at or below i_min clamp to code 0.
  std::uint32_t encode(double i_a) const;

  /// Natural log of the reconstructed current for a code.
  double decode_log(std::uint32_t code) const;

  /// Reconstructed current [A].
  double decode_current(std::uint32_t code) const;

  /// encode + decode_log in one step: the digital log-current reading.
  double read_log(double i_a) const { return decode_log(encode(i_a)); }

  double log_i_min() const { return log_min_; }
  double log_i_max() const { return log_max_; }

 private:
  int bits_;
  std::uint32_t levels_;
  double log_min_, log_max_;
};

}  // namespace cimnav::circuit
