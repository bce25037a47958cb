// Data converter models at the analog/digital boundary of the CIM arrays.
//
// The paper's likelihood pipeline is: digital coordinates -> DAC -> analog
// inverter array -> summed current -> logarithmic ADC -> digital
// log-likelihood. Converters dominate the precision budget, so they are
// modeled explicitly: uniform quantization for the DAC and log-domain
// companding for the log ADC (which is what makes a 4-bit conversion usable
// on a quantity spanning decades).
//
// The converters are defined inline: every likelihood read runs three DAC
// encodes and one log-ADC conversion, where a call costs as much as the
// arithmetic. The log-ADC conversion runs no libm `log`: LogAdc tabulates,
// at construction, the smallest current reaching each code and each code's
// decoded log-current, so a read is a branch-free binary search over the
// thresholds and one load, bit-identical to decode_log(encode(i)) because
// encode does not decrease as the current grows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cimnav::circuit {

namespace detail {

/// Nearest code to a fractional code index, rounding halves up (the same
/// code as std::lround): clamps to [0, levels - 1], with NaN to code 0,
/// since codes index tables and the likelihood array's code-cube bitmap.
/// Branch-free and exact: the clamped index c is below 2^24, so truncation
/// gives floor(c), and c - floor(c) is the exact fraction.
inline std::uint32_t clamp_code(double idx, std::uint32_t levels) {
  // std::max(0.0, NaN) is 0.0.
  const double c =
      std::min(std::max(0.0, idx), static_cast<double>(levels - 1));
  const auto t = static_cast<std::uint32_t>(c);
  return t + static_cast<std::uint32_t>(c - static_cast<double>(t) >= 0.5);
}

}  // namespace detail

/// Uniform digital-to-analog converter over [v_min, v_max].
class Dac {
 public:
  Dac(int bits, double v_min, double v_max);

  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }

  /// Nearest-code quantization of an analog target [V] (clamps to range;
  /// NaN maps to code 0).
  std::uint32_t encode(double v) const {
    const double t = (v - v_min_) / (v_max_ - v_min_);
    return detail::clamp_code(t * static_cast<double>(levels_ - 1), levels_);
  }

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

/// Logarithmic ADC for currents spanning [i_min, i_max] (both > 0).
/// Codes are uniform in log(i); decode returns the *logarithm* of the
/// current (natural log), which is exactly the quantity the particle filter
/// accumulates as log-likelihood.
class LogAdc {
 public:
  /// Widest accepted ADC: construction tabulates 2^bits - 1 code
  /// thresholds, each found by ~64 encode calls, and 2^bits decoded
  /// log-currents.
  static constexpr int kMaxBits = 12;

  /// Throws unless bits lies in [1, kMaxBits], 0 < i_min_a < i_max_a and
  /// i_max_a is finite.
  LogAdc(int bits, double i_min_a, double i_max_a);

  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }

  /// Code for a current; currents at or below i_min clamp to code 0, and
  /// so do NaN, -0 and negative currents. The reference that read_log's
  /// tables are built from.
  std::uint32_t encode(double i_a) const {
    if (i_a <= 0.0) return 0;
    const double t = (std::log(i_a) - log_min_) / (log_max_ - log_min_);
    return detail::clamp_code(t * static_cast<double>(levels_ - 1), levels_);
  }

  /// Natural log of the reconstructed current for a code.
  double decode_log(std::uint32_t code) const {
    const std::uint32_t c = std::min(code, levels_ - 1);
    return log_min_ + (log_max_ - log_min_) * static_cast<double>(c) /
                          static_cast<double>(levels_ - 1);
  }

  /// Reconstructed current [A].
  double decode_current(std::uint32_t code) const;

  /// decode_log(encode(i_a)), bit for bit: the digital log-current
  /// reading. The code is the number of thresholds at or below i_a, found
  /// by a branch-free binary search; a NaN compares false everywhere and
  /// so reads code 0, as encode gives it.
  double read_log(double i_a) const {
    const double* const t = thresholds_.data();
    std::uint32_t c = 0;
    for (std::uint32_t step = levels_ >> 1; step != 0; step >>= 1)
      c += (t[c + step - 1] <= i_a) ? step : 0;
    return decoded_log_[c];
  }

  /// Smallest positive current encode maps to a code >= k, at [k - 1]
  /// for k in [1, levels()).
  const std::vector<double>& thresholds() const { return thresholds_; }

  double log_i_min() const { return log_min_; }
  double log_i_max() const { return log_max_; }

 private:
  int bits_;
  std::uint32_t levels_;
  double log_min_, log_max_;
  std::vector<double> thresholds_;   // levels - 1 code thresholds [A]
  std::vector<double> decoded_log_;  // decode_log(c) for every code c
};

}  // namespace cimnav::circuit
