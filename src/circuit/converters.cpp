#include "circuit/converters.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace cimnav::circuit {
namespace {

std::uint32_t levels_for_bits(int bits) {
  CIMNAV_REQUIRE(bits >= 1 && bits <= 24, "converter bits must be in [1, 24]");
  return (std::uint32_t{1} << bits);
}

}  // namespace

Dac::Dac(int bits, double v_min, double v_max)
    : bits_(bits), levels_(levels_for_bits(bits)), v_min_(v_min), v_max_(v_max) {
  CIMNAV_REQUIRE(v_max > v_min, "DAC range must be non-empty");
}

double Dac::decode(std::uint32_t code) const {
  const std::uint32_t c = std::min(code, levels_ - 1);
  return v_min_ + (v_max_ - v_min_) * static_cast<double>(c) /
                      static_cast<double>(levels_ - 1);
}

double Dac::step() const {
  return (v_max_ - v_min_) / static_cast<double>(levels_ - 1);
}

LogAdc::LogAdc(int bits, double i_min_a, double i_max_a)
    : bits_(bits), levels_(levels_for_bits(bits)) {
  CIMNAV_REQUIRE(bits <= kMaxBits,
                 "log ADC bits must be in [1, 12]: the ADC tabulates a "
                 "threshold and a decoded log-current per code");
  CIMNAV_REQUIRE(i_min_a > 0.0, "log ADC needs a positive lower current");
  CIMNAV_REQUIRE(i_max_a > i_min_a, "log ADC range must be non-empty");
  CIMNAV_REQUIRE(std::isfinite(i_max_a), "log ADC range must be finite");
  log_min_ = std::log(i_min_a);
  log_max_ = std::log(i_max_a);

  // Threshold of code k: the smallest positive double that encode maps to
  // a code >= k, by bisection over the bit patterns of positive doubles,
  // which order as the doubles do. encode does not decrease as the
  // current grows (log, the affine map and the rounding all keep order),
  // so each threshold is at or above the last, and encode(+inf) is the
  // top code, so every search ends at or below +inf.
  const auto inf_bits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  thresholds_.resize(levels_ - 1);
  std::uint64_t lo = 1;  // denorm_min
  for (std::uint32_t k = 1; k < levels_; ++k) {
    std::uint64_t hi = inf_bits;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (encode(std::bit_cast<double>(mid)) >= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    thresholds_[k - 1] = std::bit_cast<double>(lo);
  }
  decoded_log_.resize(levels_);
  for (std::uint32_t c = 0; c < levels_; ++c) decoded_log_[c] = decode_log(c);
}

double LogAdc::decode_current(std::uint32_t code) const {
  return std::exp(decode_log(code));
}

}  // namespace cimnav::circuit
