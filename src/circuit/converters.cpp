#include "circuit/converters.hpp"

#include <algorithm>
#include <cmath>

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
  CIMNAV_REQUIRE(i_min_a > 0.0, "log ADC needs a positive lower current");
  CIMNAV_REQUIRE(i_max_a > i_min_a, "log ADC range must be non-empty");
  log_min_ = std::log(i_min_a);
  log_max_ = std::log(i_max_a);
}

double LogAdc::decode_current(std::uint32_t code) const {
  return std::exp(decode_log(code));
}

}  // namespace cimnav::circuit
