#include "filter/kld.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace cimnav::filter {

void validate(const KldConfig& config) {
  CIMNAV_REQUIRE(config.epsilon > 0.0, "kld.epsilon must be positive");
  CIMNAV_REQUIRE(config.min_particles >= 1 &&
                     config.max_particles >= config.min_particles,
                 "kld particle bounds must satisfy 1 <= min <= max");
  CIMNAV_REQUIRE(config.bin_size.x > 0 && config.bin_size.y > 0 &&
                     config.bin_size.z > 0 && config.yaw_bin_rad > 0,
                 "kld bin sizes must be positive");
}

int kld_required_particles(int occupied_bins, const KldConfig& config) {
  validate(config);
  if (occupied_bins <= 1) return config.min_particles;
  // Wilson-Hilferty approximation of the chi-square quantile
  // (Fox 2001, Eq. 13): n = (k-1)/(2 eps) * [1 - 2/(9(k-1)) +
  // sqrt(2/(9(k-1))) z]^3.
  const double k1 = static_cast<double>(occupied_bins - 1);
  const double a = 2.0 / (9.0 * k1);
  const double base = 1.0 - a + std::sqrt(a) * config.z_one_minus_delta;
  const double n = k1 / (2.0 * config.epsilon) * base * base * base;
  const auto clamped = static_cast<int>(std::ceil(n));
  return std::min(std::max(clamped, config.min_particles),
                  config.max_particles);
}

namespace {

using BinKey = std::array<std::int64_t, 4>;

/// Full-width histogram bin index of one pose coordinate. Rejects a
/// non-finite coordinate, and one whose index does not fit int64 (the
/// cast would be undefined), with the reason.
std::int64_t bin_index(double v, double size) {
  CIMNAV_REQUIRE(std::isfinite(v),
                 "kld: particle pose coordinate must be finite");
  const double q = std::floor(v / size);
  // 2^63 is exact in double: q fits int64 iff -2^63 <= q < 2^63.
  constexpr double kLimit = 9223372036854775808.0;
  CIMNAV_REQUIRE(q >= -kLimit && q < kLimit,
                 "kld: particle bin index does not fit int64 (pose "
                 "coordinate too large for the bin size)");
  return static_cast<std::int64_t>(q);
}

BinKey bin_key(double x, double y, double z, double yaw,
               const KldConfig& config) {
  return {bin_index(x, config.bin_size.x), bin_index(y, config.bin_size.y),
          bin_index(z, config.bin_size.z),
          bin_index(yaw + 3.14159265358979323846, config.yaw_bin_rad)};
}

}  // namespace

int count_occupied_bins(const SoaView& cloud, const KldConfig& config) {
  validate(config);
  // Grow-only per-thread key buffer: sort + unique counts the distinct
  // full-width bin tuples without a hash set's per-node allocations.
  thread_local std::vector<BinKey> keys;
  keys.resize(cloud.count);
  for (std::size_t i = 0; i < cloud.count; ++i)
    keys[i] =
        bin_key(cloud.x[i], cloud.y[i], cloud.z[i], cloud.yaw[i], config);
  std::sort(keys.begin(), keys.end());
  return static_cast<int>(std::unique(keys.begin(), keys.end()) -
                          keys.begin());
}

}  // namespace cimnav::filter
