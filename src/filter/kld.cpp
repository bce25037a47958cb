#include "filter/kld.hpp"

#include <algorithm>
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

/// Packs one pose's four signed 16-bit bin indices into one key.
std::uint64_t bin_key(double x, double y, double z, double yaw,
                      const KldConfig& config) {
  const auto qx = static_cast<std::int64_t>(std::floor(x / config.bin_size.x));
  const auto qy = static_cast<std::int64_t>(std::floor(y / config.bin_size.y));
  const auto qz = static_cast<std::int64_t>(std::floor(z / config.bin_size.z));
  const auto qw = static_cast<std::int64_t>(
      std::floor((yaw + 3.14159265358979323846) / config.yaw_bin_rad));
  const auto pack = [](std::int64_t v) {
    return static_cast<std::uint64_t>((v + 32768) & 0xFFFF);
  };
  return pack(qx) | (pack(qy) << 16) | (pack(qz) << 32) | (pack(qw) << 48);
}

}  // namespace

int count_occupied_bins(const SoaView& cloud, const KldConfig& config) {
  validate(config);
  // Grow-only per-thread key buffer: sort + unique counts the distinct
  // bins without a hash set's per-node allocations.
  thread_local std::vector<std::uint64_t> keys;
  keys.resize(cloud.count);
  for (std::size_t i = 0; i < cloud.count; ++i)
    keys[i] =
        bin_key(cloud.x[i], cloud.y[i], cloud.z[i], cloud.yaw[i], config);
  std::sort(keys.begin(), keys.end());
  return static_cast<int>(std::unique(keys.begin(), keys.end()) -
                          keys.begin());
}

}  // namespace cimnav::filter
