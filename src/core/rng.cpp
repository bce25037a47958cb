#include "core/rng.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::core {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // A theoretically possible all-zero state would lock the generator.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  CIMNAV_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CIMNAV_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal_pair() {
  // Box-Muller on (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

void Rng::normal_sigma_error() {
  CIMNAV_REQUIRE(false, "normal sigma must be non-negative");
}

void Rng::bernoulli_range_error() {
  CIMNAV_REQUIRE(false, "bernoulli p must lie in [0, 1]");
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  CIMNAV_REQUIRE(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    CIMNAV_REQUIRE(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  CIMNAV_REQUIRE(total > 0.0, "categorical needs a positive total weight");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;  // numerical fallthrough
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx;
  permutation_into(n, idx);
  return idx;
}

void Rng::permutation_into(std::size_t n, std::vector<std::size_t>& out) {
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(out[i - 1], out[j]);
  }
}

Rng Rng::split() { return Rng((*this)()); }

Rng Rng::stream(std::uint64_t root, std::uint64_t stream_id) {
  // Mix the pair through two SplitMix64 steps so adjacent stream ids land
  // on decorrelated seeds; the Rng constructor expands the result further.
  std::uint64_t s = root;
  const std::uint64_t mixed_root = splitmix64(s);
  std::uint64_t t = mixed_root + 0x9E3779B97F4A7C15ull * (stream_id + 1);
  return Rng(splitmix64(t));
}

}  // namespace cimnav::core
