// Deterministic, explicitly-seeded random number generation.
//
// All stochastic components of the simulator (process variation, thermal
// noise, particle sampling, dropout masks, training shuffles) draw from a
// core::Rng handed to them by the caller, so every experiment is exactly
// reproducible from its seed. The engine is xoshiro256++, a small fast
// generator with 256-bit state, implemented from the public-domain
// reference. It satisfies std::uniform_random_bit_generator so standard
// distributions work with it as well.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace cimnav::core {

namespace detail {

/// 128-layer ziggurat tables for the unnormalized normal density
/// f(x) = exp(-x²/2). Constants from Doornik, "An Improved Ziggurat Method
/// to Generate Normal Random Samples" (2005): R is the rightmost layer
/// edge, V the common area of each layer (base strip + tail included).
inline constexpr int kZigLayers = 128;
inline constexpr double kZigR = 3.442619855899;
inline constexpr double kZigV = 9.91256303526217e-3;

struct ZigguratTables {
  double x[kZigLayers + 1];  // layer edges, x[0] = V/f(R) pseudo-base
  double ratio[kZigLayers];  // x[i+1] / x[i], the no-reject threshold
  ZigguratTables();
};

const ZigguratTables& ziggurat();

}  // namespace detail

/// xoshiro256++ engine with SplitMix64 seeding.
///
/// The raw draw, uniform(), the ziggurat fast path and the Box-Muller spare
/// draw are defined inline: they sit on the per-ADC-cycle noise path of the
/// CIM macro and the per-read noise path of the likelihood array, where
/// call overhead is comparable to the work itself.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xC1A0C1A0DEADBEEFull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random bits into the mantissa: uniform on [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached spare kept for the next call).
  /// The spare draw is inline; the pair draw is out of line.
  double normal() {
    if (has_spare_normal_) {
      has_spare_normal_ = false;
      return spare_normal_;
    }
    return normal_pair();
  }

  /// Normal with given mean and standard deviation (sigma >= 0,
  /// validated out of line).
  double normal(double mean, double sigma) {
    if (!(sigma >= 0.0)) normal_sigma_error();
    return mean + sigma * normal();
  }

  /// Standard normal via a 128-layer ziggurat (Marsaglia-Tsang layout with
  /// Doornik's wedge test). Exact — same distribution as normal() — but
  /// several times faster: one raw draw and two table lookups in ~98% of
  /// calls. Consumes the raw stream differently from normal(), so mixing
  /// the two on one Rng changes the draw sequence (never the statistics).
  double normal_fast() {
    const detail::ZigguratTables& t = detail::ziggurat();
    const std::uint64_t bits = (*this)();
    const int layer = static_cast<int>(bits & (detail::kZigLayers - 1));
    // Signed uniform in [-1, 1) from the top 53 bits.
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    if (std::abs(u) < t.ratio[layer]) [[likely]]
      return u * t.x[layer];
    return normal_fast_slow(bits);
  }

  /// Ziggurat normal with given mean and standard deviation (sigma >= 0).
  double normal_fast(double mean, double sigma);

  /// Bernoulli draw with probability p of returning true. Requires
  /// p in [0, 1] (validated out of line).
  bool bernoulli(double p) {
    if (p < 0.0 || p > 1.0) bernoulli_range_error();
    return uniform() < p;
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Allocation-reusing variant: fills `out` (resized to n, capacity
  /// kept) with the same draws — and hence the same permutation — as
  /// permutation(n).
  void permutation_into(std::size_t n, std::vector<std::size_t>& out);

  /// Derives an independently-seeded child generator; useful for giving
  /// each subsystem its own stream while keeping one experiment seed.
  Rng split();

  /// Deterministic independent stream keyed by (root, stream_id). Unlike
  /// split(), this does not advance any generator: the same pair always
  /// yields the same stream, which makes parallel work reproducible at any
  /// thread count when streams are keyed on work-item indices.
  static Rng stream(std::uint64_t root, std::uint64_t stream_id);

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  /// Box-Muller pair: returns one normal and keeps the other as the spare.
  double normal_pair();

  /// Ziggurat tail / wedge handling for the ~2% of draws the inline fast
  /// path rejects; `bits` is the raw draw that failed.
  double normal_fast_slow(std::uint64_t bits);

  [[noreturn]] static void bernoulli_range_error();
  [[noreturn]] static void normal_sigma_error();

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace cimnav::core
