// Inverter-array likelihood engine (paper Fig. 2a).
//
// A bank of six-transistor inverter columns shares three analog input lines
// (V_X, V_Y, V_Z). Each column is floating-gate-programmed to one mixture
// component: its branch centers realize the component mean and its branch
// widths the per-axis sigma, both in the voltage domain. Component weights
// are realized by *column replication* — a component with twice the weight
// drives twice the columns — so the total bit-line current is proportional
// to the mixture sum by Kirchhoff's law. A logarithmic ADC digitizes the
// summed current directly into a log-likelihood reading.
//
// Non-idealities modeled: DAC quantization of the inputs (shared across all
// columns), per-device threshold mismatch (optionally compensated by
// program-and-verify), shot/thermal read noise, and log-ADC quantization.
//
// Performance note: because inputs pass through a DAC, each branch sees at
// most 2^dac_bits distinct voltages, so branch responses are tabulated at
// programming time from the *mismatched* devices (a faithful tabulation of
// the analog behavior, not an idealization). The tables hold reciprocals in
// structure-of-arrays form, inv[axis][code * columns + col] = 1 / I_branch,
// with +inf for a non-conducting branch, so one read walks three contiguous
// rows and does one divide per column. The batched kernel interleaves a
// fixed group of independent reads, each still summed serially in column
// order, which keeps every reading bit-identical to the per-column formula.
//
// An ideal current depends only on the read's DAC code triple, packed into
// a code-cube key (code_key), and every read goes through that key:
// ideal_currents_by_key computes the column sums of a batch of keys,
// read_log applies noise and the log-ADC per logical read, and
// record_reads books those reads. The particle filter's whole update
// (filter::CimHmgmLikelihood::log_likelihoods) needs one ideal current per
// distinct key, and takes it from the array's ideal-current cache when an
// earlier update computed it: a fixed set-associative (key, current) cache
// allocated at construction (lookup_cached_currents, cache_currents). The
// device tables never change after programming, so a cached current is
// the kernel's bits for its key and never goes stale. The per-pose path,
// read_log_likelihood and the gain calibration compute every read.
// evaluation_count() counts logical reads for the energy ledger;
// ideal_current_count() counts the column sums actually computed (see
// docs/architecture.md, "The likelihood read").
#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <vector>

#include "circuit/converters.hpp"
#include "circuit/inverter.hpp"
#include "circuit/noise.hpp"
#include "core/rng.hpp"
#include "core/vec.hpp"

namespace cimnav::circuit {

/// One mixture component expressed in the voltage domain.
struct VoltageComponent {
  core::Vec3 center_v;  ///< Bump centers per axis [V]
  core::Vec3 sigma_v;   ///< Bump widths per axis [V]
  double weight = 1.0;  ///< Non-negative mixture weight
};

/// Static configuration of a likelihood array.
struct LikelihoodArrayConfig {
  int total_columns = 500;  ///< Hardware columns available
  int dac_bits = 4;         ///< Input DAC resolution
  int adc_bits = 4;         ///< Log-ADC resolution, in [1, LogAdc::kMaxBits]
  double vdd_v = 1.0;
  /// Usable input window [v_margin, vdd - v_margin]; the extreme codes sit
  /// away from the rails where the devices shut off entirely.
  double v_margin_v = 0.05;
  /// Target per-column peak current [A], finite and positive; columns
  /// are sized to hit this.
  double peak_current_a = 1.0e-6;
  /// Threshold-voltage mismatch sigma per device [V].
  double mismatch_sigma_vt_v = 0.02;
  /// Iteratively re-trim programming against the mismatched devices.
  bool program_verify = true;
  NoiseParams noise;
  MosfetParams nmos;
  MosfetParams pmos;
  /// Log-ADC range as fractions of (total peak current). The lower bound
  /// sets the likelihood floor; decades below peak, in (0, 1).
  double adc_floor_fraction = 1.0e-6;
};

/// Compiled, programmed inverter array evaluating mixture likelihoods.
class CimLikelihoodArray {
 public:
  /// Programs the array for the given components. Columns are allocated to
  /// components proportionally to weight (largest-remainder rounding, at
  /// least one column per component). Throws if there are more components
  /// than columns, dac_bits lies outside [1, kMaxDacBits], adc_bits
  /// outside [1, LogAdc::kMaxBits], peak_current_a is not finite and
  /// positive, or adc_floor_fraction lies outside (0, 1).
  CimLikelihoodArray(const LikelihoodArrayConfig& config,
                     const std::vector<VoltageComponent>& components,
                     core::Rng& rng);

  /// Widest accepted DAC: a read's code triple packs into a
  /// 3 * dac_bits-bit key, and shared updates keep an occupancy bitmap of
  /// 2^(3 * dac_bits) bits over that code cube.
  static constexpr int kMaxDacBits = 8;

  /// Code-cube key of a point: its three DAC codes packed x-major,
  /// (cx << 2b) | (cy << b) | cz for b = dac_bits, in [0, key_count()).
  /// Inputs are DAC-quantized exactly as the hardware would. Inline: the
  /// likelihood update keys every read.
  std::uint32_t code_key(const core::Vec3& point_v) const {
    const int b = dac_.bits();
    return (dac_.encode(point_v.x) << (2 * b)) |
           (dac_.encode(point_v.y) << b) | dac_.encode(point_v.z);
  }

  /// Number of code-cube keys, 2^(3 * dac_bits).
  std::uint32_t key_count() const {
    return std::uint32_t{1} << (3 * dac_.bits());
  }

  /// Ideal (noise-free) summed currents by code-cube key [A]: out[i] for
  /// keys[i], each summed serially in column order. Advances
  /// ideal_current_count() by keys.size() but not evaluation_count(): the
  /// caller books the logical reads sharing these currents with
  /// record_reads. Thread-safe: concurrent batches may read one array.
  void ideal_currents_by_key(std::span<const std::uint32_t> keys,
                             std::span<double> out) const;

  /// Ideal-current cache geometry: kCacheSets sets of kCacheWays
  /// (key, current) ways, capped at key_count() entries for narrow DACs.
  static constexpr std::size_t kCacheSets = 8192;
  static constexpr std::size_t kCacheWays = 4;

  /// Entries the ideal-current cache holds:
  /// min(kCacheSets * kCacheWays, key_count()).
  std::size_t cache_capacity() const { return cache_keys_.size(); }

  /// Marks a cache miss in lookup_cached_currents' output. No ideal
  /// current is negative: each is a sum of non-negative column currents.
  static constexpr double kMissingCurrent = -1.0;

  /// Looks up keys in the ideal-current cache under a shared lock on the
  /// array's mutex, so concurrent lookups do not wait for each other.
  /// A hit's current, the bits ideal_currents_by_key computed for that
  /// key, goes to out[i]; a miss sets out[i] to kMissingCurrent. Returns
  /// the miss count. Lookups do not reorder the cache and advance no
  /// counter. Needs out.size() equal to keys.size().
  std::size_t lookup_cached_currents(std::span<const std::uint32_t> keys,
                                     std::span<double> out) const;

  /// Inserts (keys[i], currents[i]) in order under an exclusive lock,
  /// skipping a key already cached (another thread may have inserted it
  /// since its lookup). Each insert shifts its set's ways down one slot,
  /// dropping the oldest, and puts the new entry first. The currents
  /// must come from ideal_currents_by_key.
  void cache_currents(std::span<const std::uint32_t> keys,
                      std::span<const double> currents) const;

  /// Noise + log-ADC of one read whose ideal current is `ideal_a` [A],
  /// one draw from `rng`: the digital log-current reading (natural log
  /// of amps), a pose-independent affine transform of the mixture
  /// log-likelihood.
  double read_log(double ideal_a, core::Rng& rng) const {
    return adc_.read_log(noisy_current(ideal_a, config_.noise, rng));
  }

  /// Books `n` logical reads on evaluation_count() whose ideal currents
  /// came from ideal_currents_by_key.
  void record_reads(std::uint64_t n) const {
    evaluations_.fetch_add(n, std::memory_order_relaxed);
  }

  /// One read through the whole pipeline, DAC -> array -> noise -> log
  /// ADC: code_key, ideal_currents_by_key, read_log, record_reads.
  double read_log_likelihood(const core::Vec3& point_v, core::Rng& rng) const;

  int column_count() const { return config_.total_columns; }
  const std::vector<int>& columns_per_component() const {
    return columns_per_component_;
  }
  const Dac& dac() const { return dac_; }
  const LogAdc& adc() const { return adc_; }
  const LikelihoodArrayConfig& config() const { return config_; }

  /// Logical reads since construction (for energy accounting).
  std::uint64_t evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// Ideal currents actually computed (one column sum each) since
  /// construction. Equal to evaluation_count() when every read computes
  /// its own; below it once reads share currents within an update or take
  /// them from the ideal-current cache.
  std::uint64_t ideal_current_count() const {
    return ideal_currents_.load(std::memory_order_relaxed);
  }

 private:
  LikelihoodArrayConfig config_;
  Dac dac_;
  LogAdc adc_;
  // Reciprocal branch currents per axis,
  // inv_[axis][code * column_count() + col]; +inf where the branch does not
  // conduct.
  std::array<std::vector<double>, 3> inv_;
  std::vector<int> columns_per_component_;
  // Atomic: particle-block workers read one array concurrently. Advanced
  // once per batch, by the batch size.
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> ideal_currents_{0};
  // Ideal-current cache, way w of set s at s * kCacheWays + w; an unused
  // way holds kNoKey. Guarded by cache_mutex_.
  static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};
  int cache_shift_ = 0;
  // First way of the key's set: a multiplicative (golden-ratio) hash's
  // top log2(sets) bits pick the set.
  std::size_t cache_base(std::uint32_t key) const {
    return static_cast<std::size_t>((key * std::uint32_t{0x9E3779B9u}) >>
                                    cache_shift_) *
           kCacheWays;
  }
  // Shared by lookups, exclusive for inserts.
  mutable std::shared_mutex cache_mutex_;
  mutable std::vector<std::uint32_t> cache_keys_;
  mutable std::vector<double> cache_currents_;
};

/// Allocates `total` columns across components proportionally to weights
/// using the largest-remainder method; every component receives >= 1.
/// Exposed for testing.
std::vector<int> allocate_columns(const std::vector<double>& weights,
                                  int total);

}  // namespace cimnav::circuit
