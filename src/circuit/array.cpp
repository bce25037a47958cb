#include "circuit/array.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>

#include "core/error.hpp"

namespace cimnav::circuit {

std::vector<int> allocate_columns(const std::vector<double>& weights,
                                  int total) {
  CIMNAV_REQUIRE(!weights.empty(), "need at least one component");
  CIMNAV_REQUIRE(total >= static_cast<int>(weights.size()),
                 "need at least one column per component");
  double sum = 0.0;
  for (double w : weights) {
    CIMNAV_REQUIRE(w >= 0.0, "weights must be non-negative");
    sum += w;
  }
  CIMNAV_REQUIRE(sum > 0.0, "total weight must be positive");

  const int n = static_cast<int>(weights.size());
  std::vector<int> alloc(static_cast<std::size_t>(n), 1);  // floor of one column each
  int remaining = total - n;
  // Ideal fractional share beyond the guaranteed 1.
  std::vector<double> share(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    share[static_cast<std::size_t>(i)] =
        weights[static_cast<std::size_t>(i)] / sum * static_cast<double>(remaining);
  std::vector<double> remainder(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int fl = static_cast<int>(share[static_cast<std::size_t>(i)]);
    alloc[static_cast<std::size_t>(i)] += fl;
    remaining -= fl;
    remainder[static_cast<std::size_t>(i)] =
        share[static_cast<std::size_t>(i)] - static_cast<double>(fl);
  }
  // Hand out the leftovers to the largest remainders.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return remainder[static_cast<std::size_t>(a)] >
           remainder[static_cast<std::size_t>(b)];
  });
  for (int i = 0; remaining > 0; ++i, --remaining)
    ++alloc[static_cast<std::size_t>(order[static_cast<std::size_t>(i % n)])];
  return alloc;
}

namespace {

/// Program-and-verify: trims the branch against its own mismatched devices
/// so the achieved center/sigma track the targets. First-order updates —
/// center responds ~1:1 to the differential knob, sigma ~ -0.5:1 to the
/// common-mode knob.
void trim_branch(InverterBranch& branch, double base_dn, double base_dp,
                 double target_center, double target_sigma, int iterations) {
  double s = 0.5 * (base_dn + base_dp);
  double d = 0.5 * (base_dn - base_dp);
  branch.program(s + d, s - d);
  for (int it = 0; it < iterations; ++it) {
    const double ec = branch.center() - target_center;
    const double es = branch.sigma() - target_sigma;
    d -= ec;          // center moves ~1:1 with d
    s += es * 2.0;    // sigma shrinks ~0.5 V/V as s grows
    s = std::clamp(s, -0.3, 0.5);
    d = std::clamp(d, -0.7, 0.7);
    branch.program(s + d, s - d);
  }
}

// Rejects a DAC too wide for the code cube before any member sizes a
// table from it: 2^(3 * dac_bits) keys, and 3 * 2^dac_bits * columns
// table entries. Rejects an ADC the log-ADC cannot tabulate, naming the
// field, before LogAdc sees the range derived from it. Rejects read-noise
// parameters that would give a read a NaN or negative sigma: that read
// throws only later, mid-update, inside a pool worker.
const LikelihoodArrayConfig& checked(const LikelihoodArrayConfig& config) {
  CIMNAV_REQUIRE(config.dac_bits >= 1 &&
                     config.dac_bits <= CimLikelihoodArray::kMaxDacBits,
                 "dac_bits must lie in [1, 8]: a read's code triple keys a "
                 "2^(3 * dac_bits)-bit code-cube bitmap");
  CIMNAV_REQUIRE(config.adc_bits >= 1 && config.adc_bits <= LogAdc::kMaxBits,
                 "adc_bits must lie in [1, 12]: the log ADC tabulates a "
                 "threshold and a decoded log-current per code");
  CIMNAV_REQUIRE(std::isfinite(config.peak_current_a) &&
                     config.peak_current_a > 0.0,
                 "peak_current_a must be finite and positive");
  CIMNAV_REQUIRE(config.adc_floor_fraction > 0.0 &&
                     config.adc_floor_fraction < 1.0,
                 "adc_floor_fraction must lie in (0, 1)");
  CIMNAV_REQUIRE(std::isfinite(config.noise.shot_coeff_a) &&
                     config.noise.shot_coeff_a >= 0.0,
                 "noise.shot_coeff_a must be finite and non-negative");
  CIMNAV_REQUIRE(std::isfinite(config.noise.thermal_floor_a) &&
                     config.noise.thermal_floor_a >= 0.0,
                 "noise.thermal_floor_a must be finite and non-negative");
  return config;
}

}  // namespace

CimLikelihoodArray::CimLikelihoodArray(
    const LikelihoodArrayConfig& config,
    const std::vector<VoltageComponent>& components, core::Rng& rng)
    : config_(checked(config)),
      dac_(config.dac_bits, config.v_margin_v, config.vdd_v - config.v_margin_v),
      adc_(config.adc_bits,
           config.peak_current_a * static_cast<double>(config.total_columns) *
               config.adc_floor_fraction,
           config.peak_current_a * static_cast<double>(config.total_columns)) {
  CIMNAV_REQUIRE(!components.empty(), "need at least one component");
  CIMNAV_REQUIRE(config.total_columns >= static_cast<int>(components.size()),
                 "more components than columns");
  CIMNAV_REQUIRE(config.v_margin_v >= 0.0 &&
                     2.0 * config.v_margin_v < config.vdd_v,
                 "margin leaves no usable window");

  std::vector<double> weights;
  weights.reserve(components.size());
  for (const auto& c : components) weights.push_back(c.weight);
  columns_per_component_ = allocate_columns(weights, config.total_columns);

  const SupplyParams supply{config.vdd_v};
  const InverterProgrammer programmer(config.nmos, config.pmos, supply);
  const std::size_t cols = static_cast<std::size_t>(config.total_columns);
  for (auto& table : inv_) table.resize(dac_.levels() * cols);

  std::size_t col = 0;
  for (std::size_t k = 0; k < components.size(); ++k) {
    const auto& comp = components[k];
    // Solve programming once per component on ideal devices...
    std::array<InverterProgrammer::Programming, 3> prog;
    for (int axis = 0; axis < 3; ++axis) {
      const double mu = core::clamp(comp.center_v[axis], config.v_margin_v,
                                    config.vdd_v - config.v_margin_v);
      const double sg = std::max(comp.sigma_v[axis], 1e-3);
      prog[static_cast<std::size_t>(axis)] = programmer.solve(mu, sg);
    }
    // ...then instantiate each replicated column with its own mismatch.
    for (int rep = 0; rep < columns_per_component_[k]; ++rep, ++col) {
      SixTransistorInverter inv(config.nmos, config.pmos, supply);
      for (int axis = 0; axis < 3; ++axis) {
        auto& branch = inv.branch(axis);
        const auto& p = prog[static_cast<std::size_t>(axis)];
        branch.apply_mismatch(config.mismatch_sigma_vt_v, rng);
        branch.program(p.delta_vt_n_v, p.delta_vt_p_v);
        if (config.program_verify) {
          trim_branch(branch, p.delta_vt_n_v, p.delta_vt_p_v,
                      p.achieved_center_v, p.achieved_sigma_v, 3);
        }
        // Size the branch so its peak current hits the target: equal peaks
        // make column replication an exact weight encoding.
        const double peak = branch.peak_current();
        if (peak > 0.0)
          branch.set_size_factor(config.peak_current_a * 3.0 / peak);
        // (factor 3: three series branches harmonically combine to ~1/3.)
      }
      // Tabulate the column's reciprocal branch currents over all DAC
      // codes. A non-conducting branch (current 0) is +inf: it makes the
      // column's harmonic sum +inf and its current 1/inf = +0.
      for (int axis = 0; axis < 3; ++axis) {
        auto& table = inv_[static_cast<std::size_t>(axis)];
        for (std::uint32_t code = 0; code < dac_.levels(); ++code) {
          const double i = inv.branch(axis).current(dac_.decode(code));
          table[code * cols + col] =
              i <= 0.0 ? std::numeric_limits<double>::infinity() : 1.0 / i;
        }
      }
    }
  }

  const std::size_t sets =
      std::min<std::size_t>(kCacheSets, key_count() / kCacheWays);
  cache_shift_ = 32 - std::countr_zero(sets);
  cache_keys_.assign(sets * kCacheWays, kNoKey);
  cache_currents_.assign(sets * kCacheWays, 0.0);
}

namespace {

// Reads evaluated together by the batched kernel. Each read keeps its own
// serial column-order sum; interleaving them only overlaps independent
// divide/add chains, so the group size changes speed, never results. A
// batch runs in groups of 8, and its tail in one group each of 4, 2 and 1
// as needed: a lone read leaves the divider mostly idle.
constexpr std::size_t kInterleavedReads = 8;

// Ideal currents of the L reads keyed keys[0..L) over reciprocal tables
// of `cols` columns and b-bit codes. Per column, (1/Ix + 1/Iy) + 1/Iz is
// the harmonic sum in the axis order of the per-column formula, and the
// column terms are summed in column order: bit-identical to summing each
// column's 1 / (1/Ix + 1/Iy + 1/Iz).
template <std::size_t L>
void read_interleaved(const std::array<std::vector<double>, 3>& inv,
                      std::size_t cols, int b, const std::uint32_t* keys,
                      double* out) {
  const std::uint32_t mask = (std::uint32_t{1} << b) - 1;
  std::array<const double*, L> ix{}, iy{}, iz{};
  for (std::size_t k = 0; k < L; ++k) {
    ix[k] = inv[0].data() + ((keys[k] >> (2 * b)) & mask) * cols;
    iy[k] = inv[1].data() + ((keys[k] >> b) & mask) * cols;
    iz[k] = inv[2].data() + (keys[k] & mask) * cols;
  }
  std::array<double, L> total{};
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < L; ++k)
      total[k] += 1.0 / (ix[k][c] + iy[k][c] + iz[k][c]);
  for (std::size_t k = 0; k < L; ++k) out[k] = total[k];
}

}  // namespace

void CimLikelihoodArray::ideal_currents_by_key(
    std::span<const std::uint32_t> keys, std::span<double> out) const {
  CIMNAV_REQUIRE(out.size() == keys.size(),
                 "ideal_currents_by_key: output size must match the key count");
  const auto cols = static_cast<std::size_t>(config_.total_columns);
  const int b = dac_.bits();
  const std::size_t n = keys.size();
  std::size_t i = 0;
  for (; i + kInterleavedReads <= n; i += kInterleavedReads)
    read_interleaved<kInterleavedReads>(inv_, cols, b, keys.data() + i,
                                        out.data() + i);
  if (n - i >= 4) {
    read_interleaved<4>(inv_, cols, b, keys.data() + i, out.data() + i);
    i += 4;
  }
  if (n - i >= 2) {
    read_interleaved<2>(inv_, cols, b, keys.data() + i, out.data() + i);
    i += 2;
  }
  if (i < n)
    read_interleaved<1>(inv_, cols, b, keys.data() + i, out.data() + i);
  ideal_currents_.fetch_add(n, std::memory_order_relaxed);
}

std::size_t CimLikelihoodArray::lookup_cached_currents(
    std::span<const std::uint32_t> keys, std::span<double> out) const {
  CIMNAV_REQUIRE(out.size() == keys.size(),
                 "lookup_cached_currents: output size must match the key "
                 "count");
  std::size_t misses = 0;
  const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t* const set_keys =
        cache_keys_.data() + cache_base(keys[i]);
    const std::uint32_t* const way =
        std::find(set_keys, set_keys + kCacheWays, keys[i]);
    if (way != set_keys + kCacheWays) {
      out[i] = cache_currents_[static_cast<std::size_t>(
          way - cache_keys_.data())];
    } else {
      out[i] = kMissingCurrent;
      ++misses;
    }
  }
  return misses;
}

void CimLikelihoodArray::cache_currents(
    std::span<const std::uint32_t> keys,
    std::span<const double> currents) const {
  CIMNAV_REQUIRE(currents.size() == keys.size(),
                 "cache_currents: current count must match the key count");
  const std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t base = cache_base(keys[i]);
    std::uint32_t* const set_keys = cache_keys_.data() + base;
    double* const set_currents = cache_currents_.data() + base;
    if (std::find(set_keys, set_keys + kCacheWays, keys[i]) !=
        set_keys + kCacheWays)
      continue;
    std::copy_backward(set_keys, set_keys + kCacheWays - 1,
                       set_keys + kCacheWays);
    std::copy_backward(set_currents, set_currents + kCacheWays - 1,
                       set_currents + kCacheWays);
    set_keys[0] = keys[i];
    set_currents[0] = currents[i];
  }
}

double CimLikelihoodArray::read_log_likelihood(const core::Vec3& point_v,
                                               core::Rng& rng) const {
  const std::uint32_t key = code_key(point_v);
  double ideal = 0.0;
  ideal_currents_by_key({&key, 1}, {&ideal, 1});
  record_reads(1);
  return read_log(ideal, rng);
}

}  // namespace cimnav::circuit
