#include "cimsram/cim_macro.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::cimsram {

/// Per-thread scratch buffers for the zero-allocation read path. All
/// vectors grow to the largest macro they have served and then stay put.
struct MacroWorkspace {
  std::vector<std::uint64_t> gate;       ///< packed add-side gate (delta)
  std::vector<std::uint64_t> gate_rem;   ///< packed remove-side gate (delta)
  std::vector<std::uint64_t> gated;      ///< planes & gate, input_bits x words
  std::vector<std::uint64_t> gated_rem;  ///< planes & remove gate (delta)
  std::vector<std::int32_t> word_list;   ///< touched word indices (delta)
};

namespace {

MacroWorkspace& tls_workspace() {
  thread_local MacroWorkspace ws;
  return ws;
}

}  // namespace

thread_local MacroStats* ScopedStatsCapture::active_sink_ = nullptr;

ScopedStatsCapture::ScopedStatsCapture(MacroStats* sink)
    : prev_(active_sink_) {
  active_sink_ = sink;
}

ScopedStatsCapture::~ScopedStatsCapture() { active_sink_ = prev_; }

MacroStats* ScopedStatsCapture::active_sink() { return active_sink_; }

MacroStats& MacroStats::operator+=(const MacroStats& o) {
  matvec_calls += o.matvec_calls;
  wordline_pulses += o.wordline_pulses;
  wordline_col_drives += o.wordline_col_drives;
  adc_conversions += o.adc_conversions;
  analog_cycles += o.analog_cycles;
  nominal_macs += o.nominal_macs;
  return *this;
}

MacroStats& MacroStats::operator-=(const MacroStats& o) {
  matvec_calls -= o.matvec_calls;
  wordline_pulses -= o.wordline_pulses;
  wordline_col_drives -= o.wordline_col_drives;
  adc_conversions -= o.adc_conversions;
  analog_cycles -= o.analog_cycles;
  nominal_macs -= o.nominal_macs;
  return *this;
}

void pack_row_mask(const std::vector<std::uint8_t>& mask, int n_rows,
                   std::vector<std::uint64_t>& gate) {
  CIMNAV_REQUIRE(mask.empty() ||
                     mask.size() == static_cast<std::size_t>(n_rows),
                 "row mask size mismatch");
  const std::size_t words = static_cast<std::size_t>((n_rows + 63) / 64);
  if (mask.empty()) {
    gate.assign(words, ~std::uint64_t{0});
    if (n_rows % 64 != 0) gate[words - 1] = (std::uint64_t{1} << (n_rows % 64)) - 1;
    return;
  }
  gate.resize(words);
  // Branchless bit packing: random dropout masks mispredict a per-bit
  // branch half the time, which dominated this loop.
  for (std::size_t w = 0; w < words; ++w) {
    const int i0 = static_cast<int>(w) * 64;
    const int i1 = std::min(i0 + 64, n_rows);
    std::uint64_t g = 0;
    for (int i = i0; i < i1; ++i)
      g |= static_cast<std::uint64_t>(mask[static_cast<std::size_t>(i)] != 0)
           << (i - i0);
    gate[w] = g;
  }
}

std::vector<double> matvec(const CimMacro& macro,
                           const std::vector<double>& x,
                           const std::vector<std::uint8_t>& in_mask,
                           const std::vector<std::uint8_t>& out_mask,
                           core::Rng* rng) {
  thread_local EncodedInput enc;
  thread_local std::vector<std::uint64_t> gate;
  macro.encode_input(x, enc);
  pack_row_mask(in_mask, macro.n_in(), gate);
  std::vector<double> y;
  macro.matvec_encoded(enc, gate, out_mask, rng, y);
  return y;
}

CimMacro::CimMacro(const std::vector<double>& weights, int n_out, int n_in,
                   const CimMacroConfig& config, double input_scale)
    : config_(config), n_in_(n_in), n_out_(n_out), input_scale_(input_scale),
      inv_input_scale_(1.0 / input_scale) {
  CIMNAV_REQUIRE(n_in > 0 && n_out > 0, "matrix dims must be positive");
  CIMNAV_REQUIRE(weights.size() == static_cast<std::size_t>(n_in) *
                                       static_cast<std::size_t>(n_out),
                 "weight size mismatch");
  // Checked before anything shifts by a width.
  CIMNAV_REQUIRE(config.input_bits >= 1 && config.input_bits <= 12,
                 "input bits must be in [1, 12]");
  CIMNAV_REQUIRE(config.weight_bits >= 2 && config.weight_bits <= 12,
                 "weight bits must be in [2, 12]");
  CIMNAV_REQUIRE(config.adc_bits >= 1 && config.adc_bits <= 16,
                 "adc bits must be in [1, 16]");
  // A NaN sigma would read 0 on the AVX2 kernel (its ADC clamp drops NaN)
  // and NaN on the scalar one.
  CIMNAV_REQUIRE(std::isfinite(config.noise_coeff) &&
                     config.noise_coeff >= 0.0,
                 "noise coeff must be finite and non-negative");
  CIMNAV_REQUIRE(input_scale > 0.0, "input scale must be positive");

  // Per-tensor symmetric weight quantization.
  const int mag_max = (1 << (config.weight_bits - 1)) - 1;
  double w_max = 0.0;
  for (double w : weights) w_max = std::max(w_max, std::abs(w));
  weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;

  words_ = (n_in + 63) / 64;
  planes_ = config.weight_bits - 1;
  bits_.assign(static_cast<std::size_t>(n_out) * 2u *
                   static_cast<std::size_t>(planes_) *
                   static_cast<std::size_t>(words_),
               0);
  for (int j = 0; j < n_out; ++j) {
    for (int i = 0; i < n_in; ++i) {
      const double w = weights[static_cast<std::size_t>(j) *
                                   static_cast<std::size_t>(n_in) +
                               static_cast<std::size_t>(i)];
      int q = static_cast<int>(std::lround(w / weight_scale_));
      q = std::clamp(q, -mag_max, mag_max);
      const int mag = std::abs(q);
      const int sign = q >= 0 ? 0 : 1;
      for (int p = 0; p < planes_; ++p) {
        if ((mag >> p) & 1) {
          const std::size_t idx =
              ((static_cast<std::size_t>(j) * 2u +
                static_cast<std::size_t>(sign)) *
                   static_cast<std::size_t>(planes_) +
               static_cast<std::size_t>(p)) *
                  static_cast<std::size_t>(words_) +
              static_cast<std::size_t>(i / 64);
          bits_[idx] |= (std::uint64_t{1} << (i % 64));
        }
      }
    }
  }
}

void CimMacro::encode_input(const std::vector<double>& x,
                            EncodedInput& enc) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(n_in_),
                 "input size mismatch");
  const int input_bits = config_.input_bits;
  const std::size_t stride = static_cast<std::size_t>(words_);
  const int max_code = (1 << input_bits) - 1;
  enc.planes.assign(static_cast<std::size_t>(input_bits) * stride, 0);
  // Word-at-a-time: accumulate the word's bit planes in registers, store
  // once per plane (the per-bit read-modify-write of the naive loop is
  // measurable in the MC hot path).
  for (int w = 0; w < words_; ++w) {
    std::uint64_t acc[12] = {};
    const int i0 = w * 64;
    const int i1 = std::min(i0 + 64, n_in_);
    for (int i = i0; i < i1; ++i) {
      // Truncation of (x / s + 0.5) equals lround(x / s) for every value
      // the [0, max] clamp can produce, and inlines where lround would not.
      const auto code = static_cast<int>(
          x[static_cast<std::size_t>(i)] * inv_input_scale_ + 0.5);
      const std::uint32_t q =
          static_cast<std::uint32_t>(std::clamp(code, 0, max_code));
      // Branchless scatter: data-dependent skips mispredict on real
      // activations; input_bits unconditional ORs are cheaper.
      for (int b = 0; b < input_bits; ++b)
        acc[b] |= static_cast<std::uint64_t>((q >> b) & 1u) << (i - i0);
    }
    for (int b = 0; b < input_bits; ++b)
      enc.planes[static_cast<std::size_t>(b) * stride +
                 static_cast<std::size_t>(w)] = acc[b];
  }
}

std::uint64_t CimMacro::count_active_cols(const std::uint8_t* out_mask) const {
  if (out_mask == nullptr) return static_cast<std::uint64_t>(n_out_);
  std::uint64_t c = 0;
  for (int j = 0; j < n_out_; ++j) c += out_mask[j] ? 1 : 0;
  return c;
}

std::uint64_t CimMacro::cycles_per_call() const {
  return static_cast<std::uint64_t>(planes_) *
         static_cast<std::uint64_t>(config_.input_bits) * 2u;
}

void CimMacro::account(std::uint64_t calls, std::uint64_t active_rows,
                       std::uint64_t active_cols) const {
  const std::uint64_t cycles = cycles_per_call();
  stat_calls_.fetch_add(calls, std::memory_order_relaxed);
  stat_cycles_.fetch_add(calls * cycles, std::memory_order_relaxed);
  stat_wordline_.fetch_add(calls * active_rows * cycles,
                           std::memory_order_relaxed);
  // Every pulse drives the full physical array width (masked columns still
  // load the wire), so the span scales with n_out_, not active_cols.
  stat_wl_cols_.fetch_add(calls * active_rows * cycles *
                              static_cast<std::uint64_t>(n_out_),
                          std::memory_order_relaxed);
  stat_adc_.fetch_add(calls * active_cols * cycles,
                      std::memory_order_relaxed);
  stat_macs_.fetch_add(calls * active_rows * active_cols,
                       std::memory_order_relaxed);
  // Mirror the exact same quantities into the thread's capture sink (if
  // any) so per-scope captures sum back to the lifetime-counter delta
  // without a second accounting model to keep in sync.
  if (MacroStats* sink = ScopedStatsCapture::active_sink()) {
    sink->matvec_calls += calls;
    sink->analog_cycles += calls * cycles;
    sink->wordline_pulses += calls * active_rows * cycles;
    sink->wordline_col_drives +=
        calls * active_rows * cycles * static_cast<std::uint64_t>(n_out_);
    sink->adc_conversions += calls * active_cols * cycles;
    sink->nominal_macs += calls * active_rows * active_cols;
  }
}

MacroStats CimMacro::stats() const {
  MacroStats s;
  s.matvec_calls = stat_calls_.load(std::memory_order_relaxed);
  s.wordline_pulses = stat_wordline_.load(std::memory_order_relaxed);
  s.wordline_col_drives = stat_wl_cols_.load(std::memory_order_relaxed);
  s.adc_conversions = stat_adc_.load(std::memory_order_relaxed);
  s.analog_cycles = stat_cycles_.load(std::memory_order_relaxed);
  s.nominal_macs = stat_macs_.load(std::memory_order_relaxed);
  return s;
}

void CimMacro::reset_stats() const {
  stat_calls_.store(0, std::memory_order_relaxed);
  stat_wordline_.store(0, std::memory_order_relaxed);
  stat_wl_cols_.store(0, std::memory_order_relaxed);
  stat_adc_.store(0, std::memory_order_relaxed);
  stat_cycles_.store(0, std::memory_order_relaxed);
  stat_macs_.store(0, std::memory_order_relaxed);
}

MacroView CimMacro::view() const {
  MacroView v;
  v.weight_bits = bits_.data();
  v.n_in = n_in_;
  v.n_out = n_out_;
  v.words = words_;
  v.planes = planes_;
  v.input_bits = config_.input_bits;
  v.adc_bits = config_.adc_bits;
  v.analog_noise = config_.analog_noise;
  v.noise_coeff = config_.noise_coeff;
  v.weight_scale = weight_scale_;
  v.input_scale = input_scale_;
  return v;
}

void CimMacro::run_delta(const DeltaItem& item, MacroWorkspace& ws) const {
  CIMNAV_REQUIRE(item.enc->planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) *
                         static_cast<std::size_t>(words_),
                 "encoded input shape mismatch");
  const std::size_t words = static_cast<std::size_t>(words_);
  const auto pack = [&](std::vector<std::uint64_t>& gate,
                        const std::size_t* rows, std::size_t n) {
    gate.assign(words, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = rows[k];
      CIMNAV_REQUIRE(i < static_cast<std::size_t>(n_in_), "row out of range");
      gate[i / 64] |= (std::uint64_t{1} << (i % 64));
    }
  };
  pack(ws.gate, item.add_rows, item.n_add);
  pack(ws.gate_rem, item.rem_rows, item.n_rem);
  // Union touched-word list from the packed gates: always sorted and
  // unique, no ordering requirement on the row lists. words_ is tiny
  // (ceil(n_in / 64)).
  ws.word_list.clear();
  for (std::size_t w = 0; w < words; ++w)
    if ((ws.gate[w] | ws.gate_rem[w]) != 0)
      ws.word_list.push_back(static_cast<std::int32_t>(w));

  // Gates one rail over the listed words. The delta-read contract
  // requires every unlisted word to be zero across all planes of BOTH
  // buffers, so each is cleared wholesale first (input_bits x words
  // u64s — trivial next to the scan). A rail with no flipped rows stays
  // null and reads zero.
  const std::uint64_t* planes = item.enc->planes.data();
  std::uint64_t active_rows = 0;
  const auto gate_rail = [&](const std::vector<std::uint64_t>& gate,
                             std::vector<std::uint64_t>& gated) {
    gated.assign(static_cast<std::size_t>(config_.input_bits) * words, 0);
    for (const std::int32_t wi : ws.word_list) {
      const std::size_t w = static_cast<std::size_t>(wi);
      const std::uint64_t g = gate[w];
      active_rows += static_cast<std::uint64_t>(std::popcount(g));
      for (int b = 0; b < config_.input_bits; ++b)
        gated[static_cast<std::size_t>(b) * words + w] =
            planes[static_cast<std::size_t>(b) * words + w] & g;
    }
    return static_cast<const std::uint64_t*>(gated.data());
  };
  const std::uint64_t* gated_add =
      item.n_add > 0 ? gate_rail(ws.gate, ws.gated) : nullptr;
  const std::uint64_t* gated_rem =
      item.n_rem > 0 ? gate_rail(ws.gate_rem, ws.gated_rem) : nullptr;
  run_columns(view(), gated_add, gated_rem, ws.word_list.data(),
              static_cast<int>(ws.word_list.size()), active_rows, nullptr, 0,
              n_out_, item.rng == nullptr, item.rng, item.y);
  account(1, active_rows, static_cast<std::uint64_t>(n_out_));
}

void CimMacro::matvec_delta_batch(const DeltaItem* items, std::size_t n_items,
                                  core::ThreadPool* pool) const {
  const auto run_items = [&](std::size_t begin, std::size_t end, int) {
    MacroWorkspace& ws = tls_workspace();
    for (std::size_t k = begin; k < end; ++k) {
      ScopedStatsCapture capture(items[k].stats);
      run_delta(items[k], ws);
    }
  };
  if (pool != nullptr && n_items > 1) {
    pool->parallel_for(n_items, 1, run_items);
  } else {
    run_items(0, n_items, 0);
  }
}

void CimMacro::matvec_encoded(const EncodedInput& enc,
                              const std::vector<std::uint64_t>& row_gate,
                              const std::vector<std::uint8_t>& out_mask,
                              core::Rng* rng, std::vector<double>& y) const {
  const std::size_t words = static_cast<std::size_t>(words_);
  CIMNAV_REQUIRE(row_gate.size() == words, "row gate word count mismatch");
  CIMNAV_REQUIRE(enc.planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) * words,
                 "encoded input shape mismatch");
  CIMNAV_REQUIRE(out_mask.empty() ||
                     out_mask.size() == static_cast<std::size_t>(n_out_),
                 "output mask size mismatch");
  y.resize(static_cast<std::size_t>(n_out_));
  MacroWorkspace& ws = tls_workspace();
  ws.gated.resize(static_cast<std::size_t>(config_.input_bits) * words);
  for (int b = 0; b < config_.input_bits; ++b) {
    const std::uint64_t* src =
        enc.planes.data() + static_cast<std::size_t>(b) * words;
    std::uint64_t* dst = ws.gated.data() + static_cast<std::size_t>(b) *
                                               words;
    for (std::size_t w = 0; w < words; ++w) dst[w] = src[w] & row_gate[w];
  }
  std::uint64_t active_rows = 0;
  for (std::size_t w = 0; w < words; ++w)
    active_rows += static_cast<std::uint64_t>(std::popcount(row_gate[w]));

  const std::uint8_t* mask = out_mask.empty() ? nullptr : out_mask.data();
  run_columns(view(), ws.gated.data(), nullptr, nullptr, 0, active_rows,
              mask, 0, n_out_, rng == nullptr, rng, y.data());
  account(1, active_rows, count_active_cols(mask));
}

}  // namespace cimnav::cimsram
