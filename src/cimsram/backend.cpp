#include "cimsram/backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CIMNAV_X86 1
#else
#define CIMNAV_X86 0
#endif

namespace cimnav::cimsram {
namespace {

// Upper bound on bit-serial cycles per column: 2 sides x (weight_bits-1)
// planes x input_bits, with both precisions capped at 12 in the config
// validation. Sizes the per-column stack buffers (padded to a multiple of
// 4 so vectorized stages can run full quads over the tail).
constexpr int kMaxCycles = ((2 * 11 * 12 + 3) / 4) * 4;

// Shift-add weight of each (sign, plane, input-bit) cycle, in cycle order:
// +/- 2^(p+b). Returns the cycle count; pads the table with zeros to the
// next multiple of 4.
int fill_wtab(const MacroView& v, double* wtab) {
  int c = 0;
  for (int sign = 0; sign < 2; ++sign) {
    const double sgn = sign == 0 ? 1.0 : -1.0;
    for (int p = 0; p < v.planes; ++p)
      for (int b = 0; b < v.input_bits; ++b)
        wtab[c++] = sgn * static_cast<double>(std::uint64_t{1} << (p + b));
  }
  const int cycles = c;
  while (c % 4 != 0) wtab[c++] = 0.0;
  return cycles;
}

// Stage-1 kernel: bit-coincidence counts for every (sign-plane, input-bit)
// cycle of one column. Specialized on the packed word count so the inner
// loop fully unrolls for the common macro sizes (W = 0 is the
// runtime-length fallback). On x86 a hardware-popcnt clone is selected at
// runtime, so builds without -march flags (CI) still use the instruction.
template <int W>
inline void fill_counts_body(const std::uint64_t* col,
                             const std::uint64_t* gated_planes,
                             int sign_planes, int input_bits,
                             std::size_t words, double* counts) {
  int c = 0;
  for (int sp = 0; sp < sign_planes; ++sp) {
    const std::uint64_t* plane =
        col + static_cast<std::size_t>(sp) * (W > 0 ? W : words);
    for (int b = 0; b < input_bits; ++b) {
      const std::uint64_t* xb =
          gated_planes + static_cast<std::size_t>(b) * (W > 0 ? W : words);
      int pop = 0;
      if constexpr (W > 0) {
        for (int w = 0; w < W; ++w) pop += std::popcount(plane[w] & xb[w]);
      } else {
        for (std::size_t w = 0; w < words; ++w)
          pop += std::popcount(plane[w] & xb[w]);
      }
      counts[c++] = static_cast<double>(pop);
    }
  }
}

template <int W>
void fill_counts(const std::uint64_t* col, const std::uint64_t* gated_planes,
                 int sign_planes, int input_bits, std::size_t words,
                 double* counts) {
  fill_counts_body<W>(col, gated_planes, sign_planes, input_bits, words,
                      counts);
}

using FillCountsFn = void (*)(const std::uint64_t*, const std::uint64_t*,
                              int, int, std::size_t, double*);

#if CIMNAV_X86
template <int W>
__attribute__((target("popcnt")))
void fill_counts_hw(const std::uint64_t* col,
                    const std::uint64_t* gated_planes, int sign_planes,
                    int input_bits, std::size_t words, double* counts) {
  fill_counts_body<W>(col, gated_planes, sign_planes, input_bits, words,
                      counts);
}
#endif

FillCountsFn select_fill_counts(int words) {
#if CIMNAV_X86
  static const bool kHavePopcnt = __builtin_cpu_supports("popcnt");
  if (kHavePopcnt) {
    switch (words) {
      case 1: return &fill_counts_hw<1>;
      case 2: return &fill_counts_hw<2>;
      case 3: return &fill_counts_hw<3>;
      case 4: return &fill_counts_hw<4>;
      default: return &fill_counts_hw<0>;
    }
  }
#endif
  switch (words) {
    case 1: return &fill_counts<1>;
    case 2: return &fill_counts<2>;
    case 3: return &fill_counts<3>;
    case 4: return &fill_counts<4>;
    default: return &fill_counts<0>;
  }
}

// Sparse stage-1 kernel for delta dispatch: per-rail coincidence counts
// of the differential read. Only the listed packed words can hold set
// bits in either gate buffer (delta-read contract), so the scan
// touches n_words words per cycle instead of all of them; added word
// lines accumulate on the sample rail (`counts_add`), removed ones on
// the hold rail (`counts_rem`). Either buffer may be null (no flips in
// that direction) — its rail reads zero. The body is templated on rail
// presence (hoisting the null checks out of the innermost loop) and,
// when the flipped words cover the whole plane (any layer up to 256
// rows has at most 4 words), on the word count itself — that path
// indexes words directly and unrolls like the dense fill.
template <int W, bool HasAdd, bool HasRem>
inline void fill_counts_delta_body(const std::uint64_t* col,
                                   const std::uint64_t* gated_add,
                                   const std::uint64_t* gated_rem,
                                   const std::int32_t* word_list,
                                   int n_words, int sign_planes,
                                   int input_bits, std::size_t words,
                                   double* counts_add, double* counts_rem) {
  const std::size_t nw =
      W > 0 ? static_cast<std::size_t>(W) : static_cast<std::size_t>(n_words);
  int c = 0;
  for (int sp = 0; sp < sign_planes; ++sp) {
    const std::uint64_t* plane =
        col + static_cast<std::size_t>(sp) * words;
    for (int b = 0; b < input_bits; ++b) {
      const std::size_t boff = static_cast<std::size_t>(b) * words;
      int pa = 0, pr = 0;
      for (std::size_t k = 0; k < nw; ++k) {
        // W > 0 means full coverage: the listed words are exactly
        // 0..words-1, so index directly and let the loop unroll.
        const std::size_t w =
            W > 0 ? k : static_cast<std::size_t>(word_list[k]);
        const std::uint64_t pw = plane[w];
        if constexpr (HasAdd) pa += std::popcount(pw & gated_add[boff + w]);
        if constexpr (HasRem) pr += std::popcount(pw & gated_rem[boff + w]);
      }
      counts_add[c] = static_cast<double>(pa);
      counts_rem[c] = static_cast<double>(pr);
      ++c;
    }
  }
}

template <int W, bool HasAdd, bool HasRem>
void fill_counts_delta(const std::uint64_t* col,
                       const std::uint64_t* gated_add,
                       const std::uint64_t* gated_rem,
                       const std::int32_t* word_list, int n_words,
                       int sign_planes, int input_bits, std::size_t words,
                       double* counts_add, double* counts_rem) {
  fill_counts_delta_body<W, HasAdd, HasRem>(col, gated_add, gated_rem,
                                            word_list, n_words, sign_planes,
                                            input_bits, words, counts_add,
                                            counts_rem);
}

using FillCountsDeltaFn = void (*)(const std::uint64_t*,
                                   const std::uint64_t*,
                                   const std::uint64_t*, const std::int32_t*,
                                   int, int, int, std::size_t, double*,
                                   double*);

#if CIMNAV_X86
template <int W, bool HasAdd, bool HasRem>
__attribute__((target("popcnt")))
void fill_counts_delta_hw(const std::uint64_t* col,
                          const std::uint64_t* gated_add,
                          const std::uint64_t* gated_rem,
                          const std::int32_t* word_list, int n_words,
                          int sign_planes, int input_bits, std::size_t words,
                          double* counts_add, double* counts_rem) {
  fill_counts_delta_body<W, HasAdd, HasRem>(col, gated_add, gated_rem,
                                            word_list, n_words, sign_planes,
                                            input_bits, words, counts_add,
                                            counts_rem);
}
#endif

// Instantiation tables so the software/hardware-popcount variants share
// one shape-dispatch routine below.
template <int W, bool HasAdd, bool HasRem>
struct FillDeltaSw {
  static constexpr FillCountsDeltaFn run =
      &fill_counts_delta<W, HasAdd, HasRem>;
};
#if CIMNAV_X86
template <int W, bool HasAdd, bool HasRem>
struct FillDeltaHw {
  static constexpr FillCountsDeltaFn run =
      &fill_counts_delta_hw<W, HasAdd, HasRem>;
};
#endif

template <template <int, bool, bool> class Fn>
FillCountsDeltaFn pick_fill_counts_delta(bool full, int words, bool has_add,
                                         bool has_rem) {
  // `full` = the list covers every word, so the W-templated direct-index
  // bodies apply; otherwise the list-indirected generic body (W = 0)
  // runs. One-sided ops (the common refresh / pure-grow steps) drop the
  // dead rail entirely.
  const int w = full && words >= 1 && words <= 4 ? words : 0;
  if (has_add && has_rem) {
    switch (w) {
      case 1: return Fn<1, true, true>::run;
      case 2: return Fn<2, true, true>::run;
      case 3: return Fn<3, true, true>::run;
      case 4: return Fn<4, true, true>::run;
      default: return Fn<0, true, true>::run;
    }
  }
  if (has_add) {
    switch (w) {
      case 1: return Fn<1, true, false>::run;
      case 2: return Fn<2, true, false>::run;
      case 3: return Fn<3, true, false>::run;
      case 4: return Fn<4, true, false>::run;
      default: return Fn<0, true, false>::run;
    }
  }
  switch (w) {
    case 1: return Fn<1, false, true>::run;
    case 2: return Fn<2, false, true>::run;
    case 3: return Fn<3, false, true>::run;
    case 4: return Fn<4, false, true>::run;
    default: return Fn<0, false, true>::run;
  }
}

FillCountsDeltaFn select_fill_counts_delta(int n_words, int words,
                                           bool has_add, bool has_rem) {
  const bool full = n_words == words;
#if CIMNAV_X86
  static const bool kHavePopcnt = __builtin_cpu_supports("popcnt");
  if (kHavePopcnt)
    return pick_fill_counts_delta<FillDeltaHw>(full, words, has_add,
                                               has_rem);
#endif
  return pick_fill_counts_delta<FillDeltaSw>(full, words, has_add, has_rem);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar kernel: noise drawn sequentially from the caller's stream in
// cycle order. Its ideal branch is the exact reduction both kernels share.
// `word_list` non-null selects the differential delta read (backend.hpp).
// ---------------------------------------------------------------------------

void scalar_run_columns(const MacroView& v,
                        const std::uint64_t* gated_planes,
                        const std::uint64_t* gated_rem,
                        const std::int32_t* word_list, int n_words,
                        std::uint64_t active_rows,
                        const std::uint8_t* out_mask, int col_begin,
                        int col_end, bool ideal, core::Rng* rng, double* y) {
  // The column ADC spans the full physical row count.
  const double adc_levels = static_cast<double>((1 << v.adc_bits) - 1);
  const double adc_step = static_cast<double>(v.n_in) / adc_levels;
  const double inv_adc_step = 1.0 / adc_step;
  const bool noisy =
      !ideal && v.analog_noise && rng != nullptr && active_rows > 0;
  const double noise_sigma =
      noisy ? v.noise_coeff * std::sqrt(static_cast<double>(active_rows))
            : 0.0;
  const std::size_t words = static_cast<std::size_t>(v.words);
  const std::size_t col_stride = 2u * static_cast<std::size_t>(v.planes) *
                                 words;

  double wtab[kMaxCycles];
  const int cycles = fill_wtab(v, wtab);

  const FillCountsFn fill = select_fill_counts(v.words);
  const FillCountsDeltaFn dfill =
      word_list != nullptr
          ? select_fill_counts_delta(n_words, v.words,
                                     gated_planes != nullptr,
                                     gated_rem != nullptr)
          : nullptr;
  for (int j = col_begin; j < col_end; ++j) {
    if (out_mask != nullptr && !out_mask[static_cast<std::size_t>(j)]) {
      y[j] = 0.0;
      continue;
    }
    const std::uint64_t* col =
        v.weight_bits + static_cast<std::size_t>(j) * col_stride;

    // Stage 1: bit-coincidence counts for every cycle of this column
    // (per-rail counts on the differential path).
    double counts[kMaxCycles];
    double counts_rem[kMaxCycles];
    if (dfill != nullptr)
      dfill(col, gated_planes, gated_rem, word_list, n_words, 2 * v.planes,
            v.input_bits, words, counts, counts_rem);
    else
      fill(col, gated_planes, 2 * v.planes, v.input_bits, words, counts);

    // Stage 2: per-cycle analog disturbance (sequential draws, in cycle
    // order, so the noise stream consumption is well defined). On the
    // differential path the op's single disturbance lands on the sample
    // rail; its sigma already spans every driven line (active_rows).
    if (noisy) {
      for (int i = 0; i < cycles; ++i)
        counts[i] += noise_sigma * rng->normal_fast();
    }

    // Stage 3: ADC quantization + shift-add reduction (vectorizable; no
    // branches, no draws). floor(v + 0.5) equals the seed's round() here:
    // they differ only on negative half-integers, which the [0, levels]
    // clamp maps to 0 either way. The differential path quantizes each
    // rail through this same dense quantizer and emits the signed code
    // difference (correlated double sampling), so a delta accumulation
    // stays on the dense read's code lattice.
    double acc = 0.0;
    if (!ideal) {
      if (dfill != nullptr) {
        for (int i = 0; i < cycles; ++i) {
          double ca = std::floor(counts[i] * inv_adc_step + 0.5);
          ca = ca < 0.0 ? 0.0 : (ca > adc_levels ? adc_levels : ca);
          double cr = std::floor(counts_rem[i] * inv_adc_step + 0.5);
          cr = cr < 0.0 ? 0.0 : (cr > adc_levels ? adc_levels : cr);
          acc += wtab[i] * (ca - cr);
        }
      } else {
        for (int i = 0; i < cycles; ++i) {
          double code = std::floor(counts[i] * inv_adc_step + 0.5);
          code = code < 0.0 ? 0.0 : (code > adc_levels ? adc_levels : code);
          acc += wtab[i] * code;
        }
      }
      acc *= adc_step;
    } else {
      if (dfill != nullptr)
        for (int i = 0; i < cycles; ++i)
          acc += wtab[i] * (counts[i] - counts_rem[i]);
      else
        for (int i = 0; i < cycles; ++i) acc += wtab[i] * counts[i];
    }
    y[j] = acc * v.weight_scale * v.input_scale;
  }
}

namespace {

#if CIMNAV_X86

// ---------------------------------------------------------------------------
// AVX2 bit-sliced kernel. Two ideas:
//
//  1. Lane-parallel ziggurat. Eight xoshiro256++ generators run as the
//     64-bit lanes of two __m256i state sets (two independent dependency
//     chains, so the serial state update never starves the FP pipes); each
//     step yields eight raw draws, the layer tables are fetched with
//     vpgatherqq, and the ~1% of lanes that fail the no-reject test fall
//     back to an exact scalar wedge/tail handler fed by an overflow stream
//     (statistically equivalent to retrying on the lane's own stream).
//     The tables are a 512-layer Doornik construction — more layers than
//     the scalar Rng::normal_fast (128) purely to shrink the slow-path
//     rate; both are exact samplers of the same N(0, 1).
//
//  2. Fused noise + ADC + shift-add stage: counts, Gaussian disturbance,
//     ADC rounding/clamping and the power-of-two shift-add reduction run
//     four cycles per instruction with FMA, instead of the scalar kernel's
//     per-cycle loop.
// ---------------------------------------------------------------------------

// 512-layer ziggurat tables, plus the layer-edge densities
// fx[i] = exp(-x_i^2 / 2) so the wedge test costs a single exp. (R, V)
// solved with the standard closure condition (x_N = 0) by bisection; the
// same solver reproduces Doornik's published 128/256-layer constants to
// 13 digits. More layers than the scalar Rng::normal_fast purely to
// shrink the vector kernel's slow-path rate (~0.5% per lane at 512).
struct ZigTables {
  static constexpr int kLayers = 512;
  static constexpr double kR = 3.8520461503683916;      // rightmost edge
  static constexpr double kV = 2.4567663515413529e-3;   // per-layer area
  double x[kLayers + 1];
  double ratio[kLayers];
  double fx[kLayers + 1];
  ZigTables() {
    double f = std::exp(-0.5 * kR * kR);
    x[0] = kV / f;
    x[1] = kR;
    x[kLayers] = 0.0;
    for (int i = 2; i < kLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + f));
      f = std::exp(-0.5 * x[i] * x[i]);
    }
    for (int i = 0; i < kLayers; ++i) ratio[i] = x[i + 1] / x[i];
    for (int i = 0; i <= kLayers; ++i) fx[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigTables& zig_tables() {
  static const ZigTables tables;
  return tables;
}

// Exact wedge/tail handling for a rejected lane (standard ziggurat slow
// path on the ZigTables layers); retries draw from the overflow stream.
double zig_slow(std::uint64_t bits, core::Rng& rng) {
  const ZigTables& t = zig_tables();
  for (;;) {
    const int layer = static_cast<int>(bits & (ZigTables::kLayers - 1));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    if (std::abs(u) < t.ratio[layer]) return u * t.x[layer];
    if (layer == 0) {
      // Tail beyond R: Marsaglia's exact exponential-rejection scheme.
      double xt, yt;
      do {
        xt = -std::log(1.0 - rng.uniform()) / ZigTables::kR;
        yt = -std::log(1.0 - rng.uniform());
      } while (yt + yt < xt * xt);
      return u < 0.0 ? -(ZigTables::kR + xt) : ZigTables::kR + xt;
    }
    // Wedge: accept x with probability (f(x) - f1) / (f0 - f1), with the
    // layer-edge densities from the table — one exp per trial.
    const double x = u * t.x[layer];
    if (t.fx[layer + 1] + rng.uniform() * (t.fx[layer] - t.fx[layer + 1]) <
        std::exp(-0.5 * x * x))
      return x;
    bits = rng();
  }
}

struct ZigVec {
  __m256i a0, a1, a2, a3;   // transposed 4-lane xoshiro256++ state, chain A
  __m256i b0, b1, b2, b3;   // chain B
  core::Rng overflow;       // drives wedge/tail retries of rejected lanes

  explicit ZigVec(std::uint64_t root) : overflow(root ^ 0x9E3779B97F4A7C15ull) {
    // Seed each lane exactly like core::Rng: a SplitMix64 chain per lane,
    // lanes keyed by decorrelated roots.
    alignas(32) std::uint64_t lanes[8][4];
    for (int l = 0; l < 8; ++l) {
      std::uint64_t sm = root + 0xBF58476D1CE4E5B9ull *
                                    static_cast<std::uint64_t>(l + 1);
      for (auto& s : lanes[l]) {
        sm += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = sm;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        s = z ^ (z >> 31);
      }
      if ((lanes[l][0] | lanes[l][1] | lanes[l][2] | lanes[l][3]) == 0)
        lanes[l][0] = 1;
    }
    alignas(32) std::uint64_t w[4];
    const auto pack = [&](int word, int base, __m256i* out) {
      for (int i = 0; i < 4; ++i) w[i] = lanes[base + i][word];
      std::memcpy(out, w, sizeof(w));
    };
    pack(0, 0, &a0);
    pack(1, 0, &a1);
    pack(2, 0, &a2);
    pack(3, 0, &a3);
    pack(0, 4, &b0);
    pack(1, 4, &b1);
    pack(2, 4, &b2);
    pack(3, 4, &b3);
  }
};

// One xoshiro256++ step of a 4-lane state set.
#define CIMNAV_ZIG_STEP(s0, s1, s2, s3, out)                                 \
  {                                                                          \
    const __m256i sum = _mm256_add_epi64(s0, s3);                            \
    out = _mm256_add_epi64(                                                  \
        _mm256_or_si256(_mm256_slli_epi64(sum, 23),                          \
                        _mm256_srli_epi64(sum, 41)),                         \
        s0);                                                                 \
    const __m256i t = _mm256_slli_epi64(s1, 17);                             \
    s2 = _mm256_xor_si256(s2, s0);                                           \
    s3 = _mm256_xor_si256(s3, s1);                                           \
    s1 = _mm256_xor_si256(s1, s2);                                           \
    s0 = _mm256_xor_si256(s0, s3);                                           \
    s2 = _mm256_xor_si256(s2, t);                                            \
    s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),                          \
                         _mm256_srli_epi64(s3, 19));                         \
  }

// Fills dst[0 .. round_up8(n)) with sigma * N(0, 1) draws; the caller's
// buffer must have room for the rounded-up count (extra values land in
// zero-weight pad cycles of the fused ADC stage).
__attribute__((target("avx2,fma")))
void zig_fill(ZigVec& z, double* dst, int n, double sigma) {
  const ZigTables& t = zig_tables();
  const __m256i layer_mask = _mm256_set1_epi64x(ZigTables::kLayers - 1);
  const __m256i exp_bits = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d exp_base = _mm256_set1_pd(0x1.0p52);
  const __m256d u_scale = _mm256_set1_pd(0x1.0p-51);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256d vsigma = _mm256_set1_pd(sigma);

  alignas(32) std::uint64_t raw[8];
  for (int i = 0; i < n; i += 8) {
    __m256i bits_a, bits_b;
    CIMNAV_ZIG_STEP(z.a0, z.a1, z.a2, z.a3, bits_a)
    CIMNAV_ZIG_STEP(z.b0, z.b1, z.b2, z.b3, bits_b)
    const __m256i layer_a = _mm256_and_si256(bits_a, layer_mask);
    const __m256i layer_b = _mm256_and_si256(bits_b, layer_mask);
    const __m256d xk_a = _mm256_i64gather_pd(t.x, layer_a, 8);
    const __m256d xk_b = _mm256_i64gather_pd(t.x, layer_b, 8);
    const __m256d rk_a = _mm256_i64gather_pd(t.ratio, layer_a, 8);
    const __m256d rk_b = _mm256_i64gather_pd(t.ratio, layer_b, 8);
    // Signed uniform in [-1, 1) from the top 52 bits (the scalar path uses
    // 53; one bit of grid resolution is statistically irrelevant and the
    // 52-bit value converts exactly with the exponent-bias trick).
    const __m256d vd_a = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(bits_a, 12), exp_bits)),
        exp_base);
    const __m256d vd_b = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(bits_b, 12), exp_bits)),
        exp_base);
    const __m256d u_a = _mm256_fmsub_pd(vd_a, u_scale, one);
    const __m256d u_b = _mm256_fmsub_pd(vd_b, u_scale, one);
    _mm256_storeu_pd(dst + i,
                     _mm256_mul_pd(_mm256_mul_pd(u_a, xk_a), vsigma));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_mul_pd(_mm256_mul_pd(u_b, xk_b), vsigma));
    const int mask_a = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_and_pd(u_a, abs_mask), rk_a, _CMP_LT_OQ));
    const int mask_b = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_and_pd(u_b, abs_mask), rk_b, _CMP_LT_OQ));
    if ((mask_a & mask_b) != 0xF) [[unlikely]] {
      _mm256_store_si256(reinterpret_cast<__m256i*>(raw), bits_a);
      _mm256_store_si256(reinterpret_cast<__m256i*>(raw + 4), bits_b);
      const int mask = mask_a | (mask_b << 4);
      for (int l = 0; l < 8; ++l) {
        if (!((mask >> l) & 1))
          dst[i + l] = sigma * zig_slow(raw[l], z.overflow);
      }
    }
  }
}

__attribute__((target("avx2,fma")))
void run_columns_avx2(const MacroView& v, const std::uint64_t* gated_planes,
                      const std::uint64_t* gated_rem,
                      const std::int32_t* word_list, int n_words,
                      std::uint64_t active_rows,
                      const std::uint8_t* out_mask, int col_begin,
                      int col_end, std::uint64_t noise_root, double* y) {
  const double adc_levels = static_cast<double>((1 << v.adc_bits) - 1);
  const double adc_step = static_cast<double>(v.n_in) / adc_levels;
  const double inv_adc_step = 1.0 / adc_step;
  const bool noisy = v.analog_noise && active_rows > 0;
  const double noise_sigma =
      noisy ? v.noise_coeff * std::sqrt(static_cast<double>(active_rows))
            : 0.0;
  const std::size_t words = static_cast<std::size_t>(v.words);
  const std::size_t col_stride = 2u * static_cast<std::size_t>(v.planes) *
                                 words;

  alignas(32) double wtab[kMaxCycles];
  const int cycles = fill_wtab(v, wtab);
  const int padded = (cycles + 3) & ~3;
  // Per-column noise slices, 8-aligned so zig_fill's whole-step overshoot
  // stays inside a column's own slice (pad lanes meet zero wtab weights).
  const int noise_stride = (padded + 7) & ~7;

  const __m256d vinv = _mm256_set1_pd(inv_adc_step);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vlev = _mm256_set1_pd(adc_levels);

  // One bulk fill for every active column of the call amortizes the
  // generator's setup and keeps its pipeline hot.
  int active_cols = 0;
  if (noisy) {
    if (out_mask == nullptr) {
      active_cols = col_end - col_begin;
    } else {
      for (int j = col_begin; j < col_end; ++j)
        active_cols += out_mask[static_cast<std::size_t>(j)] ? 1 : 0;
    }
  }
  thread_local std::vector<double> noise_all;
  if (noisy && active_cols > 0) {
    noise_all.resize(static_cast<std::size_t>(active_cols) *
                     static_cast<std::size_t>(noise_stride));
    ZigVec zig(noise_root);
    zig_fill(zig, noise_all.data(), active_cols * noise_stride,
             noise_sigma);
  }

  const FillCountsFn fill = select_fill_counts(v.words);
  const FillCountsDeltaFn dfill =
      word_list != nullptr
          ? select_fill_counts_delta(n_words, v.words,
                                     gated_planes != nullptr,
                                     gated_rem != nullptr)
          : nullptr;
  alignas(32) double counts[kMaxCycles];
  alignas(32) double counts_rem[kMaxCycles];
  const double* noise = noise_all.data();

  for (int j = col_begin; j < col_end; ++j) {
    if (out_mask != nullptr && !out_mask[static_cast<std::size_t>(j)]) {
      y[j] = 0.0;
      continue;
    }
    const std::uint64_t* col =
        v.weight_bits + static_cast<std::size_t>(j) * col_stride;
    if (dfill != nullptr) {
      dfill(col, gated_planes, gated_rem, word_list, n_words, 2 * v.planes,
            v.input_bits, words, counts, counts_rem);
      for (int i = cycles; i < padded; ++i) counts_rem[i] = 0.0;
    } else {
      fill(col, gated_planes, 2 * v.planes, v.input_bits, words, counts);
    }
    for (int i = cycles; i < padded; ++i) counts[i] = 0.0;

    __m256d vacc = _mm256_setzero_pd();
    for (int i = 0; i < padded; i += 4) {
      __m256d cnt = _mm256_load_pd(counts + i);
      // loadu: the heap noise buffer is only malloc-aligned.
      if (noisy) cnt = _mm256_add_pd(cnt, _mm256_loadu_pd(noise + i));
      __m256d code =
          _mm256_floor_pd(_mm256_fmadd_pd(cnt, vinv, vhalf));
      code = _mm256_min_pd(_mm256_max_pd(code, vzero), vlev);
      if (dfill != nullptr) {
        // Correlated double sample: the hold rail converts through the
        // same dense quantizer; the op emits the signed code difference.
        __m256d crm = _mm256_floor_pd(_mm256_fmadd_pd(
            _mm256_load_pd(counts_rem + i), vinv, vhalf));
        crm = _mm256_min_pd(_mm256_max_pd(crm, vzero), vlev);
        code = _mm256_sub_pd(code, crm);
      }
      vacc = _mm256_fmadd_pd(_mm256_load_pd(wtab + i), code, vacc);
    }
    if (noisy) noise += noise_stride;
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vacc);
    double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    acc *= adc_step;
    y[j] = acc * v.weight_scale * v.input_scale;
  }
}

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // CIMNAV_X86

}  // namespace

void run_columns(const MacroView& v, const std::uint64_t* gated_planes,
                 const std::uint64_t* gated_rem,
                 const std::int32_t* word_list, int n_words,
                 std::uint64_t active_rows, const std::uint8_t* out_mask,
                 int col_begin, int col_end, bool ideal, core::Rng* rng,
                 double* y) {
  if (ideal || rng == nullptr) {
    // The ideal reduction is exact integer arithmetic in double, so the
    // scalar kernel is already bit-identical to any evaluation order.
    scalar_run_columns(v, gated_planes, gated_rem, word_list, n_words,
                       active_rows, out_mask, col_begin, col_end,
                       /*ideal=*/true, nullptr, y);
    return;
  }
  // One root draw per call keys the noise stream; the caller's stream
  // advances identically whether the AVX2 or the scalar body runs.
  const std::uint64_t noise_root = (*rng)();
#if CIMNAV_X86
  static const bool kHaveAvx2 = cpu_has_avx2_fma();
  if (kHaveAvx2) {
    run_columns_avx2(v, gated_planes, gated_rem, word_list, n_words,
                     active_rows, out_mask, col_begin, col_end, noise_root,
                     y);
    return;
  }
#endif
  // Scalar fallback: the scalar kernel drawing sequentially from a stream
  // keyed off the root (one normal_fast per cycle per live column, in
  // column order).
  core::Rng noise_rng = core::Rng::stream(noise_root, 0);
  scalar_run_columns(v, gated_planes, gated_rem, word_list, n_words,
                     active_rows, out_mask, col_begin, col_end,
                     /*ideal=*/false, &noise_rng, y);
}

}  // namespace cimnav::cimsram
