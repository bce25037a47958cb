#include "cimsram/backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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

// ---------------------------------------------------------------------------
// Read noise: a lane-parallel ziggurat. Eight xoshiro256++ lanes run as two
// chains of four (chain A is lanes 0-3, chain B lanes 4-7); each step yields
// one raw draw per lane, and lane l of step k writes the draw dst[8k + l].
// The ~0.5% of lanes that fail the no-reject test fall back, in lane order,
// to an exact scalar wedge/tail handler fed by an overflow stream. The AVX2
// body (zig_fill) runs the lanes as __m256i registers, the portable body
// (zig_fill_portable) as plain integers; both produce the same bits.
// ---------------------------------------------------------------------------

// 512-layer ziggurat tables, plus the layer-edge densities
// fx[i] = exp(-x_i^2 / 2) so the wedge test costs a single exp. (R, V)
// solved with the standard closure condition (x_N = 0) by bisection; the
// same solver reproduces Doornik's published 128/256-layer constants to
// 13 digits. 512 layers keep the slow-path rate at ~0.5% per lane.
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

// The generator of one read, seeded from its root and consumed by one fill
// call: s[w][l] is xoshiro256++ state word w of lane l, so s[w] + 0 and
// s[w] + 4 load as chain A's and chain B's register of word w.
struct ZigVec {
  alignas(32) std::uint64_t s[4][8];
  core::Rng overflow;  // drives wedge/tail retries of rejected lanes

  // Seeds each lane exactly like core::Rng: a SplitMix64 chain per lane,
  // lanes keyed by decorrelated roots.
  explicit ZigVec(std::uint64_t root) : overflow(root ^ 0x9E3779B97F4A7C15ull) {
    for (int l = 0; l < 8; ++l) {
      std::uint64_t sm = root + 0xBF58476D1CE4E5B9ull *
                                    static_cast<std::uint64_t>(l + 1);
      for (int w = 0; w < 4; ++w) {
        sm += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = sm;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        s[w][l] = z ^ (z >> 31);
      }
      if ((s[0][l] | s[1][l] | s[2][l] | s[3][l]) == 0) s[0][l] = 1;
    }
  }
};

// Fills dst[0 .. round_up8(n)) with sigma * N(0, 1) draws; the caller's
// buffer must have room for the rounded-up count (extra values land in
// zero-weight pad cycles of the ADC stage). Every step is exact integer
// work or an exact product except the two rounded multiplies of
// (u * x) * sigma, which the AVX2 body rounds the same way.
void zig_fill_portable(ZigVec& z, double* dst, int n, double sigma) {
  const ZigTables& t = zig_tables();
  std::uint64_t bits[8];
  for (int i = 0; i < n; i += 8) {
    unsigned rejected = 0;
    for (int l = 0; l < 8; ++l) {
      std::uint64_t& s0 = z.s[0][l];
      std::uint64_t& s1 = z.s[1][l];
      std::uint64_t& s2 = z.s[2][l];
      std::uint64_t& s3 = z.s[3][l];
      bits[l] = std::rotl(s0 + s3, 23) + s0;
      const std::uint64_t t17 = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t17;
      s3 = std::rotl(s3, 45);
      const int layer = static_cast<int>(bits[l] & (ZigTables::kLayers - 1));
      // Signed uniform in [-1, 1) from the top 52 bits, exact in double.
      const double u =
          static_cast<double>(static_cast<std::int64_t>(bits[l] >> 12)) *
              0x1.0p-51 -
          1.0;
      dst[i + l] = u * t.x[layer] * sigma;
      if (!(std::abs(u) < t.ratio[layer])) rejected |= 1u << l;
    }
    if (rejected != 0) [[unlikely]] {
      for (int l = 0; l < 8; ++l)
        if ((rejected >> l) & 1u)
          dst[i + l] = sigma * zig_slow(bits[l], z.overflow);
    }
  }
}

using ZigFillFn = void (*)(ZigVec&, double*, int, double);

// Draws the noise of one read with `fill`: one `stride`-value slice per
// active column of [col_begin, col_end), in column order, from the
// generator keyed off `root`. Returns nullptr when every column is masked.
const double* draw_read_noise(ZigFillFn fill, std::uint64_t root,
                              double sigma, int stride,
                              const std::uint8_t* out_mask, int col_begin,
                              int col_end) {
  int active_cols = col_end - col_begin;
  if (out_mask != nullptr) {
    active_cols = 0;
    for (int j = col_begin; j < col_end; ++j)
      active_cols += out_mask[static_cast<std::size_t>(j)] ? 1 : 0;
  }
  if (active_cols <= 0) return nullptr;
  thread_local std::vector<double> noise_all;
  noise_all.resize(static_cast<std::size_t>(active_cols) *
                   static_cast<std::size_t>(stride));
  ZigVec zig(root);
  fill(zig, noise_all.data(), active_cols * stride, sigma);
  return noise_all.data();
}

// One ADC conversion: floor(count / step + 1/2) with the scaling and the
// half-code offset rounded once (the AVX2 body's fmadd), clamped to
// [0, levels]. floor(v + 0.5) equals the seed's round() here: they
// differ only on negative half-integers, which the clamp maps to 0.
inline double adc_code(double count, double inv_step, double levels) {
  const double code = std::floor(std::fma(count, inv_step, 0.5));
  return code < 0.0 ? 0.0 : (code > levels ? levels : code);
}

}  // namespace

// ---------------------------------------------------------------------------
// Portable kernel: the exact ideal reduction, and for every other read the
// AVX2 body's computation in scalar code. A noisy read fills one 8-aligned
// noise slice per live column with zig_fill_portable, then quantizes each
// cycle through adc_code. Every shift-add product is +-2^k times an integer
// code below 2^16 and every partial sum stays below 2^53, so the
// reduction is exact in any order; the ADC rounding and the noise products
// are the only rounded steps, and both round as the AVX2 body does. The
// noise is written to its buffer before it is added, so no compiler can
// fuse it into counts + noise. `word_list` non-null selects the
// differential delta read (backend.hpp).
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
  const bool adc = !ideal && rng != nullptr;
  const std::uint64_t noise_root = adc ? (*rng)() : 0;
  const bool noisy = adc && v.analog_noise && active_rows > 0;
  const std::size_t words = static_cast<std::size_t>(v.words);
  const std::size_t col_stride = 2u * static_cast<std::size_t>(v.planes) *
                                 words;

  double wtab[kMaxCycles];
  const int cycles = fill_wtab(v, wtab);
  const int noise_stride = (cycles + 7) & ~7;
  const double* noise =
      noisy ? draw_read_noise(
                  &zig_fill_portable, noise_root,
                  v.noise_coeff * std::sqrt(static_cast<double>(active_rows)),
                  noise_stride, out_mask, col_begin, col_end)
            : nullptr;

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

    // Stage 2: analog disturbance, ADC and shift-add reduction. On the
    // differential path the op's single disturbance lands on the sample
    // rail (its sigma already spans every driven line, active_rows); each
    // rail quantizes through the dense quantizer and the op emits the
    // signed code difference (correlated double sampling), so a delta
    // accumulation stays on the dense read's code lattice.
    double acc = 0.0;
    if (adc) {
      for (int i = 0; i < cycles; ++i) {
        double code = adc_code(noisy ? counts[i] + noise[i] : counts[i],
                               inv_adc_step, adc_levels);
        if (dfill != nullptr)
          code -= adc_code(counts_rem[i], inv_adc_step, adc_levels);
        acc += wtab[i] * code;
      }
      if (noisy) noise += noise_stride;
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
// AVX2 body: the two xoshiro256++ chains as __m256i state sets (two
// independent dependency chains, so the serial state update never starves
// the FP pipes), layer tables fetched with vpgatherqq, and a fused noise +
// ADC + shift-add stage that runs four cycles per instruction with FMA.
// ---------------------------------------------------------------------------

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

// zig_fill_portable's contract, with the lanes in registers.
__attribute__((target("avx2,fma")))
void zig_fill(ZigVec& z, double* dst, int n, double sigma) {
  const ZigTables& t = zig_tables();
  // Register 2w + c of the state holds word w of chain c's four lanes.
  const __m256i* const state = reinterpret_cast<const __m256i*>(&z.s[0][0]);
  __m256i a0 = _mm256_load_si256(state + 0), b0 = _mm256_load_si256(state + 1);
  __m256i a1 = _mm256_load_si256(state + 2), b1 = _mm256_load_si256(state + 3);
  __m256i a2 = _mm256_load_si256(state + 4), b2 = _mm256_load_si256(state + 5);
  __m256i a3 = _mm256_load_si256(state + 6), b3 = _mm256_load_si256(state + 7);
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
    CIMNAV_ZIG_STEP(a0, a1, a2, a3, bits_a)
    CIMNAV_ZIG_STEP(b0, b1, b2, b3, bits_b)
    const __m256i layer_a = _mm256_and_si256(bits_a, layer_mask);
    const __m256i layer_b = _mm256_and_si256(bits_b, layer_mask);
    const __m256d xk_a = _mm256_i64gather_pd(t.x, layer_a, 8);
    const __m256d xk_b = _mm256_i64gather_pd(t.x, layer_b, 8);
    const __m256d rk_a = _mm256_i64gather_pd(t.ratio, layer_a, 8);
    const __m256d rk_b = _mm256_i64gather_pd(t.ratio, layer_b, 8);
    // Signed uniform in [-1, 1) from the top 52 bits (zig_slow uses 53;
    // the 52-bit value converts exactly with the exponent-bias trick).
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
  const double* noise =
      noisy ? draw_read_noise(
                  &zig_fill, noise_root,
                  v.noise_coeff * std::sqrt(static_cast<double>(active_rows)),
                  noise_stride, out_mask, col_begin, col_end)
            : nullptr;

  const FillCountsFn fill = select_fill_counts(v.words);
  const FillCountsDeltaFn dfill =
      word_list != nullptr
          ? select_fill_counts_delta(n_words, v.words,
                                     gated_planes != nullptr,
                                     gated_rem != nullptr)
          : nullptr;
  alignas(32) double counts[kMaxCycles];
  alignas(32) double counts_rem[kMaxCycles];

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
#if CIMNAV_X86
  static const bool kHaveAvx2 = cpu_has_avx2_fma();
  if (kHaveAvx2 && !ideal && rng != nullptr) {
    // The same single root draw as scalar_run_columns takes.
    run_columns_avx2(v, gated_planes, gated_rem, word_list, n_words,
                     active_rows, out_mask, col_begin, col_end, (*rng)(), y);
    return;
  }
#endif
  scalar_run_columns(v, gated_planes, gated_rem, word_list, n_words,
                     active_rows, out_mask, col_begin, col_end, ideal, rng,
                     y);
}

}  // namespace cimnav::cimsram
