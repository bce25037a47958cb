#include "conformance/conformance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "conformance/stat_tolerances.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"

namespace cimnav::cimsram::conformance {
namespace {

using core::Rng;

// splitmix64: deterministic per-case seeds from the table indices, so a
// case's draws never depend on how the table was pruned or ordered.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr double kInputScale = 1.0 / 63.0;  // 6-bit activation grid

// The pool behind every kPooled case. Function-local static: built on
// first use, shared across cases (3 workers is enough to make a reorder
// of the fan-out visible).
core::ThreadPool& case_pool() {
  static core::ThreadPool pool(3);
  return pool;
}

std::vector<double> case_weights(const CaseSpec& c) {
  Rng rng = Rng::stream(c.seed, 0xCADu);
  std::vector<double> w(static_cast<std::size_t>(c.geom.n_out) *
                        static_cast<std::size_t>(c.geom.n_in));
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  return w;
}

CimMacroConfig case_config(const CaseSpec& c) {
  CimMacroConfig cfg;
  switch (c.mode) {
    case NoiseMode::kIdeal:
      break;  // defaults; the ideal read ignores the noise model anyway
    case NoiseMode::kAdcOnly:
      cfg.analog_noise = false;
      cfg.adc_bits = 4;  // coarse: quantization is the whole point
      break;
    case NoiseMode::kAnalog:
      cfg.analog_noise = true;
      cfg.adc_bits = 12;  // quantization negligible vs noise
      cfg.noise_coeff = 0.45;
      break;
  }
  return cfg;
}

struct Checker {
  const CaseSpec& c;
  CaseResult result;

  void fail(const std::string& what) {
    if (!result.pass) return;  // first failure wins (it has the repro)
    result.pass = false;
    result.failure = what + " | repro: " + c.repro();
  }

  /// Element-wise bitwise comparison of two output vectors.
  void expect_bitwise(const std::vector<double>& got,
                      const std::vector<double>& want, const char* label) {
    if (got.size() != want.size()) {
      std::ostringstream os;
      os << label << ": size " << got.size() << " vs " << want.size();
      fail(os.str());
      return;
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      ++result.checks;
      if (got[j] != want[j]) {
        std::ostringstream os;
        os.precision(17);
        os << label << ": col " << j << " got " << got[j] << " want "
           << want[j];
        fail(os.str());
        return;
      }
    }
  }

  void expect_bitwise_batch(const std::vector<std::vector<double>>& got,
                            const std::vector<std::vector<double>>& want,
                            const char* label) {
    if (got.size() != want.size()) {
      fail(std::string(label) + ": batch size mismatch");
      return;
    }
    for (std::size_t s = 0; s < got.size(); ++s) {
      std::ostringstream os;
      os << label << " sample " << s;
      expect_bitwise(got[s], want[s], os.str().c_str());
      if (!result.pass) return;
    }
  }

  /// The two generators must have consumed the same number of draws:
  /// their next raw outputs agree.
  void expect_same_stream(Rng& got, Rng& want, const char* label) {
    ++result.checks;
    for (int k = 0; k < 4; ++k) {
      if (got() != want()) {
        fail(std::string(label) + ": rng streams diverged");
        return;
      }
    }
  }
};

// One read of a case: `x` (with its row / column masks) in, n_out values
// out; a null rng selects the ideal read.
using Reader = std::function<std::vector<double>(const std::vector<double>&,
                                                 Rng*)>;

// A dense read through `kernel` on the macro's view. The harness gates
// the encoding itself (encoding & row gate) and counts the driven rows.
Reader kernel_reader(ColumnKernel kernel, const CimMacro& m,
                     const std::vector<std::uint8_t>& im,
                     const std::vector<std::uint8_t>& om) {
  return [kernel, &m, &im, &om](const std::vector<double>& x, Rng* rng) {
    EncodedInput enc;
    m.encode_input(x, enc);
    std::vector<std::uint64_t> gate;
    pack_row_mask(im, m.n_in(), gate);
    std::vector<std::uint64_t> gated(enc.planes.size());
    for (std::size_t i = 0; i < gated.size(); ++i)
      gated[i] = enc.planes[i] & gate[i % gate.size()];
    std::uint64_t active_rows = 0;
    for (const std::uint64_t g : gate)
      active_rows += static_cast<std::uint64_t>(std::popcount(g));
    std::vector<double> y(static_cast<std::size_t>(m.n_out()));
    kernel(m.view(), gated.data(), nullptr, nullptr, 0, active_rows,
           om.empty() ? nullptr : om.data(), 0, m.n_out(), rng == nullptr,
           rng, y.data());
    return y;
  };
}

// The same read through the CimMacro primitives (encode + matvec_encoded).
Reader macro_reader(const CimMacro& m, const std::vector<std::uint8_t>& im,
                    const std::vector<std::uint8_t>& om) {
  return [&m, &im, &om](const std::vector<double>& x, Rng* rng) {
    return matvec(m, x, im, om, rng);
  };
}

// The harness's batch dispatch over a single read: one root is drawn
// from `rng`, then sample s is read once, a noisy read drawing from
// Rng::stream(root, s) (null `rng` = the ideal read). With a pool the
// samples run concurrently — the shape CimMlp::forward_window uses in
// production — and the per-sample streams make any partitioning
// bit-identical to the serial loop.
std::vector<std::vector<double>> read_batch(
    const Reader& read, const std::vector<std::vector<double>>& xs, Rng* rng,
    core::ThreadPool* pool = nullptr) {
  const std::uint64_t root = rng != nullptr ? (*rng)() : 0;
  std::vector<std::vector<double>> ys(xs.size());
  const auto body = [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t s = begin; s < end; ++s) {
      Rng sample_rng = Rng::stream(root, s);
      ys[s] = read(xs[s], rng != nullptr ? &sample_rng : nullptr);
    }
  };
  if (pool != nullptr)
    pool->parallel_for(xs.size(), 1, body);
  else
    body(0, xs.size(), 0);
  return ys;
}

// One differential read through `kernel` on the macro's view. The harness
// derives the add and remove gates and the touched-word list from the
// flip lists; a rail with no flipped rows is null.
std::vector<double> kernel_delta_read(ColumnKernel kernel, const CimMacro& m,
                                      const EncodedInput& enc,
                                      const std::vector<std::size_t>& add,
                                      const std::vector<std::size_t>& rem,
                                      Rng* rng) {
  const std::size_t words = static_cast<std::size_t>(m.gate_words());
  const auto gate_of = [&](const std::vector<std::size_t>& rows) {
    std::vector<std::uint64_t> gate(words, 0);
    for (const std::size_t r : rows)
      gate[r / 64] |= std::uint64_t{1} << (r % 64);
    return gate;
  };
  const auto gate_add = gate_of(add), gate_rem = gate_of(rem);
  std::vector<std::int32_t> word_list;
  for (std::size_t w = 0; w < words; ++w)
    if ((gate_add[w] | gate_rem[w]) != 0)
      word_list.push_back(static_cast<std::int32_t>(w));
  const auto gated_of = [&](const std::vector<std::uint64_t>& gate) {
    std::vector<std::uint64_t> gated(enc.planes.size());
    for (std::size_t i = 0; i < gated.size(); ++i)
      gated[i] = enc.planes[i] & gate[i % words];
    return gated;
  };
  const auto gated_add = gated_of(gate_add), gated_rem = gated_of(gate_rem);
  std::vector<double> y(static_cast<std::size_t>(m.n_out()));
  kernel(m.view(), add.empty() ? nullptr : gated_add.data(),
         rem.empty() ? nullptr : gated_rem.data(), word_list.data(),
         static_cast<int>(word_list.size()),
         static_cast<std::uint64_t>(add.size() + rem.size()), nullptr, 0,
         m.n_out(), rng == nullptr, rng, y.data());
  return y;
}

// The same differential read as a one-item matvec_delta_batch.
std::vector<double> macro_delta_read(const CimMacro& m,
                                     const EncodedInput& enc,
                                     const std::vector<std::size_t>& add,
                                     const std::vector<std::size_t>& rem,
                                     Rng* rng) {
  std::vector<double> y(static_cast<std::size_t>(m.n_out()), 0.0);
  DeltaItem it;
  it.enc = &enc;
  it.add_rows = add.data();
  it.n_add = add.size();
  it.rem_rows = rem.data();
  it.n_rem = rem.size();
  it.rng = rng;
  it.y = y.data();
  m.matvec_delta_batch(&it, 1);
  return y;
}

std::vector<std::vector<double>> case_batch_inputs(
    const CaseSpec& c, std::uint64_t first_sample, int count,
    std::vector<std::uint8_t>& in_mask, std::vector<std::uint8_t>& out_mask) {
  std::vector<std::vector<double>> xs(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s)
    make_case_input(c, first_sample + static_cast<std::uint64_t>(s),
                    xs[static_cast<std::size_t>(s)], in_mask, out_mask);
  return xs;
}

// Per-column moment bounds of `got` against `want` (reps x n_out samples
// of the same read, masked columns skipped). Returns the column with the
// widest oracle spread (-1 when none has any) so the caller can run
// the quantile check on it.
int expect_moments(Checker& ck, const std::vector<std::vector<double>>& got,
                   const std::vector<std::vector<double>>& want,
                   const std::vector<std::uint8_t>& om, const char* label) {
  const std::size_t reps = got.size();
  const double ratio_tol =
      std::max(core::tol::kStddevRatioTol,
               core::tol::kStddevRatioSigmas /
                   std::sqrt(2.0 * static_cast<double>(reps)));
  int best_col = -1;
  double best_sd = 0.0;
  for (std::size_t j = 0; j < want.front().size(); ++j) {
    if (!om.empty() && !om[j]) continue;
    core::RunningStats st, sr;
    for (std::size_t k = 0; k < reps; ++k) {
      st.add(got[k][j]);
      sr.add(want[k][j]);
    }
    ++ck.result.checks;
    const double se = std::sqrt((st.variance() + sr.variance()) /
                                static_cast<double>(reps));
    const double dm = std::abs(st.mean() - sr.mean());
    if (se < 1e-12) {
      // Degenerate column (fully clamped / zero input): means must agree
      // exactly up to representation noise.
      if (dm > 1e-9 * std::max(1.0, std::abs(sr.mean()))) {
        std::ostringstream os;
        os << label << "/mean(degenerate): col " << j << " " << st.mean()
           << " vs " << sr.mean();
        ck.fail(os.str());
        return -1;
      }
      continue;
    }
    if (dm > core::tol::kMeanStdErrFactor * se) {
      std::ostringstream os;
      os << label << "/mean: col " << j << " " << st.mean() << " vs "
         << sr.mean() << " (|d|=" << dm << " > "
         << core::tol::kMeanStdErrFactor << "*se="
         << core::tol::kMeanStdErrFactor * se << ")";
      ck.fail(os.str());
      return -1;
    }
    ++ck.result.checks;
    if (sr.stddev() > 0.0) {
      const double ratio = st.stddev() / sr.stddev();
      if (std::abs(ratio - 1.0) > ratio_tol) {
        std::ostringstream os;
        os << label << "/stddev: col " << j << " ratio " << ratio
           << " outside 1 +- " << ratio_tol;
        ck.fail(os.str());
        return -1;
      }
      if (sr.stddev() > best_sd) {
        best_sd = sr.stddev();
        best_col = static_cast<int>(j);
      }
    }
  }
  return best_col;
}

// ---------------------------------------------------------------- ideal

CaseResult check_ideal(const CaseSpec& c, ColumnKernel subject) {
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;

  switch (c.dispatch) {
    case Dispatch::kSingle: {
      std::vector<double> x;
      make_case_input(c, 0, x, im, om);
      ck.expect_bitwise(kernel_reader(subject, *m, im, om)(x, nullptr),
                        kernel_reader(&scalar_run_columns, *m, im, om)(
                            x, nullptr),
                        "ideal/single");
      break;
    }
    case Dispatch::kBatch: {
      const auto xs = case_batch_inputs(c, 0, 5, im, om);
      ck.expect_bitwise_batch(
          read_batch(kernel_reader(subject, *m, im, om), xs, nullptr),
          read_batch(kernel_reader(&scalar_run_columns, *m, im, om), xs,
                     nullptr),
          "ideal/batch");
      break;
    }
    case Dispatch::kPooled: {
      const auto xs = case_batch_inputs(c, 0, 6, im, om);
      const Reader read = macro_reader(*m, im, om);
      const auto pooled = read_batch(read, xs, nullptr, &case_pool());
      ck.expect_bitwise_batch(pooled, read_batch(read, xs, nullptr),
                              "ideal/pooled-vs-serial");
      ck.expect_bitwise_batch(
          pooled,
          read_batch(kernel_reader(&scalar_run_columns, *m, im, om), xs,
                     nullptr),
          "ideal/pooled-vs-oracle");
      break;
    }
    case Dispatch::kMultiJob: {
      for (std::uint64_t job = 0; job < 3; ++job) {
        const auto xs = case_batch_inputs(c, job * 8, 3, im, om);
        std::ostringstream os;
        os << "ideal/multijob " << job;
        ck.expect_bitwise_batch(
            read_batch(kernel_reader(subject, *m, im, om), xs, nullptr),
            read_batch(kernel_reader(&scalar_run_columns, *m, im, om), xs,
                       nullptr),
            os.str().c_str());
        if (!ck.result.pass) break;
      }
      break;
    }
    case Dispatch::kDelta:
    case Dispatch::kMacro:
      throw std::invalid_argument("conformance: no ideal case for dispatch " +
                                  std::string(to_string(c.dispatch)));
  }
  return ck.result;
}

// ------------------------------------------------------------- ADC-only

CaseResult check_adc(const CaseSpec& c, ColumnKernel subject) {
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;
  const Reader test = kernel_reader(subject, *m, im, om);
  const Reader oracle = kernel_reader(&scalar_run_columns, *m, im, om);

  if (c.dispatch == Dispatch::kSingle) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      std::vector<double> x;
      make_case_input(c, s, x, im, om);
      // Noise is off, so the noisy read is deterministic: the rngs
      // differ per read and must not matter.
      Rng rt(c.seed ^ 0x17), rr(c.seed ^ 0x23), rt2(c.seed ^ 0x31);
      const auto yt = test(x, &rt);
      ck.expect_bitwise(yt, oracle(x, &rr), "adc/single");
      ck.expect_bitwise(yt, test(x, &rt2), "adc/determinism");
      if (!ck.result.pass) break;
    }
  } else {  // kBatch
    const auto xs = case_batch_inputs(c, 0, 5, im, om);
    Rng rt(c.seed ^ 0x41), rr(c.seed ^ 0x43);
    ck.expect_bitwise_batch(read_batch(test, xs, &rt),
                            read_batch(oracle, xs, &rr), "adc/batch");
  }
  return ck.result;
}

// --------------------------------------------------------------- analog

int stat_reps(Tier tier) { return tier == Tier::kFull ? 1200 : 320; }

CaseResult check_statistical(const CaseSpec& c, ColumnKernel subject) {
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;
  std::vector<double> x;
  make_case_input(c, 0, x, im, om);

  const int reps = stat_reps(c.tier);
  const auto xs = std::vector<std::vector<double>>(
      static_cast<std::size_t>(reps), x);
  Rng rt(c.seed ^ 0x61), rr(c.seed ^ 0x67);
  const auto yt = read_batch(kernel_reader(subject, *m, im, om), xs, &rt);
  const auto yr =
      read_batch(kernel_reader(&scalar_run_columns, *m, im, om), xs, &rr);

  const int best_col = expect_moments(ck, yt, yr, om, "analog");
  if (!ck.result.pass || best_col < 0) return ck.result;

  // KS-style quantile agreement on the most informative column. The
  // bound is the asymptotic sample-quantile standard error for a normal
  // with the oracle's spread: sqrt(q(1-q)) / (pdf(z_q)/sd) / sqrt(reps),
  // combined over the two independent samples.
  const std::size_t col = static_cast<std::size_t>(best_col);
  std::vector<double> a(static_cast<std::size_t>(reps)),
      b(static_cast<std::size_t>(reps));
  core::RunningStats sr;
  for (std::size_t k = 0; k < a.size(); ++k) {
    a[k] = yt[k][col];
    b[k] = yr[k][col];
    sr.add(b[k]);
  }
  const double best_sd = sr.stddev();
  constexpr double kQ[] = {0.10, 0.25, 0.50, 0.75, 0.90};
  constexpr double kNormPdf[] = {0.17550, 0.31778, 0.39894, 0.31778,
                                 0.17550};
  for (int i = 0; i < 5; ++i) {
    ++ck.result.checks;
    const double qa = core::quantile(a, kQ[i]);
    const double qb = core::quantile(b, kQ[i]);
    const double se = std::sqrt(kQ[i] * (1.0 - kQ[i])) /
                      (kNormPdf[i] / best_sd) /
                      std::sqrt(static_cast<double>(reps)) * std::sqrt(2.0);
    if (std::abs(qa - qb) > core::tol::kQuantileStdErrFactor * se) {
      std::ostringstream os;
      os << "analog/quantile: col " << best_col << " q=" << kQ[i] << " "
         << qa << " vs " << qb << " (bound "
         << core::tol::kQuantileStdErrFactor * se << ")";
      ck.fail(os.str());
      return ck.result;
    }
  }
  return ck.result;
}

CaseResult check_pooled_identity(const CaseSpec& c) {
  // The concurrent-read determinism contract, per geometry: noise streams
  // are keyed on sample indices and every scratch buffer is per thread,
  // so concurrent noisy reads of one shared macro must produce the serial
  // loop's exact bits.
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;
  const auto xs = case_batch_inputs(c, 0, 6, im, om);
  const Reader read = macro_reader(*m, im, om);
  Rng ra(c.seed ^ 0x71), rb(c.seed ^ 0x71);
  ck.expect_bitwise_batch(read_batch(read, xs, &rb, &case_pool()),
                          read_batch(read, xs, &ra),
                          "analog/pooled-vs-serial");
  return ck.result;
}

CaseResult check_multijob(const CaseSpec& c) {
  // Multi-job dispatch: jobs draw from streams keyed off one root. The
  // schedule must be reproducible run-to-run, and distinct job keys must
  // actually decorrelate the noise.
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;
  const Reader read = macro_reader(*m, im, om);
  auto run_schedule = [&] {
    std::vector<std::vector<std::vector<double>>> jobs;
    for (std::uint64_t job = 0; job < 3; ++job) {
      const auto xs = case_batch_inputs(c, job * 8, 3, im, om);
      Rng jr = Rng::stream(c.seed, job);
      jobs.push_back(read_batch(read, xs, &jr));
    }
    return jobs;
  };
  const auto first = run_schedule();
  const auto second = run_schedule();
  for (std::size_t job = 0; job < first.size(); ++job) {
    std::ostringstream os;
    os << "analog/multijob-repro job " << job;
    ck.expect_bitwise_batch(first[job], second[job], os.str().c_str());
    if (!ck.result.pass) return ck.result;
  }
  // Same inputs, different job keys -> different noise somewhere.
  const auto xs = case_batch_inputs(c, 0, 3, im, om);
  Rng j0 = Rng::stream(c.seed, 101), j1 = Rng::stream(c.seed, 202);
  const auto y0 = read_batch(read, xs, &j0);
  const auto y1 = read_batch(read, xs, &j1);
  ++ck.result.checks;
  if (y0 == y1)
    ck.fail("analog/multijob-distinct: different job keys produced "
            "identical noisy outputs");
  return ck.result;
}

// ---------------------------------------------------------------- delta

// Tie-free geometry: an odd physical row count keeps every count off an
// ADC half-code boundary (see the header).
bool odd_rows(const CaseGeometry& g) { return (g.n_in % 2) == 1; }

// Deterministic disjoint flip lists for a delta case: ~20% of rows flip
// on, ~20% flip off, and rows 0 / n_in-1 anchor each side so neither
// list is ever empty (the delta-read contract).
void case_delta_rows(const CaseSpec& c, std::uint64_t salt,
                     std::vector<std::size_t>& add,
                     std::vector<std::size_t>& rem) {
  Rng rng = Rng::stream(c.seed, 0xDE17Au + salt);
  add.clear();
  rem.clear();
  add.push_back(0);
  for (std::size_t i = 1; i + 1 < static_cast<std::size_t>(c.geom.n_in);
       ++i) {
    const double u = rng.uniform();
    if (u < 0.2)
      add.push_back(i);
    else if (u < 0.4)
      rem.push_back(i);
  }
  rem.push_back(static_cast<std::size_t>(c.geom.n_in) - 1);
}

CaseResult check_delta(const CaseSpec& c, ColumnKernel subject) {
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om, no_mask;
  std::vector<double> x;
  make_case_input(c, 0, x, im, om);
  EncodedInput enc;
  m->encode_input(x, enc);
  std::vector<std::size_t> add, rem;
  case_delta_rows(c, 0, add, rem);
  const auto test = [&](const std::vector<std::size_t>& a,
                        const std::vector<std::size_t>& r, Rng* rng) {
    return kernel_delta_read(subject, *m, enc, a, r, rng);
  };

  if (c.mode == NoiseMode::kAdcOnly) {
    // Noise is off, so the differential read is deterministic and its
    // algebraic identities hold bitwise on every geometry (ties cancel:
    // both sides evaluate the same quantizer on the same counts).
    Rng r1(c.seed ^ 0x91), r2(c.seed ^ 0x93);
    const auto ya = test(add, rem, &r1);
    ck.expect_bitwise(test(add, rem, &r2), ya, "delta/determinism");

    // Swapping the rails must negate the op exactly: the correlated
    // double sample converts each rail independently.
    Rng r3(c.seed ^ 0x95);
    auto yb = test(rem, add, &r3);
    for (auto& v : yb) v = -v;
    ck.expect_bitwise(yb, ya, "delta/antisymmetry");

    // A one-sided op (no removed rows) degenerates to the dense gated
    // read over the flipped rows — same counts, same code lattice.
    Rng r4(c.seed ^ 0x97), r5(c.seed ^ 0x99);
    std::vector<std::uint8_t> add_mask(static_cast<std::size_t>(c.geom.n_in),
                                       0);
    for (const std::size_t r : add) add_mask[r] = 1;
    ck.expect_bitwise(test(add, {}, &r4),
                      kernel_reader(subject, *m, add_mask, no_mask)(x, &r5),
                      "delta/one-sided-vs-dense");

    if (odd_rows(c.geom)) {
      // Tie-free geometry: the deterministic delta read is bitwise
      // against the oracle, like the dense ADC-only tier.
      Rng r6(c.seed ^ 0x9b), r7(c.seed ^ 0x9d);
      ck.expect_bitwise(
          test(add, rem, &r6),
          kernel_delta_read(&scalar_run_columns, *m, enc, add, rem, &r7),
          "delta/vs-oracle");
    }
    return ck.result;
  }

  // kAnalog. First the batched-dispatch determinism contract: pooled
  // matvec_delta_batch must produce the serial schedule's exact bits.
  constexpr int kItems = 6;
  std::vector<std::vector<std::size_t>> adds(kItems), rems(kItems);
  for (int k = 0; k < kItems; ++k)
    case_delta_rows(c, static_cast<std::uint64_t>(k), adds[k], rems[k]);
  auto run_items = [&](core::ThreadPool* pool) {
    std::vector<Rng> rngs;
    rngs.reserve(kItems);
    for (int k = 0; k < kItems; ++k)
      rngs.push_back(Rng::stream(c.seed ^ 0xB17Cu,
                                 static_cast<std::uint64_t>(k)));
    std::vector<std::vector<double>> ys(
        kItems,
        std::vector<double>(static_cast<std::size_t>(c.geom.n_out), 0.0));
    std::vector<DeltaItem> items(kItems);
    for (int k = 0; k < kItems; ++k) {
      items[k].enc = &enc;
      items[k].add_rows = adds[k].data();
      items[k].n_add = adds[k].size();
      items[k].rem_rows = rems[k].data();
      items[k].n_rem = rems[k].size();
      items[k].rng = &rngs[static_cast<std::size_t>(k)];
      items[k].y = ys[static_cast<std::size_t>(k)].data();
    }
    m->matvec_delta_batch(items.data(), items.size(), pool);
    return ys;
  };
  ck.expect_bitwise_batch(run_items(&case_pool()), run_items(nullptr),
                          "delta/pooled-vs-serial");
  if (!ck.result.pass) return ck.result;

  // Statistical tier: the noisy differential read must be
  // distribution-matched against the oracle — per-column mean and spread
  // over independent keyed repetitions of the same flip lists.
  const int reps = stat_reps(c.tier);
  std::vector<std::vector<double>> yt(static_cast<std::size_t>(reps)),
      yr(static_cast<std::size_t>(reps));
  for (int k = 0; k < reps; ++k) {
    Rng rt = Rng::stream(c.seed ^ 0x61, static_cast<std::uint64_t>(k));
    Rng rr = Rng::stream(c.seed ^ 0x67, static_cast<std::uint64_t>(k));
    yt[static_cast<std::size_t>(k)] = test(add, rem, &rt);
    yr[static_cast<std::size_t>(k)] =
        kernel_delta_read(&scalar_run_columns, *m, enc, add, rem, &rr);
  }
  expect_moments(ck, yt, yr, no_mask, "delta");
  return ck.result;
}

// ---------------------------------------------------------------- macro

CaseResult check_macro(const CaseSpec& c) {
  // CimMacro's two reads must be exactly run_columns on view() over the
  // planes the harness gates itself — same bits and the same rng
  // consumption, noisy reads included.
  Checker ck{c, {}};
  const auto m = make_case_macro(c);
  std::vector<std::uint8_t> im, om;
  std::vector<double> x;
  make_case_input(c, 0, x, im, om);
  const Reader kernel = kernel_reader(&run_columns, *m, im, om);
  const Reader macro = macro_reader(*m, im, om);

  ck.expect_bitwise(macro(x, nullptr), kernel(x, nullptr), "macro/ideal");
  Rng rm(c.seed ^ 0xC1), rk(c.seed ^ 0xC1);
  ck.expect_bitwise(macro(x, &rm), kernel(x, &rk), "macro/noisy");
  ck.expect_same_stream(rm, rk, "macro/noisy");

  EncodedInput enc;
  m->encode_input(x, enc);
  std::vector<std::size_t> add, rem;
  case_delta_rows(c, 0, add, rem);
  ck.expect_bitwise(macro_delta_read(*m, enc, add, rem, nullptr),
                    kernel_delta_read(&run_columns, *m, enc, add, rem,
                                      nullptr),
                    "macro/delta-ideal");
  for (const bool one_sided : {false, true}) {
    const std::vector<std::size_t> r =
        one_sided ? std::vector<std::size_t>{} : rem;
    Rng dm(c.seed ^ 0xC3), dk(c.seed ^ 0xC3);
    const char* label =
        one_sided ? "macro/delta-one-sided" : "macro/delta-noisy";
    ck.expect_bitwise(macro_delta_read(*m, enc, add, r, &dm),
                      kernel_delta_read(&run_columns, *m, enc, add, r, &dk),
                      label);
    ck.expect_same_stream(dm, dk, label);
  }
  return ck.result;
}

}  // namespace

// -------------------------------------------------------------- strings

const char* to_string(InputFamily f) {
  switch (f) {
    case InputFamily::kDense: return "dense";
    case InputFamily::kSparse: return "sparse";
    case InputFamily::kExtreme: return "extreme";
    case InputFamily::kBitplaneEdge: return "bitplane";
  }
  return "?";
}

const char* to_string(NoiseMode m) {
  switch (m) {
    case NoiseMode::kIdeal: return "ideal";
    case NoiseMode::kAdcOnly: return "adc";
    case NoiseMode::kAnalog: return "analog";
  }
  return "?";
}

const char* to_string(Dispatch d) {
  switch (d) {
    case Dispatch::kSingle: return "single";
    case Dispatch::kBatch: return "batch";
    case Dispatch::kPooled: return "pooled";
    case Dispatch::kMultiJob: return "multijob";
    case Dispatch::kDelta: return "delta";
    case Dispatch::kMacro: return "macro";
  }
  return "?";
}

const char* to_string(Tier t) {
  return t == Tier::kFull ? "full" : "quick";
}

namespace {

template <typename E>
E parse_enum(std::string_view v, const std::vector<E>& all,
             const char* what) {
  for (E e : all)
    if (v == to_string(e)) return e;
  throw std::invalid_argument("conformance repro: unknown " +
                              std::string(what) + " '" + std::string(v) +
                              "'");
}

}  // namespace

std::string CaseSpec::repro() const {
  std::ostringstream os;
  os << "geom=" << geom.n_in << "x" << geom.n_out
     << " family=" << to_string(family) << " mode=" << to_string(mode)
     << " dispatch=" << to_string(dispatch) << " seed=0x" << std::hex
     << seed << std::dec << " tier=" << to_string(tier);
  return os.str();
}

CaseSpec CaseSpec::parse_repro(std::string_view line) {
  CaseSpec c;
  bool have_geom = false, have_seed = false;
  std::istringstream is{std::string(line)};
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("conformance repro: malformed token '" +
                                  token + "'");
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    auto parse_pair = [&](int& a, int& b) {
      const auto x = val.find('x');
      if (x == std::string::npos)
        throw std::invalid_argument("conformance repro: malformed '" + key +
                                    "' value '" + val + "'");
      a = std::stoi(val.substr(0, x));
      b = std::stoi(val.substr(x + 1));
    };
    if (key == "geom") {
      parse_pair(c.geom.n_in, c.geom.n_out);
      have_geom = true;
    } else if (key == "family") {
      c.family = parse_enum(val, families(), "family");
    } else if (key == "mode") {
      c.mode = parse_enum(
          val,
          std::vector<NoiseMode>{NoiseMode::kIdeal, NoiseMode::kAdcOnly,
                                 NoiseMode::kAnalog},
          "mode");
    } else if (key == "dispatch") {
      c.dispatch = parse_enum(
          val,
          std::vector<Dispatch>{Dispatch::kSingle, Dispatch::kBatch,
                                Dispatch::kPooled, Dispatch::kMultiJob,
                                Dispatch::kDelta, Dispatch::kMacro},
          "dispatch");
    } else if (key == "seed") {
      c.seed = std::stoull(val, nullptr, 0);
      have_seed = true;
    } else if (key == "tier") {
      c.tier = parse_enum(val, std::vector<Tier>{Tier::kQuick, Tier::kFull},
                          "tier");
    } else {
      throw std::invalid_argument("conformance repro: unknown key '" + key +
                                  "'");
    }
  }
  CIMNAV_REQUIRE(have_geom && have_seed,
                 "conformance repro needs geom= and seed=");
  return c;
}

// ----------------------------------------------------------- case table

std::vector<InputFamily> families() {
  return {InputFamily::kDense, InputFamily::kSparse, InputFamily::kExtreme,
          InputFamily::kBitplaneEdge};
}

std::vector<CaseGeometry> geometries(Tier tier) {
  // Odd-row shapes double as the ADC-only bitwise geometries (tie-free,
  // see the header).
  std::vector<CaseGeometry> g = {
      {97, 24},   // odd rows, two gate words
      {149, 37},  // odd + ragged third word
      {128, 96},  // two full gate words
      {150, 32},  // ragged third word (22 rows)
  };
  if (tier == Tier::kFull) {
    g.push_back({256, 64});   // four full gate words
    g.push_back({257, 48});   // odd just past four words
    g.push_back({192, 120});  // three full words, wide
    g.push_back({320, 128});  // five full words, widest
  }
  return g;
}

std::vector<CaseSpec> cases_for(Tier tier) {
  std::vector<CaseSpec> out;
  const auto geoms = geometries(tier);
  const auto fams = families();
  std::uint64_t idx = 0;
  auto push = [&](const CaseGeometry& g, InputFamily f, NoiseMode m,
                  Dispatch d) {
    CaseSpec c;
    c.geom = g;
    c.family = f;
    c.mode = m;
    c.dispatch = d;
    c.tier = tier;
    c.seed = mix(idx++ * 0x10001u + static_cast<std::uint64_t>(f) * 131u +
                 static_cast<std::uint64_t>(m) * 17u +
                 static_cast<std::uint64_t>(d));
    out.push_back(std::move(c));
  };
  for (const auto& g : geoms) {
    for (InputFamily f : fams) {
      // Ideal path: every dispatch shape, bitwise everywhere.
      for (Dispatch d : {Dispatch::kSingle, Dispatch::kBatch,
                         Dispatch::kPooled, Dispatch::kMultiJob})
        push(g, f, NoiseMode::kIdeal, d);
      // ADC-only: deterministic noisy entry points, bitwise against the
      // oracle — only on tie-free geometries (odd rows).
      if (odd_rows(g)) {
        push(g, f, NoiseMode::kAdcOnly, Dispatch::kSingle);
        push(g, f, NoiseMode::kAdcOnly, Dispatch::kBatch);
      }
      // Analog: statistical vs the oracle (batch), pooled-vs-serial
      // bit-identity, and keyed multi-job reproducibility (dense only —
      // the noise model does not see the input family).
      push(g, f, NoiseMode::kAnalog, Dispatch::kBatch);
      push(g, f, NoiseMode::kAnalog, Dispatch::kPooled);
      if (f == InputFamily::kDense)
        push(g, f, NoiseMode::kAnalog, Dispatch::kMultiJob);
      // Delta dispatch (differential compute-reuse read): deterministic
      // identities everywhere + bitwise against the oracle on tie-free
      // geometries; pooled bit-identity and noise statistics vs the
      // oracle on the dense family (the noise model does not see the
      // input family).
      push(g, f, NoiseMode::kAdcOnly, Dispatch::kDelta);
      if (f == InputFamily::kDense)
        push(g, f, NoiseMode::kAnalog, Dispatch::kDelta);
    }
  }
  // CimMacro against its kernel, noisy reads included. Appended after the
  // loop above so the seeds of the other cases do not depend on it.
  for (const auto& g : geoms)
    for (InputFamily f : fams) push(g, f, NoiseMode::kAnalog, Dispatch::kMacro);
  return out;
}

std::vector<CaseSpec> cases_for(InputFamily f, Tier tier) {
  auto all = cases_for(tier);
  std::vector<CaseSpec> out;
  for (auto& c : all)
    if (c.family == f) out.push_back(std::move(c));
  return out;
}

// ------------------------------------------------------------ generator

void make_case_input(const CaseSpec& c, std::uint64_t sample_id,
                     std::vector<double>& x,
                     std::vector<std::uint8_t>& in_mask,
                     std::vector<std::uint8_t>& out_mask) {
  const int n_in = c.geom.n_in;
  const int n_out = c.geom.n_out;
  Rng rng = Rng::stream(c.seed, 0xF00du + sample_id);
  x.assign(static_cast<std::size_t>(n_in), 0.0);
  in_mask.clear();
  out_mask.clear();
  switch (c.family) {
    case InputFamily::kDense:
      for (auto& v : x) v = rng.uniform();
      break;
    case InputFamily::kSparse: {
      for (auto& v : x) v = rng.uniform() < 0.15 ? rng.uniform() : 0.0;
      in_mask.assign(static_cast<std::size_t>(n_in), 0);
      for (auto& m : in_mask) m = rng.uniform() < 0.7 ? 1 : 0;
      // At least one live row so active_rows never collapses to zero.
      in_mask[0] = 1;
      x[0] = 0.5;
      break;
    }
    case InputFamily::kExtreme: {
      // Clamp-path magnitudes: negatives clamp to code 0, huge values to
      // the top code, denormals round to 0 — every branch of the input
      // quantizer.
      static constexpr double kVals[] = {0.0,  10.0,   -3.0, 1.0,
                                         4e-3, 0.503,  1e-300, 0.999999};
      for (int i = 0; i < n_in; ++i)
        x[static_cast<std::size_t>(i)] =
            kVals[(static_cast<std::uint64_t>(i) + sample_id) % 8];
      break;
    }
    case InputFamily::kBitplaneEdge: {
      // Exact single-plane and all-ones codes on the 6-bit grid, plus
      // column masks touching both ends of the output range.
      static constexpr int kCodes[] = {1, 2, 4, 8, 16, 32, 63, 31, 21, 42};
      for (int i = 0; i < n_in; ++i)
        x[static_cast<std::size_t>(i)] =
            kCodes[(static_cast<std::uint64_t>(i) + sample_id) % 10] *
            kInputScale;
      out_mask.assign(static_cast<std::size_t>(n_out), 1);
      out_mask.front() = 0;
      out_mask.back() = 0;
      for (int j = 0; j < n_out; j += 7)
        out_mask[static_cast<std::size_t>(j)] = 0;
      break;
    }
  }
}

std::unique_ptr<CimMacro> make_case_macro(const CaseSpec& c) {
  CIMNAV_REQUIRE(c.geom.n_in > 0 && c.geom.n_out > 0,
                 "conformance case needs a positive geometry");
  return std::make_unique<CimMacro>(case_weights(c), c.geom.n_out,
                                    c.geom.n_in, case_config(c),
                                    kInputScale);
}

// -------------------------------------------------------------- running

CaseResult run_case(const CaseSpec& c, ColumnKernel subject) {
  switch (c.dispatch) {
    case Dispatch::kDelta:
      return check_delta(c, subject);
    case Dispatch::kMacro:
      return check_macro(c);
    default:
      break;
  }
  switch (c.mode) {
    case NoiseMode::kIdeal:
      return check_ideal(c, subject);
    case NoiseMode::kAdcOnly:
      return check_adc(c, subject);
    case NoiseMode::kAnalog:
      switch (c.dispatch) {
        case Dispatch::kPooled:
          return check_pooled_identity(c);
        case Dispatch::kMultiJob:
          return check_multijob(c);
        default:
          return check_statistical(c, subject);
      }
  }
  throw std::invalid_argument("conformance: unknown noise mode");
}

Tier tier_from_env() {
  const char* v = std::getenv("CIMNAV_CONFORMANCE_TIER");
  return (v != nullptr && std::string_view(v) == "full") ? Tier::kFull
                                                         : Tier::kQuick;
}

}  // namespace cimnav::cimsram::conformance
