// Micro-benchmarks for the simulator's hot paths: likelihood evaluation on
// the inverter array, particle-filter steps, CIM macro matrix-vector
// products, and full MC-Dropout predictions through the batched engine.
// These measure the *simulator*, not the modeled hardware — engineering
// numbers for users extending the library.
//
// The headline comparison pits the batched multi-threaded engine against a
// faithful port of the seed (pre-engine) execution path: per-call bit-plane
// allocation, Box-Muller noise from one shared stream, scalar loops, and
// strictly serial MC iterations. Results are written to BENCH_micro.json.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "circuit/array.hpp"
#include "cimsram/backend.hpp"
#include "cimsram/cim_macro.hpp"
#include "conformance/conformance.hpp"
#include "core/thread_pool.hpp"
#include "filter/measurement.hpp"
#include "filter/particle_filter.hpp"
#include "filter/scenario.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "prob/gmm.hpp"
#include "prob/hmg.hpp"
#include "prob/logspace.hpp"
#include "vision/depth.hpp"

namespace {

using namespace cimnav;

// ---------------------------------------------------------------------------
// Faithful port of the seed CimMacro/CimMlp hot path (pre-engine): used as
// the benchmark baseline so the engine's speedup is measured against the
// algorithm this PR replaced, compiled with identical flags.
// ---------------------------------------------------------------------------

class SeedMacro {
 public:
  SeedMacro(const std::vector<double>& weights, int n_out, int n_in,
            const cimsram::CimMacroConfig& config, double input_scale)
      : config_(config), n_in_(n_in), n_out_(n_out),
        input_scale_(input_scale) {
    double w_max = 0.0;
    for (double w : weights) w_max = std::max(w_max, std::abs(w));
    const int mag_max = (1 << (config.weight_bits - 1)) - 1;
    weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;
    words_ = (n_in + 63) / 64;
    const int planes = config.weight_bits - 1;
    columns_.resize(static_cast<std::size_t>(n_out));
    for (int j = 0; j < n_out; ++j) {
      auto& col = columns_[static_cast<std::size_t>(j)];
      col.pos.resize(static_cast<std::size_t>(planes));
      col.neg.resize(static_cast<std::size_t>(planes));
      for (auto& p : col.pos)
        p.bits.assign(static_cast<std::size_t>(words_), 0);
      for (auto& p : col.neg)
        p.bits.assign(static_cast<std::size_t>(words_), 0);
      for (int i = 0; i < n_in; ++i) {
        const double w =
            weights[static_cast<std::size_t>(j) *
                        static_cast<std::size_t>(n_in) +
                    static_cast<std::size_t>(i)];
        int q = static_cast<int>(std::lround(w / weight_scale_));
        q = std::clamp(q, -mag_max, mag_max);
        const int mag = std::abs(q);
        auto& side = q >= 0 ? col.pos : col.neg;
        for (int p = 0; p < planes; ++p) {
          if ((mag >> p) & 1)
            side[static_cast<std::size_t>(p)]
                .bits[static_cast<std::size_t>(i / 64)] |=
                (std::uint64_t{1} << (i % 64));
        }
      }
    }
  }

  int n_in() const { return n_in_; }

  std::vector<double> matvec(const std::vector<double>& x,
                             const std::vector<std::uint8_t>& in_mask,
                             const std::vector<std::uint8_t>& out_mask,
                             core::Rng& rng) const {
    // Per-call gate + bit-plane allocation, exactly like the seed.
    std::vector<std::uint64_t> gate(static_cast<std::size_t>(words_), 0);
    for (int i = 0; i < n_in_; ++i) {
      if (in_mask.empty() || in_mask[static_cast<std::size_t>(i)])
        gate[static_cast<std::size_t>(i / 64)] |=
            (std::uint64_t{1} << (i % 64));
    }
    std::vector<std::vector<std::uint64_t>> xbits(
        static_cast<std::size_t>(config_.input_bits),
        std::vector<std::uint64_t>(static_cast<std::size_t>(words_), 0));
    std::uint64_t active_rows = 0;
    for (int i = 0; i < n_in_; ++i) {
      const bool gated =
          (gate[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1;
      if (!gated) continue;
      ++active_rows;
      const int max_code = (1 << config_.input_bits) - 1;
      const int code = static_cast<int>(
          std::lround(x[static_cast<std::size_t>(i)] / input_scale_));
      const auto q =
          static_cast<std::uint32_t>(std::clamp(code, 0, max_code));
      for (int b = 0; b < config_.input_bits; ++b) {
        if ((q >> b) & 1)
          xbits[static_cast<std::size_t>(b)]
               [static_cast<std::size_t>(i / 64)] |=
              (std::uint64_t{1} << (i % 64));
      }
    }
    const int planes = config_.weight_bits - 1;
    const double adc_levels =
        static_cast<double>((1 << config_.adc_bits) - 1);
    const double adc_step = static_cast<double>(n_in_) / adc_levels;
    std::vector<double> y(static_cast<std::size_t>(n_out_), 0.0);
    for (int j = 0; j < n_out_; ++j) {
      if (!out_mask.empty() && !out_mask[static_cast<std::size_t>(j)])
        continue;
      const auto& col = columns_[static_cast<std::size_t>(j)];
      double acc = 0.0;
      for (int sign = 0; sign < 2; ++sign) {
        const auto& side = sign == 0 ? col.pos : col.neg;
        for (int p = 0; p < planes; ++p) {
          for (int b = 0; b < config_.input_bits; ++b) {
            int pop = 0;
            const auto& pb = side[static_cast<std::size_t>(p)].bits;
            const auto& xb = xbits[static_cast<std::size_t>(b)];
            for (std::size_t w = 0; w < pb.size(); ++w)
              pop += std::popcount(pb[w] & xb[w]);
            double count = pop;
            if (config_.analog_noise && active_rows > 0) {
              // Box-Muller normal from the shared stream (seed rng path).
              count += rng.normal(
                  0.0, config_.noise_coeff *
                           std::sqrt(static_cast<double>(active_rows)));
            }
            double code = std::round(count / adc_step);
            code = std::clamp(code, 0.0, adc_levels);
            count = code * adc_step;
            acc += (sign == 0 ? 1.0 : -1.0) * count *
                   static_cast<double>(1 << b) * static_cast<double>(1 << p);
          }
        }
      }
      y[static_cast<std::size_t>(j)] = acc * weight_scale_ * input_scale_;
    }
    return y;
  }

 private:
  struct Plane {
    std::vector<std::uint64_t> bits;
  };
  struct Column {
    std::vector<Plane> pos, neg;
  };
  cimsram::CimMacroConfig config_;
  int n_in_ = 0, n_out_ = 0, words_ = 0;
  double weight_scale_ = 1.0, input_scale_ = 1.0;
  std::vector<Column> columns_;
};

struct SeedMlp {
  std::vector<SeedMacro> macros;
  std::vector<nn::Vector> biases;
  double keep_scale = 2.0;
  bool dropout_on_input = false;

  nn::Vector forward(const nn::Vector& x, const std::vector<nn::Mask>& masks,
                     core::Rng& rng) const {
    const int n_layers = static_cast<int>(macros.size());
    std::size_t site = 0;
    const nn::Mask empty;
    const nn::Mask& in0 = dropout_on_input ? masks[site++] : empty;
    nn::Vector a = x;
    if (dropout_on_input) {
      for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = in0[i] ? a[i] * keep_scale : 0.0;
    }
    nn::Mask row_mask = in0;
    for (int l = 0; l < n_layers; ++l) {
      const bool has_hidden_mask = l + 1 < n_layers;
      const nn::Mask& col_mask = has_hidden_mask ? masks[site] : empty;
      nn::Vector z = macros[static_cast<std::size_t>(l)].matvec(
          a, row_mask, col_mask, rng);
      const nn::Vector& b = biases[static_cast<std::size_t>(l)];
      for (std::size_t i = 0; i < z.size(); ++i) {
        if (!col_mask.empty() && !col_mask[i]) {
          z[i] = 0.0;
          continue;
        }
        z[i] += b[i];
      }
      if (has_hidden_mask) {
        for (std::size_t i = 0; i < z.size(); ++i) {
          z[i] = std::max(0.0, z[i]);
          z[i] = col_mask[i] ? z[i] * keep_scale : 0.0;
        }
        row_mask = col_mask;
        ++site;
      }
      a = std::move(z);
    }
    return a;
  }

  // Strictly serial MC-Dropout, Welford accumulation (the seed loop).
  void mc_predict(const nn::Vector& x, int iterations, double dropout_p,
                  bnn::MaskSource& mask_src, core::Rng& analog_rng) const {
    const std::size_t n_out = biases.back().size();
    nn::Vector mean(n_out, 0.0), m2(n_out, 0.0);
    std::vector<int> widths;
    if (dropout_on_input) widths.push_back(macros[0].n_in());
    for (std::size_t l = 0; l + 1 < macros.size(); ++l)
      widths.push_back(static_cast<int>(biases[l].size()));
    for (int t = 0; t < iterations; ++t) {
      std::vector<nn::Mask> masks(widths.size());
      for (std::size_t s = 0; s < widths.size(); ++s) {
        masks[s].resize(static_cast<std::size_t>(widths[s]));
        for (auto& bit : masks[s])
          bit = mask_src.draw(dropout_p) ? 0 : 1;
      }
      const nn::Vector y = forward(x, masks, analog_rng);
      for (std::size_t i = 0; i < n_out; ++i) {
        const double delta = y[i] - mean[i];
        mean[i] += delta / static_cast<double>(t + 1);
        m2[i] += delta * (y[i] - mean[i]);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Faithful port of the seed (pre-SoA) particle-filter hot path: AoS
// vector<SeedParticle> storage, per-call weight vectors, a vector-building
// systematic resample. Baseline for the SoA engine's speedup, compiled
// with identical flags. Bit-identity of the SoA engine against this
// algorithm is pinned separately in tests/test_memory.cpp; here it is
// only timed.
// ---------------------------------------------------------------------------

struct SeedParticle {
  core::Pose pose;
  double log_weight = 0.0;
};

struct SeedAosFilter {
  std::vector<SeedParticle> ps;
  std::vector<double> delta_scratch;  // the seed's member scratch
  double last_ess = 0.0;

  void init_uniform(int n, const core::Vec3& lo, const core::Vec3& hi,
                    core::Rng& rng) {
    ps.clear();
    ps.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      core::Pose p{{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                    rng.uniform(lo.z, hi.z)},
                   rng.uniform(-3.14159265358979323846,
                               3.14159265358979323846)};
      ps.push_back({p, 0.0});
    }
  }

  std::vector<double> normalized_weights() const {
    std::vector<double> logw;
    logw.reserve(ps.size());
    for (const auto& p : ps) logw.push_back(p.log_weight);
    return prob::normalize_log_weights(logw);
  }

  double effective_sample_size() const {
    const auto w = normalized_weights();
    double sum_sq = 0.0;
    for (double x : w) sum_sq += x * x;
    return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
  }

  // The seed update without the resample branch (no tempering floor):
  // weigh in kBlock-keyed streams, fold the deltas in, measure the ESS.
  // The cycle rows call resample() right after — exactly the seed's
  // update at resample_threshold 1 with zero roughening sigmas.
  void update(const vision::DepthScan& scan,
              const filter::MeasurementModel& model, core::Rng& rng) {
    constexpr std::size_t kBlock = 32;
    const std::uint64_t noise_root = rng();
    const std::size_t n_blocks = (ps.size() + kBlock - 1) / kBlock;
    delta_scratch.resize(ps.size());
    for (std::size_t b = 0; b < n_blocks; ++b) {
      core::Rng block_rng = core::Rng::stream(noise_root, b);
      const std::size_t i_end = std::min((b + 1) * kBlock, ps.size());
      for (std::size_t i = b * kBlock; i < i_end; ++i)
        delta_scratch[i] = model.log_likelihood(ps[i].pose, scan, block_rng);
    }
    for (std::size_t i = 0; i < ps.size(); ++i)
      ps[i].log_weight += delta_scratch[i];
    last_ess = effective_sample_size();
  }

  void resample(core::Rng& rng) {
    const auto w = normalized_weights();
    const std::size_t n = ps.size();
    std::vector<SeedParticle> next;
    next.reserve(n);
    const double step = 1.0 / static_cast<double>(n);
    double u = rng.uniform() * step;
    double cumulative = w[0];
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (u > cumulative && idx + 1 < ps.size()) {
        ++idx;
        cumulative += w[idx];
      }
      next.push_back({ps[idx].pose, 0.0});
      u += step;
    }
    ps = std::move(next);
  }
};

// Quadratic synthetic likelihood: cheap enough that the 100k-cloud rows
// time the filter mechanics (weight passes, normalization, the resample
// gather), not the measurement backend.
class QuadraticModel final : public filter::MeasurementModel {
 public:
  double log_likelihood(const core::Pose& pose, const vision::DepthScan&,
                        core::Rng&) const override {
    const core::Vec3 d = pose.position - core::Vec3{1.5, 1.0, 0.9};
    return -0.5 * d.squared_norm();
  }
  const char* name() const override { return "bench-quadratic"; }
};

// Forwards log_likelihood only, so a whole update through it takes the
// default per-pose MeasurementModel::log_likelihoods body: the baseline of
// the shared-current update row.
class PerPoseModel final : public filter::MeasurementModel {
 public:
  explicit PerPoseModel(const filter::MeasurementModel& inner)
      : inner_(inner) {}
  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override {
    return inner_.log_likelihood(pose, scan, rng);
  }
  const char* name() const override { return inner_.name(); }

 private:
  const filter::MeasurementModel& inner_;
};

// ---------------------------------------------------------------------------

std::vector<circuit::VoltageComponent> bench_components(int k) {
  core::Rng rng(3);
  std::vector<circuit::VoltageComponent> comps;
  for (int i = 0; i < k; ++i) {
    comps.push_back({{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                      rng.uniform(0.2, 0.8)},
                     {0.06, 0.06, 0.06},
                     rng.uniform(0.5, 2.0)});
  }
  return comps;
}

}  // namespace

int main() {
  bench::Suite suite("micro");
  std::printf("=== cimnav micro-benchmarks ===\n\n");

  {  // Inverter-array likelihood readout.
    circuit::LikelihoodArrayConfig cfg;
    core::Rng rng(5);
    core::Rng nrng(7);
    for (int cols : {100, 500}) {
      cfg.total_columns = cols;
      const circuit::CimLikelihoodArray arr(cfg, bench_components(40), rng);
      double v = 0.25;
      double sink = 0.0;
      suite.run("cim_array_readout/cols=" + std::to_string(cols), 1, 0, "",
                [&] {
                  v = v < 0.75 ? v + 0.001 : 0.25;
                  sink += arr.read_log_likelihood({v, 0.5, 0.5}, nrng);
                });
      if (sink == 42.0) std::printf("%f", sink);  // defeat DCE
    }
    // One scan's worth of reads per call through the batched kernel, as
    // the per-pose likelihood path issues them (keys, one ideal-current
    // batch, noise + log-ADC per read); reported per read to sit next to
    // the single-point rows.
    constexpr std::size_t kScanPoints = 80;
    const circuit::CimLikelihoodArray arr(cfg, bench_components(40), rng);
    std::vector<std::uint32_t> keys(kScanPoints);
    std::vector<double> readings(kScanPoints);
    double v = 0.25;
    double sink = 0.0;
    const bench::Result r = suite.run(
        "cim_array_readout_scan/cols=" + std::to_string(cfg.total_columns), 1,
        static_cast<double>(kScanPoints), "reads", [&] {
          for (auto& key : keys) {
            v = v < 0.75 ? v + 0.001 : 0.25;
            key = arr.code_key({v, 0.5, 0.5});
          }
          arr.ideal_currents_by_key(keys, readings);
          for (double& reading : readings)
            reading = arr.read_log(reading, nrng);
          arr.record_reads(kScanPoints);
          sink += readings.front();
        });
    std::printf("%-44s %12.1f ns/read\n", "  (per read)",
                r.ns_per_op / static_cast<double>(kScanPoints));
    if (sink == 42.0) std::printf("%f", sink);
  }

  // One particle-filter update of CIM likelihood reads, shaped like the
  // closed loop's solo corridor flight: 500 poses x one 80-pixel
  // corridor_dropout scan on its 500-column array, single-threaded. The
  // shared path (CimHmgmLikelihood::log_likelihoods) computes one ideal
  // current per distinct DAC code triple of the update; the per-pose path
  // is the default body through a log_likelihood-only decorator. Both give
  // the same bits, so the ratio is a within-run speedup.
  {
    filter::ScenarioConfig sc_cfg =
        filter::make_scenario_config("corridor_dropout");
    sc_cfg.trajectory_steps = 2;
    const filter::LocalizationScenario sc(sc_cfg);
    const auto model = sc.make_cim_backend();
    const auto& cim = dynamic_cast<const filter::CimHmgmLikelihood&>(*model);
    const PerPoseModel per_pose(cim);
    const vision::DepthScan scan = sc.render_scan(1);
    // A tracking cloud around the true pose.
    constexpr std::size_t kPoses = 500;
    const core::Pose truth = sc.trajectory().poses[1];
    core::Rng crng(31);
    std::vector<double> x(kPoses), y(kPoses), z(kPoses), yaw(kPoses);
    for (std::size_t i = 0; i < kPoses; ++i) {
      const core::Pose p{truth.position + core::Vec3{crng.normal(0.0, 0.15),
                                                     crng.normal(0.0, 0.15),
                                                     crng.normal(0.0, 0.08)},
                         truth.yaw + crng.normal(0.0, 0.1)};
      x[i] = p.position.x;
      y[i] = p.position.y;
      z[i] = p.position.z;
      yaw[i] = p.yaw;
    }
    const filter::PoseView poses{x.data(), y.data(), z.data(), yaw.data(),
                                 kPoses, 1};
    const double reads =
        static_cast<double>(kPoses * scan.pixels.size());
    std::vector<double> out(kPoses);
    const auto ideal0 = cim.array().ideal_current_count();
    cim.log_likelihoods(poses, scan, 1, nullptr, out);
    const double distinct_fraction =
        static_cast<double>(cim.array().ideal_current_count() - ideal0) /
        reads;
    const std::string tag =
        "/p=" + std::to_string(kPoses) +
        ",px=" + std::to_string(scan.pixels.size()) +
        ",cols=" + std::to_string(cim.array().column_count());
    std::uint64_t root = 1;
    double sink = 0.0;
    // The two paths run in three alternating rounds, and the tracked
    // speedup is the ratio of their medians.
    const auto time_update = [&](const char* name,
                                 const filter::MeasurementModel& m,
                                 int round) {
      return suite
          .run(std::string(name) + tag + "/round=" + std::to_string(round),
               1, reads, "reads",
               [&] {
                 m.log_likelihoods(poses, scan, ++root, nullptr, out);
                 sink += out.front();
               })
          .ns_per_op;
    };
    std::vector<double> shared_ns, per_pose_ns;
    for (int round = 0; round < 3; ++round) {
      shared_ns.push_back(time_update("likelihood_update_shared", cim, round));
      per_pose_ns.push_back(
          time_update("likelihood_update_per_pose", per_pose, round));
    }
    const double shared = bench::median(shared_ns);
    const double per = bench::median(per_pose_ns);
    const double speedup = per / shared;
    std::printf("  (per logical read, medians) shared %.1f ns, per-pose "
                "%.1f ns; distinct fraction %.3f; speedup %.2fx\n",
                shared / reads, per / reads, distinct_fraction, speedup);
    suite.add_summary("likelihood_update_shared_speedup_vs_per_pose",
                      speedup);
    suite.add_summary("likelihood_update_shared_distinct_fraction",
                      distinct_fraction);
    if (sink == 42.0) std::printf("%f", sink);
  }

  // Consecutive shared updates of a corridor_dropout flight, which the
  // one-scan row above cannot show: a 500-particle filter flies the
  // scenario's 36 frames (predict, then update on that frame's scan), so
  // the cloud moves along the trajectory, and the array's ideal-current
  // cache carries currents from one update to the next. One op is one
  // flight from a tracking start, single-threaded. The computed fraction
  // (ideal currents computed per logical read) is taken on the first
  // flight, from a cold cache; the later flights repeat the route.
  {
    const filter::LocalizationScenario sc(
        filter::make_scenario_config("corridor_dropout"));
    const auto model = sc.make_cim_backend();
    const auto& cim = dynamic_cast<const filter::CimHmgmLikelihood&>(*model);
    const std::size_t frames = sc.trajectory().controls.size();
    std::vector<vision::DepthScan> scans;
    std::size_t pixels = 0;
    for (std::size_t f = 0; f < frames; ++f) {
      scans.push_back(sc.render_scan(f));
      pixels += scans.back().pixels.size();
    }
    filter::ParticleFilter pf(sc.config().filter);
    const double reads =
        static_cast<double>(sc.config().filter.particle_count * pixels);
    core::Rng frng(37);
    std::size_t flights = 0;
    double sink = 0.0;
    const auto fly = [&] {
      ++flights;
      pf.init_gaussian(sc.trajectory().poses.front(), {0.15, 0.15, 0.08},
                       0.1, frng);
      for (std::size_t f = 0; f < frames; ++f) {
        pf.predict(sc.trajectory().controls[f], frng);
        pf.update(scans[f], cim, frng);
      }
      sink += pf.soa().x[0];
    };
    const auto ideal0 = cim.array().ideal_current_count();
    fly();
    const double computed_fraction =
        static_cast<double>(cim.array().ideal_current_count() - ideal0) /
        reads;
    const std::string tag =
        "/frames=" + std::to_string(frames) +
        ",p=" + std::to_string(sc.config().filter.particle_count) +
        ",px=" + std::to_string(scans.front().pixels.size()) +
        ",cols=" + std::to_string(cim.array().column_count());
    const auto later0 = cim.array().ideal_current_count();
    const std::size_t later_flights0 = flights;
    const bench::Result seq = suite.run("likelihood_update_sequence" + tag, 1,
                                        reads, "reads", fly);
    const double later_fraction =
        static_cast<double>(cim.array().ideal_current_count() - later0) /
        (reads * static_cast<double>(flights - later_flights0));
    std::printf("  (per logical read) %.1f ns; ideal currents computed per "
                "read %.3f on the first flight, %.3f on the later ones\n",
                seq.ns_per_op / reads, computed_fraction, later_fraction);
    suite.add_summary("likelihood_update_sequence_computed_fraction",
                      computed_fraction);
    if (sink == 42.0) std::printf("%f", sink);
  }

  {  // GMM log-pdf.
    core::Rng rng(9);
    std::vector<core::Vec3> pts;
    for (int i = 0; i < 2000; ++i)
      pts.push_back(
          {rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 2)});
    for (int k : {20, 80}) {
      const auto gmm = prob::Gmm::fit(pts, k, rng);
      double x = 0.1, sink = 0.0;
      suite.run("gmm_log_pdf/k=" + std::to_string(k), 1, 0, "", [&] {
        x = x < 2.9 ? x + 0.01 : 0.1;
        sink += gmm.log_pdf({x, 1.5, 1.0});
      });
      if (sink == 42.0) std::printf("%f", sink);
    }
  }

  {  // HMG kernel.
    double x = -3.0, sink = 0.0;
    suite.run("hmg_log_kernel", 1, 0, "", [&] {
      x = x < 3.0 ? x + 0.001 : -3.0;
      sink += prob::hmg_log_kernel({x, 0.5, -0.5}, {0, 0, 0}, {1, 1, 1});
    });
    if (sink == 42.0) std::printf("%f", sink);
  }

  {  // CIM macro matvec: one dense read, the column kernel against the
     // scalar kernel, and the pooled delta batch's bit-identity gate.
    for (int n : {64, 128}) {
      core::Rng rng(11);
      std::vector<double> w(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n));
      for (auto& v : w) v = rng.normal(0.0, 0.3);
      std::vector<double> x(static_cast<std::size_t>(n));
      for (auto& v : x) v = rng.uniform();
      core::Rng arng(13);
      const double macs = static_cast<double>(n) * n;
      const cimsram::CimMacro macro(w, n, n, cimsram::CimMacroConfig{},
                                    1.0 / 63.0);
      suite.run("cim_macro_matvec/n=" + std::to_string(n), 1, macs, "macs",
                [&] { cimsram::matvec(macro, x, {}, {}, &arng); });
      if (n == 128) {
        // Noisy dense reads of one view through the shipped kernel and
        // through the scalar draw-sequential kernel, timed in alternating
        // rounds; the ratio of the medians shields the tracked summary
        // from CPU-steal spikes on shared hosts (a spike lands on one
        // round, not on one side).
        const cimsram::MacroView view = macro.view();
        cimsram::EncodedInput enc;
        macro.encode_input(x, enc);
        std::vector<double> ky(static_cast<std::size_t>(n));
        core::Rng krng(17);
        const auto time_kernel = [&](const char* name, auto kernel,
                                     int round) {
          return suite
              .run(std::string("column_kernel/") + name +
                       "/round=" + std::to_string(round),
                   1, macs, "macs",
                   [&] {
                     kernel(view, enc.planes.data(), nullptr, nullptr, 0,
                            static_cast<std::uint64_t>(n), nullptr, 0, n,
                            false, &krng, ky.data());
                   })
              .ns_per_op;
        };
        std::vector<double> shipped_ns, scalar_ns;
        for (int round = 0; round < 3; ++round) {
          shipped_ns.push_back(
              time_kernel("run_columns", &cimsram::run_columns, round));
          scalar_ns.push_back(time_kernel(
              "scalar_run_columns", &cimsram::scalar_run_columns, round));
        }
        const double ratio =
            bench::median(scalar_ns) / bench::median(shipped_ns);
        suite.add_summary("column_kernel_speedup_vs_scalar", ratio);
        std::printf("\nrun_columns speedup vs scalar_run_columns (noisy "
                    "%dx%d read): %.2fx\n\n",
                    n, n, ratio);

        // The pooled delta batch must stay invisible to results: every
        // DeltaItem carries its own noise stream, so any worker
        // partitioning is bit-identical to the serial item loop.
        core::ThreadPool delta_pool(8);
        constexpr std::size_t kDeltaItems = 8;
        std::vector<std::vector<std::size_t>> adds(kDeltaItems);
        std::vector<std::vector<std::size_t>> rems(kDeltaItems);
        core::Rng list_rng(7);
        for (std::size_t k = 0; k < kDeltaItems; ++k) {
          adds[k].push_back(k);  // at least one driven line per rail
          rems[k].push_back(static_cast<std::size_t>(n) - 1 - k);
          for (std::size_t r = kDeltaItems;
               r + kDeltaItems < static_cast<std::size_t>(n); ++r) {
            const double u = list_rng.uniform();
            if (u < 0.15)
              adds[k].push_back(r);
            else if (u < 0.30)
              rems[k].push_back(r);
          }
        }
        const std::size_t dn = static_cast<std::size_t>(macro.n_out());
        std::vector<double> dy_serial(kDeltaItems * dn);
        std::vector<double> dy_pooled(kDeltaItems * dn);
        const auto run_delta = [&](std::vector<double>& dy,
                                   core::ThreadPool* pool) {
          std::vector<core::Rng> rngs;
          rngs.reserve(kDeltaItems);
          for (std::size_t k = 0; k < kDeltaItems; ++k)
            rngs.emplace_back(123 + k);
          std::vector<cimsram::DeltaItem> items(kDeltaItems);
          for (std::size_t k = 0; k < kDeltaItems; ++k) {
            items[k].enc = &enc;
            items[k].add_rows = adds[k].data();
            items[k].n_add = adds[k].size();
            items[k].rem_rows = rems[k].data();
            items[k].n_rem = rems[k].size();
            items[k].rng = &rngs[k];
            items[k].y = dy.data() + k * dn;
          }
          macro.matvec_delta_batch(items.data(), kDeltaItems, pool);
        };
        run_delta(dy_serial, nullptr);
        run_delta(dy_pooled, &delta_pool);
        suite.add_summary("delta_batch_pooled_bit_identity",
                          dy_serial == dy_pooled ? 1.0 : 0.0);
      }
    }
  }

  {  // Particle-filter systematic resampling.
    for (int n : {300, 3000}) {
      filter::ParticleFilterConfig cfg;
      cfg.particle_count = n;
      filter::ParticleFilter pf(cfg);
      core::Rng rng(17);
      pf.init_uniform({0, 0, 0}, {3, 3, 2}, rng);
      suite.run("particle_resample/n=" + std::to_string(n), 1, n,
                "particles", [&] { pf.resample(rng); });
    }
  }

  // ---- Headline: SoA particle engine vs the seed AoS filter (100k) ----
  //
  // A 100k-particle cloud through one measurement update and one
  // systematic resample, single-threaded, SoA engine vs the literal seed
  // algorithm it replaced (AoS vector<SeedParticle>, per-call weight
  // vectors, vector-building resample). The synthetic quadratic
  // likelihood keeps the measurement backend out of the timing, so the
  // ratios isolate the storage layout and the allocation behavior. The
  // steady-state cycle must also be heap-silent — asserted on the
  // filter's own arena/pool counters at bench scale.
  {
    constexpr int kCloud = 100000;
    const QuadraticModel model;
    const vision::DepthScan scan;  // the synthetic model ignores the scan

    filter::ParticleFilterConfig cfg;
    cfg.particle_count = kCloud;
    cfg.resample_threshold = 0.0;  // resampling timed as its own rows
    filter::ParticleFilter soa(cfg);
    core::Rng soa_init(19);
    soa.init_uniform({0, 0, 0}, {3, 3, 2}, soa_init);

    SeedAosFilter aos;
    core::Rng aos_init(19);
    aos.init_uniform(kCloud, {0, 0, 0}, {3, 3, 2}, aos_init);

    core::Rng soa_rng(23);
    core::Rng aos_rng(23);
    const auto soa_update =
        suite.run("particle_filter_100k/update/soa", 1, kCloud, "particles",
                  [&] { soa.update(scan, model, soa_rng); });
    const auto aos_update =
        suite.run("particle_filter_100k/update/aos_seed", 1, kCloud,
                  "particles", [&] { aos.update(scan, model, aos_rng); });
    const auto soa_res =
        suite.run("particle_filter_100k/resample/soa", 1, kCloud,
                  "particles", [&] { soa.resample(soa_rng); });
    const auto aos_res =
        suite.run("particle_filter_100k/resample/aos_seed", 1, kCloud,
                  "particles", [&] { aos.resample(aos_rng); });

    // The production cycle: an update whose ESS triggers the internal
    // resample (threshold 1, zero roughening so the shared jitter cost
    // does not dilute the layout comparison). This is where the SoA
    // engine's normalized-weight reuse pays: the ESS measurement and the
    // resample it triggers share one normalization, where the seed path
    // normalizes twice and allocates three vectors.
    filter::ParticleFilterConfig cyc_cfg = cfg;
    cyc_cfg.resample_threshold = 1.0;
    cyc_cfg.roughening_sigma_pos = {0.0, 0.0, 0.0};
    cyc_cfg.roughening_sigma_yaw = 0.0;
    filter::ParticleFilter soa_cyc(cyc_cfg);
    core::Rng soa_cyc_init(19);
    soa_cyc.init_uniform({0, 0, 0}, {3, 3, 2}, soa_cyc_init);
    SeedAosFilter aos_cyc;
    core::Rng aos_cyc_init(19);
    aos_cyc.init_uniform(kCloud, {0, 0, 0}, {3, 3, 2}, aos_cyc_init);
    core::Rng soa_cyc_rng(29);
    core::Rng aos_cyc_rng(29);
    const auto soa_cycle =
        suite.run("particle_filter_100k/cycle/soa", 1, kCloud, "particles",
                  [&] { soa_cyc.update(scan, model, soa_cyc_rng); });
    const auto aos_cycle = suite.run(
        "particle_filter_100k/cycle/aos_seed", 1, kCloud, "particles", [&] {
          aos_cyc.update(scan, model, aos_cyc_rng);
          aos_cyc.resample(aos_cyc_rng);
        });

    const double update_speedup = aos_update.ns_per_op / soa_update.ns_per_op;
    const double resample_speedup = aos_res.ns_per_op / soa_res.ns_per_op;
    const double cycle_speedup = aos_cycle.ns_per_op / soa_cycle.ns_per_op;

    // Zero-steady-state-allocation check at bench scale: a full
    // update + resample cycle after warm-up must not move the filter's
    // heap counter (arena + pool slabs).
    const auto mem0 = soa_cyc.memory_stats();
    soa_cyc.update(scan, model, soa_cyc_rng);
    const auto mem1 = soa_cyc.memory_stats();
    const bool zero_alloc = mem1.heap_allocations == mem0.heap_allocations;

    suite.add_summary("particle_filter_100k_update_speedup_vs_aos",
                      update_speedup);
    suite.add_summary("particle_filter_100k_resample_speedup_vs_aos",
                      resample_speedup);
    suite.add_summary("particle_filter_100k_cycle_speedup_vs_aos",
                      cycle_speedup);
    // Acceptance flags (gated as exact values by bench_diff.py):
    // >= 1.2x single-thread update+resample throughput, zero heap
    // allocations in the steady-state cycle.
    suite.add_summary("particle_filter_100k_speedup_criterion_met",
                      cycle_speedup >= 1.2 ? 1.0 : 0.0);
    suite.add_summary("particle_filter_100k_zero_alloc_cycle",
                      zero_alloc ? 1.0 : 0.0);
    std::printf(
        "\nparticle_filter_100k SoA vs seed AoS (1 thread): update %.2fx, "
        "resample %.2fx, update+resample cycle %.2fx, steady-state heap "
        "allocs %llu\n\n",
        update_speedup, resample_speedup, cycle_speedup,
        static_cast<unsigned long long>(mem1.heap_allocations -
                                        mem0.heap_allocations));
  }

  // ---- Headline: MC-Dropout prediction, engine vs seed path ----
  {
    core::Rng rng(5);
    nn::MlpConfig net_cfg;
    net_cfg.layer_sizes = {144, 64, 32, 4};
    net_cfg.dropout_on_input = false;
    net_cfg.dropout_p = 0.5;
    nn::Mlp net(net_cfg, rng);
    std::vector<nn::Vector> calib;
    for (int i = 0; i < 16; ++i) {
      nn::Vector v(144);
      for (auto& e : v) e = rng.uniform();
      calib.push_back(std::move(v));
    }
    cimsram::CimMacroConfig mc;
    mc.input_bits = 4;
    mc.weight_bits = 4;
    core::Rng crng(7);
    const nn::CimMlp cim(net, mc, calib, crng);
    nn::Vector x(144);
    for (auto& e : x) e = rng.uniform();

    // The seed baseline shares weights and calibrated scales with the
    // engine-backed network, so both execute the same nominal workload.
    SeedMlp seed;
    for (int l = 0; l < cim.layer_count(); ++l) {
      const nn::Matrix& w = net.weights(l);
      seed.macros.emplace_back(w.data(), w.rows(), w.cols(), mc,
                               cim.macro(l).input_scale());
      seed.biases.push_back(net.biases(l));
    }
    seed.keep_scale = cim.dropout_keep_scale();
    seed.dropout_on_input = cim.dropout_on_input();

    constexpr int kIters = 30;
    constexpr double kP = 0.5;
    // Nominal MACs per prediction, measured on the engine's counters.
    cim.reset_stats();
    {
      bnn::SoftwareMaskSource masks(core::Rng{11});
      bnn::McOptions opt;
      opt.iterations = kIters;
      opt.dropout_p = kP;
      core::Rng arng(13);
      bnn::mc_predict_cim(cim, x, opt, masks, arng);
    }
    const double macs_per_pred =
        static_cast<double>(cim.total_stats().nominal_macs);
    cim.reset_stats();

    bnn::SoftwareMaskSource seed_masks(core::Rng{11});
    core::Rng seed_arng(13);
    const auto seed_result =
        suite.run("mc_predict_cim/seed_baseline", 1, macs_per_pred, "macs",
                  [&] { seed.mc_predict(x, kIters, kP, seed_masks,
                                        seed_arng); });

    auto run_engine = [&](const char* name, core::ThreadPool* pool,
                          int threads, bool reuse) -> bench::Result {
      bnn::SoftwareMaskSource masks(core::Rng{11});
      bnn::McOptions opt;
      opt.iterations = kIters;
      opt.dropout_p = kP;
      opt.compute_reuse = reuse;
      opt.pool = pool;
      core::Rng arng(13);
      return suite.run(name, threads, macs_per_pred, "macs", [&] {
        bnn::mc_predict_cim(cim, x, opt, masks, arng);
      });
    };

    core::ThreadPool pool2(2), pool8(8);
    const auto engine1 =
        run_engine("mc_predict_cim/engine", nullptr, 1, false);
    run_engine("mc_predict_cim/engine", &pool2, 2, false);
    const auto engine8 =
        run_engine("mc_predict_cim/engine", &pool8, 8, false);
    run_engine("mc_predict_cim/engine+reuse", &pool8, 8, true);

    const double speedup1 = seed_result.ns_per_op / engine1.ns_per_op;
    const double speedup8 = seed_result.ns_per_op / engine8.ns_per_op;
    suite.add_summary("mc_predict_speedup_1t_vs_seed", speedup1);
    suite.add_summary("mc_predict_speedup_8t_vs_seed", speedup8);
    suite.add_summary("mc_predict_macs_per_pred", macs_per_pred);
    std::printf(
        "\nmc_predict_cim speedup vs single-threaded seed path: "
        "%.2fx (1 thread), %.2fx (8 threads)\n\n",
        speedup1, speedup8);
  }

  {  // VO training: one epoch of minibatch Adam per op on the VO
     // regressor's shape (VoPipeline's defaults: 4000 samples, batch 32,
     // hidden-site dropout 0.2), the set-up stage every flight pays.
    core::Rng rng(19);
    nn::MlpConfig cfg;
    cfg.layer_sizes = {144, 128, 64, 4};
    cfg.dropout_p = 0.2;
    cfg.dropout_on_input = false;
    nn::Mlp net(cfg, rng);
    constexpr int kSamples = 4000;
    std::vector<nn::Vector> inputs, targets;
    for (int i = 0; i < kSamples; ++i) {
      nn::Vector x(144), y(4);
      for (double& v : x) v = rng.uniform();
      for (double& v : y) v = rng.uniform(-0.1, 0.1);
      inputs.push_back(std::move(x));
      targets.push_back(std::move(y));
    }
    const nn::TrainOptions opt;
    double sink = 0.0;
    const bench::Result r = suite.run(
        "mlp_train_epoch/144-128-64-4,n=4000,batch=32", 1, kSamples,
        "samples", [&] { sink += net.train_epoch(inputs, targets, opt, rng); });
    std::printf("%-44s %12.1f ns/sample\n", "  (per sample)",
                r.ns_per_op / kSamples);
    if (sink == 42.0) std::printf("%f", sink);
  }

  {  // Conformance harness: per-family case timing + the quick-tier
     // sweep itself (run_columns against the scalar oracle).
    namespace conf = cimsram::conformance;
    for (auto family : conf::families()) {
      // One representative deterministic case per family: ragged odd-row
      // geometry, single ideal dispatch.
      conf::CaseSpec spec;
      spec.geom = {149, 37};
      spec.family = family;
      spec.mode = conf::NoiseMode::kIdeal;
      spec.dispatch = conf::Dispatch::kSingle;
      spec.seed = 0xBE11C;
      const auto macro = conf::make_case_macro(spec);
      std::vector<double> x;
      std::vector<std::uint8_t> im, om;
      conf::make_case_input(spec, 0, x, im, om);
      suite.run(std::string("conformance_case/") + conf::to_string(family),
                1, static_cast<double>(spec.geom.n_in) * spec.geom.n_out,
                "macs", [&] { cimsram::matvec(*macro, x, im, om, nullptr); });
    }
    int passed = 0, total = 0;
    for (const auto& c : conf::cases_for(conf::Tier::kQuick)) {
      ++total;
      const auto r = conf::run_case(c);
      if (r.pass)
        ++passed;
      else
        std::printf("conformance FAIL: %s\n", r.failure.c_str());
    }
    std::printf("\nconformance quick sweep: %d/%d cases passed\n\n", passed,
                total);
    suite.add_summary("conformance_cases_passed",
                      static_cast<double>(passed));
    suite.add_summary("conformance_cases_total", static_cast<double>(total));
  }

  suite.write_json();
  return 0;
}
