// Micro-benchmarks for the simulator's hot paths: likelihood evaluation on
// the inverter array, particle-filter steps, CIM macro matrix-vector
// products, and full MC-Dropout predictions through the batched engine.
// These measure the *simulator*, not the modeled hardware — engineering
// numbers for users extending the library. Results are written to
// BENCH_micro.json; the tracked summaries are within-run ratios of two
// paths that give the same bits, workload counts and pass/fail flags.
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
#include "vision/depth.hpp"

namespace {

using namespace cimnav;

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

  // Particle-filter updates of CIM likelihood reads, shaped like the
  // closed loop's solo corridor flight: 500-particle clouds x 80-pixel
  // corridor_dropout scans on its 500-column array, single-threaded. One
  // op scores a whole fixed cycle, so every op and every round times the
  // same work: the predicted clouds of one recorded 36-frame flight, each
  // on its frame's scan. The cycle's distinct keys overflow the array's
  // ideal-current cache, so the shared path
  // (CimHmgmLikelihood::log_likelihoods) computes the currents its keys
  // miss on every update, as a flight does. The per-pose path is the
  // default body through a log_likelihood-only decorator. Both give the
  // same bits, so the ratio is a within-run speedup.
  {
    const filter::LocalizationScenario sc(
        filter::make_scenario_config("corridor_dropout"));
    const auto model = sc.make_cim_backend();
    const auto& cim = dynamic_cast<const filter::CimHmgmLikelihood&>(*model);
    const PerPoseModel per_pose(cim);
    struct Cloud {
      std::vector<double> x, y, z, yaw;
      vision::DepthScan scan;
    };
    // Record the flight; it is also the cycle's one cold pass, so the
    // currents it computes bound the cycle's distinct keys from below once
    // they exceed the cache.
    std::vector<Cloud> clouds(sc.trajectory().controls.size());
    const auto cold0 = cim.array().ideal_current_count();
    {
      filter::ParticleFilter pf(sc.config().filter);
      core::Rng frng(31);
      pf.init_gaussian(sc.trajectory().poses.front(), {0.15, 0.15, 0.08},
                       0.1, frng);
      for (std::size_t f = 0; f < clouds.size(); ++f) {
        pf.predict(sc.trajectory().controls[f], frng);
        const filter::SoaView v = pf.soa();
        Cloud& c = clouds[f];
        c.x.assign(v.x, v.x + v.count);
        c.y.assign(v.y, v.y + v.count);
        c.z.assign(v.z, v.z + v.count);
        c.yaw.assign(v.yaw, v.yaw + v.count);
        sc.render_scan_into(f, c.scan);
        pf.update(c.scan, cim, frng);
      }
    }
    const auto cold = cim.array().ideal_current_count() - cold0;
    // Reads per op: the whole cycle's.
    const std::size_t particles = clouds.front().x.size();
    std::size_t pixels = 0;
    for (const Cloud& c : clouds) pixels += c.scan.pixels.size();
    const auto reads = static_cast<double>(particles * pixels);
    std::vector<double> out(particles);
    std::uint64_t root = 1;
    double sink = 0.0;
    const auto score = [&](const filter::MeasurementModel& m) {
      for (const Cloud& c : clouds) {
        const filter::PoseView poses{c.x.data(), c.y.data(), c.z.data(),
                                     c.yaw.data(), c.x.size(), 1};
        m.log_likelihoods(poses, c.scan, ++root, nullptr, out);
        sink += out.front();
      }
    };
    const std::string tag =
        "/p=" + std::to_string(particles) +
        ",px=" + std::to_string(clouds.front().scan.pixels.size()) +
        ",cols=" + std::to_string(cim.array().column_count()) +
        ",cycle=" + std::to_string(clouds.size());
    // The two paths run in five alternating rounds, and the tracked
    // speedup is the ratio of their medians.
    std::uint64_t shared_ops = 0, shared_computed = 0;
    const auto time_update = [&](const char* name,
                                 const filter::MeasurementModel& m,
                                 int round) {
      const auto ideal0 = cim.array().ideal_current_count();
      std::uint64_t ops = 0;
      const double ns =
          suite
              .run(std::string(name) + tag + "/round=" + std::to_string(round),
                   1, reads, "reads",
                   [&] {
                     ++ops;
                     score(m);
                   })
              .ns_per_op;
      if (&m == &cim) {
        shared_ops += ops;
        shared_computed += cim.array().ideal_current_count() - ideal0;
      }
      return ns;
    };
    std::vector<double> shared_ns, per_pose_ns;
    for (int round = 0; round < 5; ++round) {
      shared_ns.push_back(time_update("likelihood_update_shared", cim, round));
      per_pose_ns.push_back(
          time_update("likelihood_update_per_pose", per_pose, round));
    }
    const double shared = bench::median(shared_ns);
    const double per = bench::median(per_pose_ns);
    const double speedup = per / shared;
    const double computed_fraction =
        static_cast<double>(shared_computed) /
        (reads * static_cast<double>(shared_ops));
    std::printf("  (per logical read, medians) shared %.1f ns, per-pose "
                "%.1f ns; speedup %.2fx; ideal currents computed per read "
                "%.3f (a cold cycle computes %llu, the cache holds %zu)\n",
                shared / reads, per / reads, speedup, computed_fraction,
                static_cast<unsigned long long>(cold),
                cim.array().cache_capacity());
    suite.add_summary("likelihood_update_shared_speedup_vs_per_pose",
                      speedup);
    suite.add_summary("likelihood_update_shared_computed_fraction",
                      computed_fraction);
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
      sc.render_scan_into(f, scans.emplace_back());
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
        // Noisy dense reads of one view through the shipped kernel (AVX2
        // where the CPU has it) and through its portable body, which
        // computes the same bits, timed in five alternating rounds; the ratio
        // of the medians shields the tracked summary from CPU-steal spikes
        // on shared hosts (a spike lands on one round, not on one side).
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
        for (int round = 0; round < 5; ++round) {
          shipped_ns.push_back(
              time_kernel("run_columns", &cimsram::run_columns, round));
          scalar_ns.push_back(time_kernel(
              "scalar_run_columns", &cimsram::scalar_run_columns, round));
        }
        const double ratio =
            bench::median(scalar_ns) / bench::median(shipped_ns);
        suite.add_summary("column_kernel_speedup_vs_scalar", ratio);
        std::printf("\nrun_columns speedup vs its portable body "
                    "scalar_run_columns (noisy %dx%d read): %.2fx\n\n",
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

  // A 100k-particle cloud through one measurement update and one
  // systematic resample, single-threaded. The synthetic quadratic
  // likelihood keeps the measurement backend out of the timing, so the
  // rows time the filter mechanics. The steady-state cycle must also be
  // heap-silent — asserted on the filter's own arena/pool counters at
  // bench scale.
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
    core::Rng soa_rng(23);
    suite.run("particle_filter_100k/update/soa", 1, kCloud, "particles",
              [&] { soa.update(scan, model, soa_rng); });
    suite.run("particle_filter_100k/resample/soa", 1, kCloud, "particles",
              [&] { soa.resample(soa_rng); });

    // The production cycle: an update whose ESS triggers the internal
    // resample (threshold 1, zero roughening so no jitter cost is timed).
    filter::ParticleFilterConfig cyc_cfg = cfg;
    cyc_cfg.resample_threshold = 1.0;
    cyc_cfg.roughening_sigma_pos = {0.0, 0.0, 0.0};
    cyc_cfg.roughening_sigma_yaw = 0.0;
    filter::ParticleFilter soa_cyc(cyc_cfg);
    core::Rng soa_cyc_init(19);
    soa_cyc.init_uniform({0, 0, 0}, {3, 3, 2}, soa_cyc_init);
    core::Rng soa_cyc_rng(29);
    suite.run("particle_filter_100k/cycle/soa", 1, kCloud, "particles",
              [&] { soa_cyc.update(scan, model, soa_cyc_rng); });

    // Zero-steady-state-allocation check at bench scale: a full
    // update + resample cycle after warm-up must not move the filter's
    // heap counter (arena + pool slabs). Gated as an exact value by
    // bench_diff.py.
    const auto mem0 = soa_cyc.memory_stats();
    soa_cyc.update(scan, model, soa_cyc_rng);
    const auto mem1 = soa_cyc.memory_stats();
    suite.add_summary(
        "particle_filter_100k_zero_alloc_cycle",
        mem1.heap_allocations == mem0.heap_allocations ? 1.0 : 0.0);
    std::printf("\nparticle_filter_100k steady-state heap allocs per cycle: "
                "%llu\n\n",
                static_cast<unsigned long long>(mem1.heap_allocations -
                                                mem0.heap_allocations));
  }

  // MC-Dropout prediction through the batched engine (T = 30), dense at
  // pools of 1, 2 and 8 threads and with compute reuse.
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

    auto run_engine = [&](const char* name, core::ThreadPool* pool,
                          int threads, bool reuse) {
      bnn::SoftwareMaskSource masks(core::Rng{11});
      bnn::McOptions opt;
      opt.iterations = kIters;
      opt.dropout_p = kP;
      opt.compute_reuse = reuse;
      opt.pool = pool;
      core::Rng arng(13);
      suite.run(name, threads, macs_per_pred, "macs", [&] {
        bnn::mc_predict_cim(cim, x, opt, masks, arng);
      });
    };

    core::ThreadPool pool2(2), pool8(8);
    run_engine("mc_predict_cim/engine", nullptr, 1, false);
    run_engine("mc_predict_cim/engine", &pool2, 2, false);
    run_engine("mc_predict_cim/engine", &pool8, 8, false);
    run_engine("mc_predict_cim/engine+reuse", &pool8, 8, true);
    suite.add_summary("mc_predict_macs_per_pred", macs_per_pred);
    std::printf("\n");
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
