// Reproduces the paper's Sec. III-C claim: compute reuse
// (P_i = P_{i-1} + W I_A - W I_D) and optimized sample ordering
// "significantly minimize the workload" of MC-Dropout.
//
// Workload is *measured* on the functional simulator (word-line pulses of
// the programmed macros), not just modeled: the VO network runs T
// MC-Dropout iterations dense, with reuse, and with reuse + greedy
// ordering, across dropout probabilities and iteration counts.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"

int main() {
  using namespace cimnav;
  std::printf("=== Sec. III-C: compute reuse + sample ordering workload ===\n\n");

  // A representative VO-sized network (inputs 144, hidden 64/32).
  core::Rng rng(5);
  nn::MlpConfig net_cfg;
  net_cfg.layer_sizes = {144, 64, 32, 4};
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

  auto measure = [&](int iterations, double p, bool reuse, bool order) {
    net_cfg.dropout_p = p;
    bnn::SoftwareMaskSource masks(core::Rng{11});
    bnn::McOptions opt;
    opt.iterations = iterations;
    opt.dropout_p = p;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    core::Rng arng(13);
    bnn::McWorkload wl;
    bnn::mc_predict_cim(cim, x, opt, masks, arng, &wl);
    return wl;
  };

  std::printf("Word-line pulses per MC-Dropout prediction (measured):\n");
  core::Table table({"T", "p", "dense", "+reuse", "+reuse+order",
                     "reuse saving", "order extra"});
  table.set_precision(3);
  for (int t : {10, 30, 100}) {
    for (double p : {0.3, 0.5, 0.7}) {
      const auto dense = measure(t, p, false, false);
      const auto reuse = measure(t, p, true, false);
      const auto both = measure(t, p, true, true);
      table.add_row(
          {static_cast<double>(t), p,
           static_cast<double>(dense.macro.wordline_pulses),
           static_cast<double>(reuse.macro.wordline_pulses),
           static_cast<double>(both.macro.wordline_pulses),
           1.0 - static_cast<double>(reuse.macro.wordline_pulses) /
                     static_cast<double>(dense.macro.wordline_pulses),
           1.0 - static_cast<double>(both.macro.wordline_pulses) /
                     static_cast<double>(reuse.macro.wordline_pulses)});
    }
  }
  table.print(std::cout);

  std::printf("\nMask flips at the reuse locus (greedy ordering gain):\n");
  core::Table flips({"T", "p", "flips random order", "flips greedy order",
                     "gain"});
  flips.set_precision(3);
  for (int t : {10, 30, 100}) {
    for (double p : {0.3, 0.5}) {
      const auto random_o = measure(t, p, true, false);
      const auto greedy_o = measure(t, p, true, true);
      flips.add_row({static_cast<double>(t), p,
                     static_cast<double>(random_o.input_mask_flips),
                     static_cast<double>(greedy_o.input_mask_flips),
                     static_cast<double>(greedy_o.input_mask_flips) /
                         static_cast<double>(random_o.input_mask_flips)});
    }
  }
  flips.print(std::cout);

  std::printf("\nAccuracy cost of reuse under analog noise "
              "(drift of the delta accumulator), 4-bit macro:\n");
  core::Table drift({"T", "mean |reuse - dense| output delta"});
  drift.set_precision(5);
  for (int t : {10, 30, 100}) {
    bnn::SoftwareMaskSource m1(core::Rng{17});
    bnn::SoftwareMaskSource m2(core::Rng{17});
    bnn::McOptions o1;
    o1.iterations = t;
    o1.dropout_p = 0.5;
    o1.compute_reuse = true;
    bnn::McOptions o2 = o1;
    o2.compute_reuse = false;
    core::Rng a1(19), a2(19);
    const auto r1 = bnn::mc_predict_cim(cim, x, o1, m1, a1);
    const auto r2 = bnn::mc_predict_cim(cim, x, o2, m2, a2);
    double d = 0.0;
    for (std::size_t k = 0; k < r1.mean.size(); ++k)
      d += std::abs(r1.mean[k] - r2.mean[k]) / static_cast<double>(r1.mean.size());
    drift.add_row({static_cast<double>(t), d});
  }
  drift.print(std::cout);

  // Machine-readable perf record: wall-clock of the three execution modes
  // at the reference operating point (T=30, p=0.5) plus the measured
  // word-line workload ratios, tracked across PRs via BENCH_*.json. Each
  // timed row carries its measured word-line pulses as the items metric,
  // so the JSON exposes pulses/s alongside ns/op.
  std::printf("\n=== timed modes (T=30, p=0.5) ===\n");
  bench::Suite suite("compute_reuse");
  const auto dense_wl = measure(30, 0.5, false, false);
  const auto reuse_wl = measure(30, 0.5, true, false);
  const auto both_wl = measure(30, 0.5, true, true);
  const auto timed = [&](const std::string& name, bool reuse, bool order,
                         const bnn::McWorkload& wl) {
    bnn::SoftwareMaskSource masks(core::Rng{11});
    bnn::McOptions opt;
    opt.iterations = 30;
    opt.dropout_p = 0.5;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    core::Rng arng(13);
    cim.reset_stats();
    return suite
        .run(name, 1, static_cast<double>(wl.macro.wordline_pulses),
             "wl_pulses", [&] { bnn::mc_predict_cim(cim, x, opt, masks, arng); })
        .ns_per_op;
  };
  // Dense and reuse run in five alternating rounds, and the tracked ratio
  // takes their medians: a CPU-steal spike lands on one round, not on one
  // side.
  std::vector<double> dense_ns, reuse_ns;
  for (int round = 0; round < 5; ++round) {
    const std::string tag = "/round=" + std::to_string(round);
    dense_ns.push_back(timed("mc_predict/dense" + tag, false, false, dense_wl));
    reuse_ns.push_back(timed("mc_predict/reuse" + tag, true, false, reuse_wl));
  }
  timed("mc_predict/reuse+order", true, true, both_wl);

  // The pooled reuse engine: one window of frames, every refresh chain
  // advancing step-synchronously over the pool. Dispatch accounting runs
  // through mc_predict_cim_jobs with 8 lock-step reuse sessions: the
  // ratio is how many serial-equivalent jobs shared the tick's single
  // pooled dispatch set (the frame-serial fallback used to pin it ~1).
  core::ThreadPool pool(8);
  {
    constexpr int kFrames = 8;
    std::vector<nn::Vector> frames;
    for (int f = 0; f < kFrames; ++f) {
      nn::Vector v(144);
      for (auto& e : v) e = rng.uniform();
      frames.push_back(std::move(v));
    }
    std::vector<const nn::Vector*> xs;
    for (const auto& v : frames) xs.push_back(&v);
    bnn::McOptions opt;
    opt.iterations = 30;
    opt.dropout_p = 0.5;
    opt.compute_reuse = true;
    suite.run("mc_predict_window8/reuse+pooled", 8,
              static_cast<double>(kFrames) *
                  static_cast<double>(reuse_wl.macro.wordline_pulses),
              "wl_pulses", [&] {
                bnn::SoftwareMaskSource masks(core::Rng{11});
                core::Rng arng(13);
                bnn::mc_predict_cim_window(cim, xs, opt, masks, arng);
              });
  }
  double pooled_reuse_dispatch_ratio = 0.0;
  {
    constexpr std::size_t kSessions = 8;
    nn::Vector frame = x;
    std::vector<bnn::SoftwareMaskSource> masks;
    std::vector<core::Rng> arngs;
    for (std::size_t sidx = 0; sidx < kSessions; ++sidx) {
      masks.emplace_back(core::Rng{11 + static_cast<std::uint64_t>(sidx)});
      arngs.emplace_back(13 + static_cast<std::uint64_t>(sidx));
    }
    std::vector<bnn::McPrediction> preds(kSessions);
    bnn::McOptions opt;
    opt.iterations = 30;
    opt.dropout_p = 0.5;
    opt.compute_reuse = true;
    std::vector<bnn::McWindowJob> jobs(kSessions);
    const nn::Vector* xp = &frame;
    for (std::size_t sidx = 0; sidx < kSessions; ++sidx) {
      jobs[sidx].xs = &xp;
      jobs[sidx].n_frames = 1;
      jobs[sidx].options = opt;
      jobs[sidx].masks = &masks[sidx];
      jobs[sidx].analog_rng = &arngs[sidx];
      jobs[sidx].preds = &preds[sidx];
    }
    const std::size_t batched =
        bnn::mc_predict_cim_jobs(cim, jobs.data(), jobs.size(), &pool);
    pooled_reuse_dispatch_ratio = static_cast<double>(batched);
  }

  suite.add_summary("wordline_pulses_dense",
                    static_cast<double>(dense_wl.macro.wordline_pulses));
  suite.add_summary("wordline_pulses_reuse",
                    static_cast<double>(reuse_wl.macro.wordline_pulses));
  suite.add_summary("wordline_pulses_reuse_order",
                    static_cast<double>(both_wl.macro.wordline_pulses));
  suite.add_summary("reuse_saving",
                    1.0 - static_cast<double>(reuse_wl.macro.wordline_pulses) /
                              static_cast<double>(
                                  dense_wl.macro.wordline_pulses));
  // Within-run wall-clock ratio of the round medians (machine-portable):
  // the differential delta engine must keep reuse at or below dense at
  // T=30.
  suite.add_summary("reuse_wallclock_ratio",
                    bench::median(reuse_ns) / bench::median(dense_ns));
  // 8 lock-step reuse sessions sharing one pooled dispatch set -> 8.0;
  // a frame-serial fallback would collapse this toward 1.
  suite.add_summary("pooled_reuse_dispatch_ratio",
                    pooled_reuse_dispatch_ratio);
  suite.write_json();
  std::printf("\n");
  return 0;
}
