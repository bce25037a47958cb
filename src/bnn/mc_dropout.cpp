#include "bnn/mc_dropout.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace cimnav::bnn {
namespace {

/// Mask-site widths of `net`: the input site (when input-site dropout is
/// on), then every hidden layer. Fills `widths` reusing its capacity.
void mask_site_widths(const nn::CimMlp& net, std::vector<int>& widths) {
  widths.clear();
  if (net.dropout_on_input()) widths.push_back(net.macro(0).n_in());
  for (int l = 0; l + 1 < net.layer_count(); ++l)
    widths.push_back(net.macro(l).n_out());
}

/// Serial Welford reduction of one frame's iteration outputs into `pred`
/// in place (pred.variance doubles as the M2 accumulator until the final
/// scale), in iteration order — allocation-free once pred's vectors are
/// warm.
void reduce_outputs(const std::vector<nn::Vector>& outs, std::size_t n_out,
                    McPrediction& pred) {
  pred.mean.assign(n_out, 0.0);
  pred.variance.assign(n_out, 0.0);
  std::size_t n = 0;
  for (const auto& v : outs) {
    ++n;
    for (std::size_t i = 0; i < n_out; ++i) {
      const double delta = v[i] - pred.mean[i];
      pred.mean[i] += delta / static_cast<double>(n);
      pred.variance[i] += delta * (v[i] - pred.mean[i]);
    }
  }
  if (n > 1) {
    for (std::size_t i = 0; i < n_out; ++i)
      pred.variance[i] /= static_cast<double>(n - 1);
  } else {
    pred.variance.assign(n_out, 0.0);
  }
  pred.samples = static_cast<int>(n);
}

/// Draws `iterations` mask sets into `sets` (resized in place, reusing
/// capacity) and returns the number of bits drawn. Both the per-frame and
/// the window path go through this, so their MaskSource consumption order
/// is identical by construction — the bit-identity contract depends on it.
std::uint64_t draw_mask_sets(const std::vector<int>& widths, int iterations,
                             double dropout_p, MaskSource& masks,
                             std::vector<std::vector<nn::Mask>>& sets) {
  std::uint64_t bits_drawn = 0;
  sets.resize(static_cast<std::size_t>(iterations));
  for (auto& set : sets) {
    set.resize(widths.size());
    for (std::size_t s = 0; s < widths.size(); ++s) {
      set[s].resize(static_cast<std::size_t>(widths[s]));
      for (auto& bit : set[s]) {
        bit = masks.draw(dropout_p) ? 0 : 1;
        ++bits_drawn;
      }
    }
  }
  return bits_drawn;
}

}  // namespace

double McPrediction::scalar_variance() const {
  if (variance.empty()) return 0.0;
  double s = 0.0;
  for (double v : variance) s += v;
  return s / static_cast<double>(variance.size());
}

double McPrediction::component_stddev(std::size_t i) const {
  CIMNAV_REQUIRE(i < variance.size(), "component index out of range");
  return std::sqrt(std::max(variance[i], 0.0));
}

McPrediction mc_predict_float(const nn::Mlp& net, const nn::Vector& x,
                              int iterations, double dropout_p,
                              MaskSource& masks) {
  CIMNAV_REQUIRE(iterations >= 1, "need at least one iteration");
  std::vector<nn::Vector> outs;
  outs.reserve(static_cast<std::size_t>(iterations));
  for (int t = 0; t < iterations; ++t) {
    const auto mask_set =
        net.sample_masks([&] { return masks.draw(dropout_p); });
    outs.push_back(net.forward_masked(x, mask_set));
  }
  McPrediction pred;
  reduce_outputs(outs, static_cast<std::size_t>(net.output_size()), pred);
  return pred;
}

std::uint64_t hamming_distance(const nn::Mask& a, const nn::Mask& b) {
  CIMNAV_REQUIRE(a.size() == b.size(), "mask size mismatch");
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

void greedy_order_chain(const std::vector<std::vector<nn::Mask>>& sets,
                        std::size_t begin, std::size_t end,
                        std::vector<std::size_t>& order,
                        std::vector<std::uint8_t>& used) {
  CIMNAV_REQUIRE(begin <= end && end <= sets.size() && end <= order.size(),
                 "tour range out of bounds");
  const std::size_t n = end - begin;
  if (n == 0) return;
  used.assign(n, 0);
  std::size_t current = begin;
  used[0] = 1;
  order[begin] = begin;
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = end;
    std::uint64_t best_d = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t j = begin; j < end; ++j) {
      if (used[j - begin]) continue;
      const std::uint64_t d = hamming_distance(sets[current][0], sets[j][0]);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    order[begin + step] = best;
    used[best - begin] = 1;
    current = best;
  }
}

McPrediction mc_predict_cim(const nn::CimMlp& net, const nn::Vector& x,
                            const McOptions& options, MaskSource& masks,
                            core::Rng& analog_rng, McWorkload* workload) {
  // One-frame window: the jobs engine below is the single execution path
  // for every MC variant (dense, reuse, ordered), so standalone, windowed
  // and fleet-batched calls are bit-identical by construction.
  McPrediction pred;
  const nn::Vector* xs[1] = {&x};
  McWindowJob job;
  job.xs = xs;
  job.n_frames = 1;
  job.options = options;
  job.masks = &masks;
  job.analog_rng = &analog_rng;
  job.preds = &pred;
  job.workload = workload;
  mc_predict_cim_jobs(net, &job, 1, options.pool);
  return pred;
}

std::vector<McPrediction> mc_predict_cim_window(
    const nn::CimMlp& net, const std::vector<const nn::Vector*>& xs,
    const McOptions& options, MaskSource& masks, core::Rng& analog_rng,
    McWorkload* workload, std::size_t side_items,
    const std::function<void(std::size_t)>& /*side_item*/,
    std::vector<McWorkload>* frame_workloads) {
  CIMNAV_REQUIRE(side_items == 0, "side items are no longer supported");
  if (frame_workloads != nullptr) frame_workloads->assign(xs.size(),
                                                          McWorkload{});
  std::vector<McPrediction> preds(xs.size());
  McWindowJob job;
  job.xs = xs.data();
  job.n_frames = xs.size();
  job.options = options;
  job.masks = &masks;
  job.analog_rng = &analog_rng;
  job.preds = preds.data();
  job.frame_workloads =
      frame_workloads != nullptr ? frame_workloads->data() : nullptr;
  job.workload = workload;
  mc_predict_cim_jobs(net, &job, 1, options.pool);
  return preds;
}

std::size_t mc_predict_cim_jobs(const nn::CimMlp& net, McWindowJob* jobs,
                                std::size_t n_jobs, core::ThreadPool* pool) {
  // Every job batches: dense jobs share ONE forward_window (one pooled
  // macro dispatch per layer over every (job, frame, iteration) item) and
  // compute-reuse jobs share ONE forward_reuse_window (their refresh
  // chains advance step-synchronously across every (job, frame), with the
  // per-step delta matvecs pooled into one sparse batch). Per job, masks
  // and noise roots are drawn from that job's own sources in frame order,
  // so each job's predictions depend only on its own sources — never on
  // which other sessions share the dispatch.
  thread_local std::vector<int> widths_tls;
  thread_local std::vector<std::vector<std::vector<nn::Mask>>> sets_tls;
  thread_local std::vector<std::vector<std::vector<nn::Mask>>> ordered_tls;
  thread_local std::vector<std::vector<std::size_t>> orders_tls;
  thread_local std::vector<std::uint8_t> used_tls;
  thread_local std::vector<nn::CimMlp::FrameBatch> dense_frames_tls;
  thread_local std::vector<nn::CimMlp::ReuseFrame> reuse_frames_tls;
  thread_local std::vector<std::vector<nn::Vector>> reuse_outs_tls;
  thread_local std::vector<cimsram::MacroStats> reuse_stats_tls;
  thread_local std::vector<std::size_t> first_frame_tls;
  thread_local std::vector<std::uint8_t> job_reuse_tls;
  std::vector<int>& widths = widths_tls;
  std::vector<nn::CimMlp::FrameBatch>& dense_frames = dense_frames_tls;
  std::vector<nn::CimMlp::ReuseFrame>& reuse_frames = reuse_frames_tls;
  std::vector<std::size_t>& first_frame = first_frame_tls;
  std::vector<std::uint8_t>& job_reuse = job_reuse_tls;
  mask_site_widths(net, widths);

  std::size_t total_frames = 0, total_reuse = 0, batched = 0;
  job_reuse.clear();
  for (std::size_t j = 0; j < n_jobs; ++j) {
    CIMNAV_REQUIRE(jobs[j].options.iterations >= 1,
                   "need at least one iteration");
    // The reuse engine needs a locus: input-site dropout, or a hidden
    // layer whose mask gates layer 1. Jobs without one run dense (sample
    // ordering still applies there — it permutes the visiting order).
    const bool can_reuse =
        jobs[j].options.compute_reuse &&
        (net.dropout_on_input() || net.layer_count() >= 2) &&
        !widths.empty();
    job_reuse.push_back(can_reuse ? 1 : 0);
    total_frames += jobs[j].n_frames;
    if (can_reuse) total_reuse += jobs[j].n_frames;
    if (jobs[j].n_frames > 0) ++batched;
  }
  // Grow-only resizes, done before any views are taken so FrameBatch /
  // ReuseFrame pointers stay stable; warm inner buffers stay alive.
  if (sets_tls.size() < total_frames) sets_tls.resize(total_frames);
  if (ordered_tls.size() < total_frames) ordered_tls.resize(total_frames);
  if (orders_tls.size() < total_frames) orders_tls.resize(total_frames);
  if (reuse_outs_tls.size() < total_reuse) reuse_outs_tls.resize(total_reuse);
  if (reuse_stats_tls.size() < total_reuse)
    reuse_stats_tls.resize(total_reuse);
  dense_frames.clear();
  reuse_frames.clear();
  first_frame.clear();

  // Per job, in job order: draw each frame's mask sets then its noise
  // root — the exact per-source consumption of a serial single-session
  // window over the same frames, on both the dense and the reuse path.
  bool any_dense_tracking = false;
  std::size_t slot = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    McWindowJob& job = jobs[j];
    const bool can_reuse = job_reuse[j] != 0;
    const bool track =
        job.workload != nullptr || job.frame_workloads != nullptr;
    first_frame.push_back(can_reuse ? reuse_frames.size()
                                    : dense_frames.size());
    any_dense_tracking = any_dense_tracking || (!can_reuse && track);
    for (std::size_t f = 0; f < job.n_frames; ++f) {
      auto& mask_sets = sets_tls[slot];
      const std::uint64_t frame_bits =
          draw_mask_sets(widths, job.options.iterations,
                         job.options.dropout_p, *job.masks, mask_sets);
      const std::size_t t_total = mask_sets.size();
      std::uint64_t frame_flips = 0;
      if (can_reuse) {
        // Refresh chains slice the visiting positions; the greedy
        // min-Hamming tour (and the flip metric it minimizes) is
        // per-chain — deltas never cross a dense refresh.
        const std::size_t chain_len =
            job.options.reuse_refresh_interval > 0
                ? static_cast<std::size_t>(job.options.reuse_refresh_interval)
                : t_total;
        auto& order = orders_tls[slot];
        order.resize(t_total);
        for (std::size_t k = 0; k < t_total; ++k) order[k] = k;
        for (std::size_t b = 0; b < t_total; b += chain_len) {
          const std::size_t e = std::min(b + chain_len, t_total);
          if (job.options.order_samples)
            greedy_order_chain(mask_sets, b, e, order, used_tls);
          if (track) {
            for (std::size_t k = b + 1; k < e; ++k)
              frame_flips += hamming_distance(mask_sets[order[k - 1]][0],
                                              mask_sets[order[k]][0]);
          }
        }
        nn::CimMlp::ReuseFrame rf;
        rf.x = job.xs[f];
        rf.mask_sets = &mask_sets;
        rf.order = order.data();
        rf.chain_len = chain_len;
        rf.noise_root = (*job.analog_rng)();
        rf.outs = &reuse_outs_tls[reuse_frames.size()];
        rf.stats = track ? &reuse_stats_tls[reuse_frames.size()] : nullptr;
        reuse_frames.push_back(rf);
      } else {
        const std::vector<std::vector<nn::Mask>>* use_sets = &mask_sets;
        if (job.options.order_samples && !widths.empty() && t_total > 1) {
          // Ordering without reuse: permute the whole window's visiting
          // order (one tour, no chains) and run it dense.
          auto& order = orders_tls[slot];
          order.resize(t_total);
          for (std::size_t k = 0; k < t_total; ++k) order[k] = k;
          greedy_order_chain(mask_sets, 0, t_total, order, used_tls);
          auto& ordered = ordered_tls[slot];
          ordered.resize(t_total);
          for (std::size_t k = 0; k < t_total; ++k)
            ordered[k] = mask_sets[order[k]];
          use_sets = &ordered;
        }
        if (track && !widths.empty()) {
          for (std::size_t t = 1; t < use_sets->size(); ++t)
            frame_flips += hamming_distance((*use_sets)[t - 1][0],
                                            (*use_sets)[t][0]);
        }
        nn::CimMlp::FrameBatch fb;
        fb.x = job.xs[f];
        fb.mask_sets = use_sets;
        fb.noise_root = (*job.analog_rng)();
        dense_frames.push_back(fb);
      }
      if (job.workload != nullptr) {
        job.workload->mask_bits_drawn += frame_bits;
        job.workload->input_mask_flips += frame_flips;
      }
      if (job.frame_workloads != nullptr) {
        job.frame_workloads[f] = McWorkload{};
        job.frame_workloads[f].mask_bits_drawn = frame_bits;
        job.frame_workloads[f].input_mask_flips = frame_flips;
      }
      ++slot;
    }
  }

  thread_local nn::CimMlp::WindowScratch scratch_tls;
  thread_local std::vector<std::vector<nn::Vector>> outs_tls;
  thread_local std::vector<cimsram::MacroStats> frame_stats_tls;
  thread_local nn::CimMlp::ReuseScratch reuse_scratch_tls;
  std::vector<std::vector<nn::Vector>>& outs = outs_tls;
  std::vector<cimsram::MacroStats>& frame_stats = frame_stats_tls;
  if (!dense_frames.empty()) {
    net.forward_window(dense_frames, pool, scratch_tls, outs,
                       any_dense_tracking ? &frame_stats : nullptr);
  }
  if (!reuse_frames.empty())
    net.forward_reuse_window(reuse_frames, pool, reuse_scratch_tls);

  // Welford reduction stays serial and in (job, frame, iteration) order,
  // so the final moments are bit-exact at any thread count. Macro
  // attribution is exact per frame on both paths (captured per item /
  // per chain inside the dispatches).
  const std::size_t n_out =
      static_cast<std::size_t>(net.macro(net.layer_count() - 1).n_out());
  for (std::size_t j = 0; j < n_jobs; ++j) {
    McWindowJob& job = jobs[j];
    const bool can_reuse = job_reuse[j] != 0;
    const bool track =
        job.workload != nullptr || job.frame_workloads != nullptr;
    const std::size_t base = first_frame[j];
    for (std::size_t f = 0; f < job.n_frames; ++f) {
      reduce_outputs(can_reuse ? reuse_outs_tls[base + f] : outs[base + f],
                     n_out, job.preds[f]);
      if (!track) continue;
      const cimsram::MacroStats& st =
          can_reuse ? reuse_stats_tls[base + f] : frame_stats[base + f];
      if (job.frame_workloads != nullptr) job.frame_workloads[f].macro += st;
      if (job.workload != nullptr) job.workload->macro += st;
    }
  }
  return batched;
}

}  // namespace cimnav::bnn
