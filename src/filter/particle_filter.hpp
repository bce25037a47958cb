// Sequential-importance-resampling particle filter for 4-DoF drone
// localization (paper Sec. II-A/II-C): Monte-Carlo implementation of the
// recursive Bayes update, with systematic resampling triggered by the
// effective sample size.
//
// Storage is structure-of-arrays: the cloud lives in cache-line-aligned
// `x/y/z/yaw` arrays (two pose blocks cycled through a core::BufferPool
// for the double-buffered resample gather) plus `log_weight` and scratch
// arrays carved from a core::Arena. All per-step work — weight
// normalization, ESS, the tempering bisection, estimate, systematic
// resampling — runs as fused passes over these arrays, and the whole
// predict -> update -> resample cycle performs zero heap allocations
// after construction (asserted by the arena counters in
// memory_stats()). soa() and mutable_soa() are the only views of the
// cloud.
//
// Determinism contract: results are bit-identical to the historical AoS
// implementation at any thread count. Element-wise passes (likelihood
// blocks, exp() normalization, the resample gather) fan over the pool in
// fixed-size blocks; every reduction that feeds a decision (max, weight
// sum, the systematic-resampling cumulative chain) stays a serial
// index-order chain because float addition is not associative — see
// docs/architecture.md "Memory architecture".
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "vision/depth.hpp"

namespace cimnav::filter {

/// Filter configuration.
struct ParticleFilterConfig {
  int particle_count = 300;
  MotionNoise motion_noise;
  /// Resample when ESS / N drops below this fraction.
  double resample_threshold = 0.5;
  /// Post-resampling roughening jitter (Gilks-style) preventing particle
  /// impoverishment when the likelihood is sharp.
  core::Vec3 roughening_sigma_pos{0.02, 0.02, 0.015};
  double roughening_sigma_yaw = 0.01;
  /// ESS-targeted likelihood tempering (fixes the degenerate-first-update
  /// transient): when an update's raw ESS/N would fall below this floor,
  /// the update's log-likelihood contribution is annealed by a bisected
  /// beta in (0, 1] until ESS/N reaches the floor — a sharp likelihood
  /// against a wide cloud then tightens the belief over a few frames
  /// instead of collapsing it onto a handful of particles in one. 0
  /// disables tempering (the historical behavior, bit-identical). Must
  /// lie in [0, 1).
  double tempering_ess_floor = 0.0;
};

/// Weighted-mean state estimate with spread diagnostics.
struct PoseEstimate {
  core::Pose pose;
  core::Vec3 position_stddev;
  double yaw_stddev = 0.0;
};

/// Read-only view of the SoA cloud (pointers valid until the next
/// mutating call — resampling swaps pose blocks).
struct SoaView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* yaw = nullptr;
  const double* log_weight = nullptr;
  std::size_t count = 0;
};

/// Mutable view for tests and in-place editors.
struct MutableSoaView {
  double* x = nullptr;
  double* y = nullptr;
  double* z = nullptr;
  double* yaw = nullptr;
  double* log_weight = nullptr;
  std::size_t count = 0;
};

/// Lifetime heap-traffic ledger (see ParticleFilter::memory_stats):
/// `heap_allocations` counts arena/pool slab allocations only — it must
/// stay flat across steady-state predict -> update -> resample cycles.
struct FilterMemoryStats {
  std::uint64_t heap_allocations = 0;  ///< arena + pool slabs, lifetime
  std::uint64_t pool_acquires = 0;     ///< pose-block acquires (resamples)
  std::uint64_t pool_releases = 0;
  std::size_t particle_capacity = 0;   ///< allocated cloud capacity
  std::size_t arena_bytes = 0;         ///< scratch arena capacity
};

class ParticleFilter {
 public:
  explicit ParticleFilter(const ParticleFilterConfig& config);

  /// Global-localization init: uniform over an axis-aligned box and full
  /// heading uncertainty (yaw in (-pi, pi]).
  void init_uniform(const core::Vec3& lo, const core::Vec3& hi,
                    core::Rng& rng);

  /// Tracking init: Gaussian cloud around a pose guess.
  void init_gaussian(const core::Pose& center, const core::Vec3& sigma_pos,
                     double sigma_yaw, core::Rng& rng);

  /// Prediction step: samples the motion model per particle (Eq. 1a)
  /// with the configured static motion noise.
  void predict(const Control& control, core::Rng& rng);

  /// Prediction step with explicit per-step noise — the closed-loop
  /// odometry hook: the caller passes the VO increment as `control` and a
  /// VO-variance-inflated `MotionNoise` (see inflate_motion_noise), so the
  /// cloud widens exactly when the odometry source reports uncertainty.
  void predict(const Control& control, const MotionNoise& noise,
               core::Rng& rng);

  /// Correction step: re-weights particles by measurement likelihood
  /// (Eq. 1b), then resamples if the ESS fraction falls below threshold.
  /// The whole cloud is scored by one MeasurementModel::log_likelihoods
  /// call (stride 1): kParticleBlock-pose blocks fanned over `pool`
  /// (nullptr = serial) with noise streams keyed on block indices, so the
  /// result is bit-identical at any thread count. The CIM backend shares
  /// ideal currents across the whole update inside that call.
  void update(const vision::DepthScan& scan, const MeasurementModel& model,
              core::Rng& rng, core::ThreadPool* pool = nullptr);

  /// Decimated correction step — the wake-up policies' cheap mode: only
  /// every `stride`-th particle (stride = round(1 / particle_fraction))
  /// evaluates the measurement likelihood, and each stride block of
  /// contiguous particles shares its representative's log-likelihood.
  /// After a systematic resample, contiguous indices are duplicates of
  /// the same parent (plus roughening jitter), so block sharing reads as
  /// a spatially coherent coarse likelihood field; the approximation is
  /// worst right after init, which is why the built-in policies warm up
  /// with full updates. Likelihood evaluations drop by ~1/stride — the
  /// measured energy saving. particle_fraction must lie in (0, 1];
  /// fraction 1 is exactly update(). The representatives are scored by
  /// one log_likelihoods call over the cloud with stride `stride`, under
  /// the same block-keyed noise streams as update, so the result is
  /// deterministic at any thread count.
  void update_decimated(const vision::DepthScan& scan,
                        const MeasurementModel& model,
                        double particle_fraction, core::Rng& rng,
                        core::ThreadPool* pool = nullptr);

  /// The stride update_decimated actually uses for a requested fraction:
  /// round(1 / particle_fraction), at least 1. Callers accounting for
  /// the work done (the closed loop's energy ledger, step budgets) must
  /// book 1/stride, not the requested fraction — stride 1 IS a full
  /// update.
  static std::size_t decimation_stride(double particle_fraction);

  /// Effective sample size of the current normalized weights.
  double effective_sample_size() const;

  /// ESS measured in the last update() *before* any resampling — the
  /// meaningful degeneracy diagnostic (post-resample weights are uniform).
  double last_update_ess() const { return last_update_ess_; }

  /// Tempering beta applied by the last update (1 = no annealing; < 1
  /// only when ParticleFilterConfig::tempering_ess_floor fired).
  double last_update_beta() const { return last_update_beta_; }

  /// Weighted-mean pose (circular mean for yaw) and spread.
  PoseEstimate estimate() const;

  /// Current particle count.
  std::size_t size() const { return count_; }

  /// Zero-copy read view of the SoA cloud.
  SoaView soa() const;

  /// Mutable SoA view (tests / in-place editors). Yaw values written
  /// through the view must already be wrapped to (-pi, pi].
  MutableSoaView mutable_soa();

  const ParticleFilterConfig& config() const { return config_; }

  /// Lifetime heap-traffic counters: `heap_allocations` is flat across
  /// steady-state predict -> update -> resample cycles (the
  /// zero-allocation contract); it moves only at construction and when
  /// resample_to grows past the allocated capacity.
  FilterMemoryStats memory_stats() const;

  /// Systematic (low-variance) resampling; exposed for testing. The
  /// gather fans over `pool`; results are pool-independent.
  void resample(core::Rng& rng, core::ThreadPool* pool = nullptr);

  /// Systematic resampling into a *different* cloud size (KLD-sampling
  /// support): draws `n` particles proportionally to the current weights.
  /// Allocation-free while n <= the allocated capacity; growing past it
  /// re-slabs the arena (counted in memory_stats).
  void resample_to(std::size_t n, core::Rng& rng,
                   core::ThreadPool* pool = nullptr);

 private:
  /// Reconstructs particle i's pose without re-wrapping yaw (stored
  /// values are already wrapped; Pose's converting ctor must not run).
  core::Pose pose_at(std::size_t i) const {
    core::Pose p;
    p.position = {x_[i], y_[i], z_[i]};
    p.yaw = yaw_[i];
    return p;
  }

  /// Grows the arena/pose-pool storage to hold `cap` particles (no-op if
  /// already large enough). Live state is preserved.
  void ensure_capacity(std::size_t cap);

  /// Fills weights_[0..count_) with the normalized weights, replicating
  /// prob::normalize_log_weights bit for bit (serial max and sum chains;
  /// the two exp() passes fan over `pool`). The result is a pure function
  /// of logw_[0..count_), so it is cached across calls (weights_valid_)
  /// — the update's ESS measurement and the resample that follows it
  /// share one normalization — and an all-equal cloud (the state right
  /// after a resample) takes a one-exp broadcast fast path.
  void fill_normalized_weights(core::ThreadPool* pool) const;

  /// Shared tail of update / update_decimated: anneal `deltas` against
  /// the tempering floor, fold them into the weights, then resample +
  /// roughen below the resample threshold. `deltas` holds one
  /// log-likelihood increment per particle (count_ entries).
  void apply_log_likelihoods(const double* deltas, core::Rng& rng,
                             core::ThreadPool* pool);

  /// ESS of the weights after adding beta * deltas (no state change).
  double tempered_ess(const double* deltas, double beta) const;

  ParticleFilterConfig config_;
  core::Arena arena_;           ///< log-weights + scratch arrays
  core::BufferPool pose_pool_;  ///< two pose blocks (resample gather)
  std::size_t count_ = 0;       ///< live particles
  std::size_t capacity_ = 0;    ///< allocated particle capacity
  std::size_t padded_ = 0;      ///< capacity_ rounded up to a cache line
  void* front_ = nullptr;       ///< pose block holding x_/y_/z_/yaw_
  double* x_ = nullptr;
  double* y_ = nullptr;
  double* z_ = nullptr;
  double* yaw_ = nullptr;
  double* logw_ = nullptr;
  double* weights_ = nullptr;      ///< normalized-weight / ESS scratch
  double* deltas_ = nullptr;       ///< per-update log-likelihoods
  std::uint32_t* idx_ = nullptr;   ///< resample ancestor indices
  std::uint64_t retired_heap_allocations_ = 0;  ///< from replaced slabs
  double last_update_ess_ = 0.0;
  double last_update_beta_ = 1.0;
  mutable bool weights_valid_ = false;  ///< weights_ matches current logw_
};

}  // namespace cimnav::filter
