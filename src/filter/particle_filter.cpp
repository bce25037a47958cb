#include "filter/particle_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace cimnav::filter {

namespace {
// Fan granularity of pure element-wise passes (exp normalization, the
// resample gather). Partitioning cannot change element-wise results, so
// this is a throughput knob only, not a determinism one.
constexpr std::size_t kElementChunk = 2048;
}  // namespace

ParticleFilter::ParticleFilter(const ParticleFilterConfig& config)
    : config_(config) {
  CIMNAV_REQUIRE(config.particle_count > 0, "need at least one particle");
  CIMNAV_REQUIRE(config.resample_threshold >= 0.0 &&
                     config.resample_threshold <= 1.0,
                 "resample threshold must lie in [0, 1]");
  CIMNAV_REQUIRE(config.tempering_ess_floor >= 0.0 &&
                     config.tempering_ess_floor < 1.0,
                 "tempering ESS floor must lie in [0, 1)");
  ensure_capacity(static_cast<std::size_t>(config.particle_count));
}

void ParticleFilter::ensure_capacity(std::size_t cap) {
  if (cap <= capacity_) return;
  // Geometric growth so repeated KLD-driven grow steps amortize; each
  // growth is a counted warm-up allocation (memory_stats).
  const std::size_t target = std::max(cap, capacity_ * 2);
  // Pad to whole cache lines of doubles so the four arrays of a pose
  // block are each line-aligned.
  const std::size_t padded = (target + 7) & ~static_cast<std::size_t>(7);

  core::Arena arena(3 * padded * sizeof(double) +
                    padded * sizeof(std::uint32_t));
  double* logw = arena.carve_array<double>(padded);
  double* weights = arena.carve_array<double>(padded);
  double* deltas = arena.carve_array<double>(padded);
  auto* idx = arena.carve_array<std::uint32_t>(padded);

  core::BufferPool pool(4 * padded * sizeof(double), 2);
  void* front = pool.acquire();
  auto* x = static_cast<double*>(front);
  double* y = x + padded;
  double* z = y + padded;
  double* yaw = z + padded;

  for (std::size_t i = 0; i < count_; ++i) {
    x[i] = x_[i];
    y[i] = y_[i];
    z[i] = z_[i];
    yaw[i] = yaw_[i];
    logw[i] = logw_[i];
    weights[i] = weights_[i];
  }

  retired_heap_allocations_ += arena_.stats().slab_allocations +
                               pose_pool_.stats().slab_allocations;
  arena_ = std::move(arena);
  pose_pool_ = std::move(pool);
  front_ = front;
  x_ = x;
  y_ = y;
  z_ = z;
  yaw_ = yaw;
  logw_ = logw;
  weights_ = weights;
  deltas_ = deltas;
  idx_ = idx;
  capacity_ = target;
  padded_ = padded;
}

void ParticleFilter::init_uniform(const core::Vec3& lo, const core::Vec3& hi,
                                  core::Rng& rng) {
  for (int d = 0; d < 3; ++d)
    CIMNAV_REQUIRE(hi[d] > lo[d], "init box must be non-empty");
  count_ = static_cast<std::size_t>(config_.particle_count);
  for (std::size_t i = 0; i < count_; ++i) {
    // The Pose ctor wraps yaw — same draw order and wrap as ever.
    core::Pose p{{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                  rng.uniform(lo.z, hi.z)},
                 rng.uniform(-3.14159265358979323846, 3.14159265358979323846)};
    x_[i] = p.position.x;
    y_[i] = p.position.y;
    z_[i] = p.position.z;
    yaw_[i] = p.yaw;
    logw_[i] = 0.0;
  }
  weights_valid_ = false;
}

void ParticleFilter::init_gaussian(const core::Pose& center,
                                   const core::Vec3& sigma_pos,
                                   double sigma_yaw, core::Rng& rng) {
  count_ = static_cast<std::size_t>(config_.particle_count);
  for (std::size_t i = 0; i < count_; ++i) {
    core::Pose p{{rng.normal(center.position.x, sigma_pos.x),
                  rng.normal(center.position.y, sigma_pos.y),
                  rng.normal(center.position.z, sigma_pos.z)},
                 rng.normal(center.yaw, sigma_yaw)};
    x_[i] = p.position.x;
    y_[i] = p.position.y;
    z_[i] = p.position.z;
    yaw_[i] = p.yaw;
    logw_[i] = 0.0;
  }
  weights_valid_ = false;
}

void ParticleFilter::predict(const Control& control, core::Rng& rng) {
  predict(control, config_.motion_noise, rng);
}

void ParticleFilter::predict(const Control& control, const MotionNoise& noise,
                             core::Rng& rng) {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  for (std::size_t i = 0; i < count_; ++i) {
    const core::Pose moved = sample_motion(pose_at(i), control, noise, rng);
    x_[i] = moved.position.x;
    y_[i] = moved.position.y;
    z_[i] = moved.position.z;
    yaw_[i] = moved.yaw;
  }
}

void ParticleFilter::update(const vision::DepthScan& scan,
                            const MeasurementModel& model, core::Rng& rng,
                            core::ThreadPool* pool) {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  const std::uint64_t noise_root = rng();
  model.log_likelihoods({x_, y_, z_, yaw_, count_, 1}, scan, noise_root, pool,
                        {deltas_, count_});
  apply_log_likelihoods(deltas_, rng, pool);
}

std::size_t ParticleFilter::decimation_stride(double particle_fraction) {
  CIMNAV_REQUIRE(particle_fraction > 0.0 && particle_fraction <= 1.0,
                 "particle fraction must lie in (0, 1]");
  const auto stride =
      static_cast<std::size_t>(std::llround(1.0 / particle_fraction));
  return stride < 1 ? 1 : stride;
}

void ParticleFilter::update_decimated(const vision::DepthScan& scan,
                                      const MeasurementModel& model,
                                      double particle_fraction,
                                      core::Rng& rng,
                                      core::ThreadPool* pool) {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  const std::size_t stride = decimation_stride(particle_fraction);
  if (stride <= 1) {
    update(scan, model, rng, pool);
    return;
  }
  // Representatives: particle 0 of every stride block, scored as one
  // batch of n_reps poses under the same block-keyed streams as the full
  // update (blocks of kParticleBlock *representatives*), so the result is
  // bit-identical at any thread count.
  const std::size_t n_reps = (count_ + stride - 1) / stride;
  const std::uint64_t noise_root = rng();
  model.log_likelihoods({x_, y_, z_, yaw_, n_reps, stride}, scan, noise_root,
                        pool, {deltas_, n_reps});
  // Every particle of a stride block shares its representative's
  // log-likelihood — a coarse likelihood field that is spatially
  // coherent after systematic resampling (contiguous indices are
  // duplicates of one parent). Expansion is in place, descending so the
  // rep entries at the front of deltas_ are read before being
  // overwritten.
  for (std::size_t i = count_; i-- > 0;) deltas_[i] = deltas_[i / stride];
  apply_log_likelihoods(deltas_, rng, pool);
}

double ParticleFilter::tempered_ess(const double* deltas,
                                    double beta) const {
  // Allocation-free: ESS needs only sum(w) and sum(w^2) of the
  // max-shifted exponentials, not the normalized weights themselves.
  double max_logw = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count_; ++i)
    max_logw = std::max(max_logw, logw_[i] + beta * deltas[i]);
  if (!std::isfinite(max_logw)) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    const double w = std::exp(logw_[i] + beta * deltas[i] - max_logw);
    sum += w;
    sum_sq += w * w;
  }
  return sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
}

void ParticleFilter::apply_log_likelihoods(const double* deltas,
                                           core::Rng& rng,
                                           core::ThreadPool* pool) {
  const double n = static_cast<double>(count_);
  double beta = 1.0;
  const double floor = config_.tempering_ess_floor;
  if (floor > 0.0 && tempered_ess(deltas, 1.0) < floor * n) {
    // ESS-targeted annealing: find the largest beta whose tempered ESS
    // stays above the floor. beta = 0 keeps the pre-update weights
    // (ESS >= floor whenever the filter was healthy going in); if even
    // those are below the floor the anneal cannot help, so the full
    // measurement is applied rather than discarded.
    if (tempered_ess(deltas, 0.0) >= floor * n) {
      // 25 halvings resolve beta to ~3e-8 — far past what the ESS
      // target can distinguish; each probe is one O(N) pass.
      double lo = 0.0, hi = 1.0;
      for (int it = 0; it < 25; ++it) {
        const double mid = 0.5 * (lo + hi);
        (tempered_ess(deltas, mid) >= floor * n ? lo : hi) = mid;
      }
      beta = lo;
    }
  }
  last_update_beta_ = beta;
  for (std::size_t i = 0; i < count_; ++i) logw_[i] += beta * deltas[i];
  weights_valid_ = false;
  last_update_ess_ = effective_sample_size();
  if (last_update_ess_ < config_.resample_threshold * n) {
    resample(rng, pool);
    // Roughening: diversify the duplicated survivors so the cloud can
    // keep representing residual uncertainty. Serial: the jitter stream
    // is one shared rng, same draw order as ever.
    const auto& rp = config_.roughening_sigma_pos;
    if (rp.x > 0.0 || rp.y > 0.0 || rp.z > 0.0 ||
        config_.roughening_sigma_yaw > 0.0) {
      for (std::size_t i = 0; i < count_; ++i) {
        x_[i] += rng.normal(0.0, rp.x);
        y_[i] += rng.normal(0.0, rp.y);
        z_[i] += rng.normal(0.0, rp.z);
        yaw_[i] = core::wrap_angle(
            yaw_[i] + rng.normal(0.0, config_.roughening_sigma_yaw));
      }
    }
  }
}

void ParticleFilter::fill_normalized_weights(core::ThreadPool* pool) const {
  // Bit-for-bit replication of prob::normalize_log_weights over the SoA
  // arrays: the max and sum reductions are serial index-order chains
  // (float addition is not associative — parallelizing them would change
  // the last ulp and, downstream, resampling decisions); the two exp()
  // passes are element-wise and fan over the pool safely.
  //
  // The weights are a pure function of logw_[0..count_), so a repeat call
  // with unchanged log-weights (ESS measurement followed by the resample
  // it triggers, estimate() after update) is served from cache.
  if (weights_valid_) return;
  double m = logw_[0];
  bool all_equal = true;
  for (std::size_t i = 1; i < count_; ++i) {
    all_equal &= logw_[i] == logw_[0];
    if (m < logw_[i]) m = logw_[i];
  }
  const double uniform = 1.0 / static_cast<double>(count_);
  if (!std::isfinite(m)) {
    for (std::size_t i = 0; i < count_; ++i) weights_[i] = uniform;
    weights_valid_ = true;
    return;
  }
  if (all_equal) {
    // Uniform cloud (the state right after a resample zeroes the
    // log-weights): every exp(logw - m) is exp(0) = 1.0, the serial sum
    // of count_ ones is exact for any realistic cloud size, and every
    // normalized weight takes the same value exp(m - lse) — one exp and
    // a broadcast replace both element-wise passes, bit-identically.
    const double s = static_cast<double>(count_);
    const double lse = m + std::log(s);
    const double w = std::isfinite(lse) ? std::exp(m - lse) : uniform;
    for (std::size_t i = 0; i < count_; ++i) weights_[i] = w;
    weights_valid_ = true;
    return;
  }
  struct Ctx {
    const double* logw;
    double* w;
    double shift;
  } ctx{logw_, weights_, m};
  const auto exp_shift = [&ctx](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i)
      ctx.w[i] = std::exp(ctx.logw[i] - ctx.shift);
  };
  if (pool != nullptr) {
    pool->parallel_for(count_, kElementChunk, exp_shift);
  } else {
    exp_shift(0, count_, 0);
  }
  double s = 0.0;
  for (std::size_t i = 0; i < count_; ++i) s += weights_[i];
  const double lse = m + std::log(s);
  if (!std::isfinite(lse)) {
    for (std::size_t i = 0; i < count_; ++i) weights_[i] = uniform;
    weights_valid_ = true;
    return;
  }
  ctx.shift = lse;
  if (pool != nullptr) {
    pool->parallel_for(count_, kElementChunk, exp_shift);
  } else {
    exp_shift(0, count_, 0);
  }
  weights_valid_ = true;
}

double ParticleFilter::effective_sample_size() const {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  fill_normalized_weights(nullptr);
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < count_; ++i) sum_sq += weights_[i] * weights_[i];
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

void ParticleFilter::resample(core::Rng& rng, core::ThreadPool* pool) {
  resample_to(count_, rng, pool);
}

void ParticleFilter::resample_to(std::size_t n, core::Rng& rng,
                                 core::ThreadPool* pool) {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  CIMNAV_REQUIRE(n > 0, "need at least one particle");
  // Normalize over the *current* cloud first (it fits the current
  // buffers); growth preserves the weights alongside the pose arrays.
  fill_normalized_weights(pool);
  ensure_capacity(n);
  // Systematic resampling: one uniform offset, n evenly spaced pointers.
  // The cumulative chain is the serial inclusive prefix sum over the
  // weights, consumed on the fly — index selection is bit-identical to
  // the historical AoS loop at any thread count.
  const double step = 1.0 / static_cast<double>(n);
  double u = rng.uniform() * step;
  double cumulative = weights_[0];
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (u > cumulative && idx + 1 < count_) {
      ++idx;
      cumulative += weights_[idx];
    }
    idx_[i] = static_cast<std::uint32_t>(idx);
    u += step;
  }
  // Double-buffered gather: ancestors stream from the front pose block
  // into the pool's spare block (element-wise, pool-fanned), then the
  // blocks swap roles. No AoS staging vector, no allocation.
  void* back = pose_pool_.acquire();
  struct Ctx {
    const double* sx;
    const double* sy;
    const double* sz;
    const double* syaw;
    double* dx;
    double* dy;
    double* dz;
    double* dyaw;
    const std::uint32_t* idx;
  } ctx{x_,
        y_,
        z_,
        yaw_,
        static_cast<double*>(back),
        static_cast<double*>(back) + padded_,
        static_cast<double*>(back) + 2 * padded_,
        static_cast<double*>(back) + 3 * padded_,
        idx_};
  const auto gather = [&ctx](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t a = ctx.idx[i];
      ctx.dx[i] = ctx.sx[a];
      ctx.dy[i] = ctx.sy[a];
      ctx.dz[i] = ctx.sz[a];
      ctx.dyaw[i] = ctx.syaw[a];
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n, kElementChunk, gather);
  } else {
    gather(0, n, 0);
  }
  pose_pool_.release(front_);
  front_ = back;
  x_ = ctx.dx;
  y_ = ctx.dy;
  z_ = ctx.dz;
  yaw_ = ctx.dyaw;
  count_ = n;
  for (std::size_t i = 0; i < n; ++i) logw_[i] = 0.0;
  weights_valid_ = false;
}

PoseEstimate ParticleFilter::estimate() const {
  CIMNAV_REQUIRE(count_ > 0, "filter not initialized");
  fill_normalized_weights(nullptr);
  core::Vec3 mean{};
  double sin_sum = 0.0, cos_sum = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    mean += core::Vec3{x_[i], y_[i], z_[i]} * weights_[i];
    sin_sum += std::sin(yaw_[i]) * weights_[i];
    cos_sum += std::cos(yaw_[i]) * weights_[i];
  }
  const double yaw = std::atan2(sin_sum, cos_sum);

  core::Vec3 var{};
  double yaw_var = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    const core::Vec3 d = core::Vec3{x_[i], y_[i], z_[i]} - mean;
    var += d.cwise_mul(d) * weights_[i];
    const double dy = core::wrap_angle(yaw_[i] - yaw);
    yaw_var += dy * dy * weights_[i];
  }

  PoseEstimate e;
  e.pose = core::Pose{mean, yaw};
  e.position_stddev = {std::sqrt(var.x), std::sqrt(var.y), std::sqrt(var.z)};
  e.yaw_stddev = std::sqrt(yaw_var);
  return e;
}

SoaView ParticleFilter::soa() const {
  return {x_, y_, z_, yaw_, logw_, count_};
}

MutableSoaView ParticleFilter::mutable_soa() {
  weights_valid_ = false;
  return {x_, y_, z_, yaw_, logw_, count_};
}

FilterMemoryStats ParticleFilter::memory_stats() const {
  FilterMemoryStats s;
  s.heap_allocations = retired_heap_allocations_ +
                       arena_.stats().slab_allocations +
                       pose_pool_.stats().slab_allocations;
  s.pool_acquires = pose_pool_.stats().acquires;
  s.pool_releases = pose_pool_.stats().releases;
  s.particle_capacity = capacity_;
  s.arena_bytes = arena_.capacity();
  return s;
}

}  // namespace cimnav::filter
