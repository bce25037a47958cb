#include "filter/measurement.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "energy/likelihood_energy.hpp"
#include "vision/camera.hpp"

namespace cimnav::filter {

namespace {

// Runs body over [0, n) in chunks of `grain` on `pool`, or serially
// without one.
template <typename Body>
void fan(core::ThreadPool* pool, std::size_t n, std::size_t grain,
         const Body& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, grain, body);
  } else {
    body(std::size_t{0}, n, 0);
  }
}

// Fans the kParticleBlock-pose blocks of `count` poses over `pool`:
// body(b, i_begin, i_end) for block b holding poses [i_begin, i_end).
template <typename Body>
void for_each_block(core::ThreadPool* pool, std::size_t count,
                    const Body& body) {
  fan(pool, (count + kParticleBlock - 1) / kParticleBlock, 1,
      [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t b = begin; b < end; ++b)
          body(b, b * kParticleBlock,
               std::min((b + 1) * kParticleBlock, count));
      });
}

}  // namespace

void MeasurementModel::log_likelihoods(const PoseView& poses,
                                       const vision::DepthScan& scan,
                                       std::uint64_t noise_root,
                                       core::ThreadPool* pool,
                                       std::span<double> out) const {
  CIMNAV_REQUIRE(out.size() == poses.count,
                 "log_likelihoods: output size must match the pose count");
  for_each_block(pool, poses.count,
                 [&](std::size_t b, std::size_t i_begin, std::size_t i_end) {
                   core::Rng block_rng = core::Rng::stream(noise_root, b);
                   for (std::size_t i = i_begin; i < i_end; ++i)
                     out[i] = log_likelihood(poses[i], scan, block_rng);
                 });
}

GmmLikelihood::GmmLikelihood(prob::Gmm gmm, double beta)
    : gmm_(std::move(gmm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(gmm_.components().size()))
                       .total_j;
}

double GmmLikelihood::log_likelihood(const core::Pose& pose,
                                     const vision::DepthScan& scan,
                                     core::Rng& /*rng*/) const {
  // Per-pixel back-projection (vision::pixel_to_world) instead of a
  // materialized point vector: likelihoods run once per particle per
  // frame, and this loop must not touch the heap.
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += gmm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

HmgmLikelihood::HmgmLikelihood(prob::Hmgm hmgm, double beta)
    : hmgm_(std::move(hmgm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  // Priced like the digital GMM datapath: per point and component, the
  // Mahalanobis MACs, one kernel LUT lookup and one accumulate.
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(hmgm_.components().size()))
                       .total_j;
}

double HmgmLikelihood::log_likelihood(const core::Pose& pose,
                                      const vision::DepthScan& scan,
                                      core::Rng& /*rng*/) const {
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += hmgm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

CimHmgmLikelihood::CimHmgmLikelihood(
    const prob::Hmgm& hmgm, const map::WorldToVoltage& mapping,
    const circuit::LikelihoodArrayConfig& config, core::Rng& rng, double beta)
    : mapping_(mapping), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  const auto components = map::compile_hmgm(hmgm, mapping);
  array_ = std::make_unique<circuit::CimLikelihoodArray>(config, components,
                                                         rng);

  // Gain calibration against the digital reference over probe points
  // spanning the mapped workspace.
  constexpr int kProbes = 400;
  const core::Vec3 world_lo = mapping_.voltage_to_point(
      {mapping_.v_lo(), mapping_.v_lo(), mapping_.v_lo()});
  const core::Vec3 world_hi = mapping_.voltage_to_point(
      {mapping_.v_hi(), mapping_.v_hi(), mapping_.v_hi()});
  std::vector<double> reading, reference;
  reading.reserve(kProbes);
  reference.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const core::Vec3 p{rng.uniform(world_lo.x, world_hi.x),
                       rng.uniform(world_lo.y, world_hi.y),
                       rng.uniform(world_lo.z, world_hi.z)};
    reading.push_back(
        array_->read_log_likelihood(mapping_.point_to_voltage(p), rng));
    reference.push_back(hmgm.log_pdf(p));
  }
  const core::LinearFit fit = core::linear_fit(reading, reference);
  // Guard against degenerate calibration (e.g. flat field): keep unity.
  if (fit.slope > 0.05 && fit.slope < 100.0) gain_ = fit.slope;

  // One elementary evaluation = one read of the whole programmed array
  // (all columns conduct, three DACs drive, one log-ADC converts).
  eval_energy_j_ = energy::cim_likelihood_energy(array_->column_count(),
                                                 config.dac_bits,
                                                 config.adc_bits)
                       .total_j;
}

double CimHmgmLikelihood::log_likelihood(const core::Pose& pose,
                                         const vision::DepthScan& scan,
                                         core::Rng& rng) const {
  // The scan goes to the array in fixed stack chunks of code-cube keys, so
  // the batched read interleaves several pixels without touching the
  // heap. Noise is drawn and readings are summed in pixel order, as one
  // read per pixel would.
  constexpr std::size_t kChunk = 16;
  std::array<std::uint32_t, kChunk> keys{};
  std::array<double, kChunk> currents{};
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  const std::size_t n = scan.pixels.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < m; ++j)
      keys[j] = array_->code_key(mapping_.point_to_voltage(
          vision::pixel_to_world(scan, rot, pose.position,
                                 scan.pixels[base + j])));
    array_->ideal_currents_by_key({keys.data(), m}, {currents.data(), m});
    for (std::size_t j = 0; j < m; ++j)
      ll += array_->read_log(currents[j], rng);
  }
  array_->record_reads(n);
  return beta_ * gain_ * ll;
}

namespace {

// Scratch of one shared update. Grow-only and thread_local on the
// dispatching thread (the mc_dropout idiom): every filter
// that thread updates reuses it, so a fleet holds one set per dispatching
// thread instead of one per filter, and steady-state updates never touch
// the heap.
struct SharedReadScratch {
  std::vector<core::Vec3> body;         ///< per pixel: body-frame point
  std::vector<std::uint32_t> keys;      ///< per read: code-cube key
  std::vector<std::uint64_t> occupied;  ///< code-cube occupancy bitmap
  std::vector<std::uint32_t> rank;      ///< set bits before each word
  std::vector<std::uint32_t> distinct;  ///< occupied keys, ascending
  std::vector<double> current;          ///< ideal current per distinct key
};

SharedReadScratch& tls_shared_read_scratch() {
  thread_local SharedReadScratch scratch;
  return scratch;
}

// Distinct keys per phase-2 work item, which computes those of them the
// cache missed. Each current is computed on its own, so the chunking is a
// throughput knob only.
constexpr std::size_t kKeyChunk = 64;

// Marks a distinct key whose current phase 2 computed, for the insert
// into the array's cache after phase 3. Keys use 3 * dac_bits <= 24 bits.
constexpr std::uint32_t kComputedFlag = std::uint32_t{1} << 31;
static_assert(3 * circuit::CimLikelihoodArray::kMaxDacBits < 31);

}  // namespace

void CimHmgmLikelihood::log_likelihoods(const PoseView& poses,
                                        const vision::DepthScan& scan,
                                        std::uint64_t noise_root,
                                        core::ThreadPool* pool,
                                        std::span<double> out) const {
  CIMNAV_REQUIRE(out.size() == poses.count,
                 "log_likelihoods: output size must match the pose count");
  const std::size_t n_px = scan.pixels.size();
  SharedReadScratch& s = tls_shared_read_scratch();

  // Phase 0, once per scan: the pose-independent half of
  // vision::pixel_to_world, through the same functions, so each read's
  // rot * body + position is the same expression on the same bits.
  s.body.resize(n_px);
  for (std::size_t j = 0; j < n_px; ++j)
    s.body[j] = vision::apply_mount_pitch(
        vision::camera_to_body(
            vision::back_project(scan.intrinsics, scan.pixels[j])),
        scan.mount_pitch_rad);

  // The lambdas capture plain pointers into this thread's scratch: a pool
  // worker naming the thread_local would reach its own, empty instance.
  s.keys.resize(poses.count * n_px);
  const core::Vec3* const body = s.body.data();
  std::uint32_t* const keys = s.keys.data();

  // Phase 1: every read's code-cube key, in parallel over blocks.
  for_each_block(pool, poses.count,
                 [&](std::size_t, std::size_t i_begin, std::size_t i_end) {
                   for (std::size_t i = i_begin; i < i_end; ++i) {
                     const core::Pose p = poses[i];
                     const core::Mat3 rot = core::Mat3::rotation_z(p.yaw);
                     std::uint32_t* const row = keys + i * n_px;
                     for (std::size_t j = 0; j < n_px; ++j)
                       row[j] = array_->code_key(mapping_.point_to_voltage(
                           rot * body[j] + p.position));
                   }
                 });
  // Occupancy over the code cube: one bit per key, set serially (one OR
  // per read, no shared-word atomics between workers).
  const std::size_t words = (array_->key_count() + 63) / 64;
  s.occupied.assign(words, 0);
  std::uint64_t* const occupied = s.occupied.data();
  for (const std::uint32_t key : s.keys)
    occupied[key >> 6] |= std::uint64_t{1} << (key & 63);

  // Phase 2: rank the bitmap, then one ideal current per distinct key in
  // ascending key order, in parallel chunks: from the array's cache, or
  // computed.
  s.rank.resize(words);
  std::uint32_t distinct = 0;
  for (std::size_t w = 0; w < words; ++w) {
    s.rank[w] = distinct;
    distinct += static_cast<std::uint32_t>(std::popcount(occupied[w]));
  }
  // Reserved at the bound min(reads, code cube), so a later update with
  // more distinct keys than the last never reallocates; the untouched
  // tail of the reservation stays out of the resident set.
  const std::size_t bound =
      std::min<std::size_t>(s.keys.size(), array_->key_count());
  s.distinct.reserve(bound);
  s.current.reserve(bound);
  s.distinct.resize(distinct);
  s.current.resize(distinct);
  for (std::size_t w = 0, d = 0; w < words; ++w)
    for (std::uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1)
      s.distinct[d++] = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  // Each work item looks its slice of the distinct keys up in the array's
  // cache under a shared lock, then computes the misses of each of its
  // 64-key chunks, gathered on the stack, so a miss costs no scratch
  // beyond the distinct lists. The insert after phase 3 takes the lock
  // exclusively; no lock is held while work runs on the (re-entrant)
  // pool.
  std::uint32_t* const distinct_keys = s.distinct.data();
  double* const current = s.current.data();
  constexpr double kMissing = circuit::CimLikelihoodArray::kMissingCurrent;
  fan(pool, (distinct + kKeyChunk - 1) / kKeyChunk, 1,
      [&](std::size_t begin, std::size_t end, int) {
        const std::size_t slice_begin = begin * kKeyChunk;
        const std::size_t slice_end =
            std::min<std::size_t>(end * kKeyChunk, distinct);
        const std::size_t slice = slice_end - slice_begin;
        if (array_->lookup_cached_currents(
                {distinct_keys + slice_begin, slice},
                {current + slice_begin, slice}) == 0)
          return;
        std::array<std::uint32_t, kKeyChunk> miss_keys{}, miss_at{};
        std::array<double, kKeyChunk> miss_current{};
        for (std::size_t c = begin; c < end; ++c) {
          const std::size_t d_end =
              std::min<std::size_t>((c + 1) * kKeyChunk, distinct);
          std::size_t n = 0;
          for (std::size_t d = c * kKeyChunk; d < d_end; ++d)
            if (current[d] == kMissing) {
              miss_keys[n] = distinct_keys[d];
              miss_at[n++] = static_cast<std::uint32_t>(d);
            }
          array_->ideal_currents_by_key({miss_keys.data(), n},
                                        {miss_current.data(), n});
          for (std::size_t t = 0; t < n; ++t) {
            current[miss_at[t]] = miss_current[t];
            distinct_keys[miss_at[t]] |= kComputedFlag;
          }
        }
      });

  // Phase 3: per block, with the block's stream, noise + log-ADC per read
  // in pose then pixel order, summed in pixel order — the draws and sums
  // of one log_likelihood call per pose.
  const std::uint32_t* const rank = s.rank.data();
  const double scale = beta_ * gain_;
  for_each_block(
      pool, poses.count,
      [&](std::size_t b, std::size_t i_begin, std::size_t i_end) {
        core::Rng rng = core::Rng::stream(noise_root, b);
        for (std::size_t i = i_begin; i < i_end; ++i) {
          const std::uint32_t* const row = keys + i * n_px;
          double ll = 0.0;
          for (std::size_t j = 0; j < n_px; ++j) {
            const std::uint32_t key = row[j];
            const std::uint64_t below =
                occupied[key >> 6] & ((std::uint64_t{1} << (key & 63)) - 1);
            ll += array_->read_log(
                current[rank[key >> 6] +
                        static_cast<std::uint32_t>(std::popcount(below))],
                rng);
          }
          out[i] = scale * ll;
        }
      });
  array_->record_reads(poses.count * n_px);

  // Cache the computed currents, in ascending key order: phase 3 is done
  // with the distinct lists, so they are gathered to their fronts.
  std::size_t computed = 0;
  for (std::size_t d = 0; d < distinct; ++d)
    if ((distinct_keys[d] & kComputedFlag) != 0) {
      distinct_keys[computed] = distinct_keys[d] & ~kComputedFlag;
      current[computed++] = current[d];
    }
  array_->cache_currents({distinct_keys, computed}, {current, computed});
}

}  // namespace cimnav::filter
