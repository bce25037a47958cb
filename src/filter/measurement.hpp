// Measurement-likelihood backends for the particle filter (paper Eq. 1b).
//
// All backends share the same contract: given a pose hypothesis and a depth
// scan, back-project the scan into world coordinates and score it against
// the map mixture. Three implementations bracket the paper's comparison:
//
//  * GmmLikelihood      — conventional digital GMM map (float64 reference).
//  * HmgmLikelihood     — co-designed HMG mixture, evaluated digitally
//                         (isolates the kernel-shape effect from hardware
//                         non-idealities).
//  * CimHmgmLikelihood  — the full analog path: world->voltage mapping,
//                         DAC quantization, programmed inverter array with
//                         mismatch and read noise, log-ADC (isolates total
//                         hardware effect; this is the paper's system).
//
// A per-point temperature (`beta`) tempers the likelihood to compensate for
// the independence assumption across scan pixels — standard practice in
// scan-matching filters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "circuit/array.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "map/map_model.hpp"
#include "prob/gmm.hpp"
#include "prob/hmg.hpp"
#include "vision/depth.hpp"

namespace cimnav::filter {

/// Poses per block of the batched likelihood contract
/// (MeasurementModel::log_likelihoods): block b of kParticleBlock
/// consecutive poses draws its read noise from
/// core::Rng::stream(noise_root, b). The block size, not the thread count,
/// keys the streams, so weights are reproducible however the blocks land
/// on workers.
inline constexpr std::size_t kParticleBlock = 32;

/// Read-only, strided structure-of-arrays view of pose hypotheses: pose i
/// sits at index i * stride of the x/y/z/yaw arrays, for i < count. Yaw
/// values are already wrapped to (-pi, pi].
struct PoseView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* yaw = nullptr;
  std::size_t count = 0;
  std::size_t stride = 1;

  /// Pose i (no re-wrap: Pose's converting constructor must not run).
  core::Pose operator[](std::size_t i) const {
    const std::size_t k = i * stride;
    core::Pose p;
    p.position = {x[k], y[k], z[k]};
    p.yaw = yaw[k];
    return p;
  }
};

/// Interface implemented by every likelihood backend.
///
/// Besides scoring poses, every backend keeps an elementary-evaluation
/// counter and a per-evaluation energy price — the measurement half of
/// the closed loop's energy ledger: callers snapshot evaluation_count()
/// around an update and price the delta, so the savings of an update
/// policy (autonomy::UpdatePolicy) are measured activity, not a model
/// assumption.
class MeasurementModel {
 public:
  virtual ~MeasurementModel() = default;

  /// Log-likelihood (up to a pose-independent constant) of observing
  /// `scan` from `pose`. `rng` feeds analog-noise sampling; digital
  /// backends ignore it.
  virtual double log_likelihood(const core::Pose& pose,
                                const vision::DepthScan& scan,
                                core::Rng& rng) const = 0;

  /// Scores one whole filter update: out[i] is the log-likelihood of
  /// `scan` from poses[i], for i < poses.count (out.size() must equal it).
  /// Poses go in blocks of kParticleBlock; block b reads from
  /// core::Rng::stream(noise_root, b), drawing in pose then pixel order,
  /// and blocks fan over `pool` (nullptr = serial), so `out` is
  /// bit-identical at any thread count. The default body calls
  /// log_likelihood per pose in exactly that order, so a decorator that
  /// overrides only log_likelihood keeps working unchanged. An override
  /// must produce the same bits and the same evaluation_count() delta as
  /// the default body.
  virtual void log_likelihoods(const PoseView& poses,
                               const vision::DepthScan& scan,
                               std::uint64_t noise_root,
                               core::ThreadPool* pool,
                               std::span<double> out) const;

  /// Human-readable backend name for reports.
  virtual const char* name() const = 0;

  /// Cumulative count of elementary likelihood evaluations (one scored
  /// scan point) since construction. Thread-safe: updates may come from
  /// concurrent particle-block workers. Backends without accounting may
  /// keep the default (always 0 — the ledger then records no activity).
  virtual std::uint64_t evaluation_count() const { return 0; }

  /// Energy of one elementary evaluation [J] under the backend's
  /// technology model (energy/likelihood_energy.hpp): one inverter-array
  /// read for the CIM backend, one digital mixture evaluation for the
  /// digital ones. Default 0 (no energy model).
  virtual double evaluation_energy_j() const { return 0.0; }
};

/// Digital GMM scoring (the conventional baseline).
class GmmLikelihood final : public MeasurementModel {
 public:
  GmmLikelihood(prob::Gmm gmm, double beta = 1.0);
  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  const char* name() const override { return "gmm-digital"; }
  std::uint64_t evaluation_count() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

 private:
  prob::Gmm gmm_;
  double beta_;
  double eval_energy_j_ = 0.0;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

/// Digital HMGM scoring (kernel co-design without hardware effects).
class HmgmLikelihood final : public MeasurementModel {
 public:
  HmgmLikelihood(prob::Hmgm hmgm, double beta = 1.0);
  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  const char* name() const override { return "hmgm-digital"; }
  std::uint64_t evaluation_count() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

 private:
  prob::Hmgm hmgm_;
  double beta_;
  double eval_energy_j_ = 0.0;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

/// Full analog CIM scoring through the programmed inverter array.
///
/// A whole update (log_likelihoods) shares ideal currents across reads: an
/// ideal current depends only on the read's DAC code triple, and read
/// noise is applied after it. The override back-projects the scan once
/// into the body frame, encodes every read to a code-cube key, takes one
/// ideal current per distinct key (from the array's ideal-current cache,
/// computing and caching the misses), then applies noise and the log-ADC
/// per read in the default body's rng order — bit-identical to scoring
/// each pose with log_likelihood. Its scratch is one grow-only
/// thread_local set on the dispatching thread, shared by every model that
/// thread scores, so the filters of a fleet do not each hold one.
///
/// After programming, the backend runs a one-time *gain calibration*: the
/// physical kernel's tails (sech-like, set by subthreshold conduction)
/// decay slower than the ideal Gaussian, and the log-ADC clamps deep
/// tails, so the raw log-current reading is a compressed version of the
/// ideal log-likelihood. A linear fit of readings against the digital
/// reference over random probe points recovers the gain, which is applied
/// as a digital post-scale — the mixed-signal analogue of per-chip
/// calibration.
class CimHmgmLikelihood final : public MeasurementModel {
 public:
  /// Programs a fresh array from the HMGM and world mapping.
  CimHmgmLikelihood(const prob::Hmgm& hmgm, const map::WorldToVoltage& mapping,
                    const circuit::LikelihoodArrayConfig& config,
                    core::Rng& rng, double beta = 1.0);

  double log_likelihood(const core::Pose& pose, const vision::DepthScan& scan,
                        core::Rng& rng) const override;
  void log_likelihoods(const PoseView& poses, const vision::DepthScan& scan,
                       std::uint64_t noise_root, core::ThreadPool* pool,
                       std::span<double> out) const override;
  const char* name() const override { return "hmgm-cim"; }
  /// The array's own hardware counter: one count per log-ADC read,
  /// including the construction-time calibration probes. Shared updates
  /// count logical reads too; array().ideal_current_count() counts the
  /// ideal currents they actually computed.
  std::uint64_t evaluation_count() const override {
    return array_->evaluation_count();
  }
  double evaluation_energy_j() const override { return eval_energy_j_; }

  const circuit::CimLikelihoodArray& array() const { return *array_; }

  /// Calibrated digital gain applied to raw log-ADC readings.
  double calibrated_gain() const { return gain_; }

 private:
  map::WorldToVoltage mapping_;
  std::unique_ptr<circuit::CimLikelihoodArray> array_;
  double beta_;
  double gain_ = 1.0;
  double eval_energy_j_ = 0.0;
};

}  // namespace cimnav::filter
