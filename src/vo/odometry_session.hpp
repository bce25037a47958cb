// One closed-loop odometry run, decomposed into the three loop stages as
// reusable session state — the per-drone unit the multi-tenant fleet
// engine (src/fleet/) schedules.
//
// run_odometry_loop drives one session window by window (A, then B, then
// C); fleet::FleetEngine instead keeps many OdometrySessions in flight
// and batches their stage-B MC iterations through one shared macro
// dispatch per layer (bnn::mc_predict_cim_jobs). Both runners call
// exactly this class, so the fleet's determinism contract reduces to:
// stage order per session is preserved, and every rng/mask stream
// belongs to the session that draws from it.
//
//   begin()               rebind to a (scenario, vo, net, model, config)
//                         workload; pooled buffers, the particle filter
//                         and the policy instance are reused in place, so
//                         steady-state re-admission is allocation-free;
//   make_input(f, out)    stage A — pure function of the frame index
//                         (keyed rng streams); safe from any worker;
//   consume(f, pred)      stage C — strict frame order: posterior ->
//                         control/noise, wake-up policy, measurement
//                         update, per-frame record (and, when
//                         ClosedLoopConfig::kld_adapt, the KLD cloud
//                         shrink);
//   record_frame_macro()  stage-B attribution for the energy ledger;
//   finish()              epilogue — prices the ledger, totals the run.
#pragma once

#include <memory>
#include <vector>

#include "bnn/mask_source.hpp"
#include "vo/closed_loop.hpp"

namespace cimnav::vo {

/// Reusable per-drone session state (one flight through a scenario).
/// Not thread-safe except where documented: make_input may run
/// concurrently for different frames; everything else is driver-serial.
class OdometrySession {
 public:
  OdometrySession() = default;

  /// Rebinds the session to a workload and rearms all per-run state.
  /// The borrowed scenario/vo/net/model must outlive the session's run.
  /// Reuses the particle filter (when the effective filter config is
  /// unchanged), the policy instance (when the registry name matches and
  /// the policy supports reset) and every buffer — after the first run
  /// of a given shape, begin() performs no heap allocation.
  void begin(const filter::LocalizationScenario& scenario,
             const VoPipeline& vo, const nn::CimMlp& net,
             const filter::MeasurementModel& model,
             const ClosedLoopConfig& config);

  int frame_count() const { return frames_; }
  const ClosedLoopConfig& config() const { return config_; }

  /// Stage A: renders frame f's scan into the session's scan slot and
  /// writes the VO feature into `out` (capacity reused). Pure function
  /// of f given begin()'s seeds; distinct frames may run concurrently.
  void make_input(int f, nn::Vector& out);

  /// Stage C for frame f, called in strict frame order: prediction step
  /// from the posterior (closed loop) or ground truth (open loop), the
  /// wake-up policy's measurement decision, the per-frame record and —
  /// when configured — the KLD cloud shrink.
  void consume(int f, const bnn::McPrediction& pred);

  /// Books frame f's stage-B macro activity for the energy epilogue.
  void record_frame_macro(int f, const cimsram::MacroStats& stats);

  /// Ledger epilogue; returns the completed run (valid until the next
  /// begin()). Mutable so the fleet engine can swap it into a pooled
  /// core::Completion without copying.
  ClosedLoopRun& finish();

  /// This session's dropout-mask and analog-noise sources — the streams
  /// stage B must draw from (in frame order) on this session's behalf.
  bnn::SoftwareMaskSource& mask_source() { return masks_; }
  core::Rng& analog_rng() { return analog_rng_; }

  /// The live filter (tests / diagnostics).
  filter::ParticleFilter& particle_filter() { return *pf_; }

 private:
  const filter::LocalizationScenario* scenario_ = nullptr;
  const VoPipeline* vo_ = nullptr;
  const nn::CimMlp* net_ = nullptr;
  const filter::MeasurementModel* model_ = nullptr;
  ClosedLoopConfig config_;
  bool closed_ = true;
  int frames_ = 0;
  filter::MotionNoise base_noise_;
  std::unique_ptr<autonomy::UpdatePolicy> policy_;
  std::unique_ptr<filter::ParticleFilter> pf_;
  filter::ParticleFilterConfig pf_cfg_;  ///< config pf_ was built with
  core::Rng run_rng_{0};
  bnn::SoftwareMaskSource masks_{core::Rng{0}};
  core::Rng analog_rng_{0};
  std::vector<vision::DepthScan> scans_;        ///< stage A -> C handoff
  std::vector<cimsram::MacroStats> frame_macro_;
  ClosedLoopRun run_;
  std::vector<double> err2_;  ///< finish() scratch
  // Policy signal state, advanced in frame order by consume().
  double sigma_sum_ = 0.0;
  int sigma_count_ = 0;
  double last_ess_fraction_ = 1.0;
  double full_update_equivalents_ = 0.0;
};

}  // namespace cimnav::vo
