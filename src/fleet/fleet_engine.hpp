// Multi-tenant fleet engine: many concurrent drone sessions multiplexed
// over the shared CIM macro arrays (the paper's edge-server deployment
// story — one macro bank amortized across a fleet instead of one drone).
//
// A *workload* is a borrowed (scenario, vo, net, model) quadruple; a
// *session* is one flight of a workload under a vo::ClosedLoopConfig.
// Submitters hand SessionSpecs to a bounded lock-free ring
// (core::MpscQueue) and get a future-style SessionHandle back; the
// scheduler — driven by tick() from any one thread, or by the optional
// background thread (start()/stop()) — advances every in-flight session
// one frame window per tick through the three odometry stages:
//
//   admit     pop submissions into free slots, OdometrySession::begin
//             (filters, policies and buffers are recycled in place —
//             steady-state admission performs no heap allocation);
//   select    the QoS working set: the admission policy
//             (FleetConfig::admission, fleet/qos.hpp) picks which
//             runnable sessions advance this tick (at most
//             FleetConfig::working_set; 0 = all), after the engine's
//             starvation guard force-includes anything passed over for
//             starvation_bound_ticks consecutive ticks. "fifo" with an
//             unbounded working set selects everyone — the pre-QoS
//             scheduler bit-for-bit;
//   stage A   fan (session, frame) scan/feature items over the pool;
//   stage B   ONE bnn::mc_predict_cim_jobs call per distinct network:
//             every (session, frame, iteration) item of the tick shares
//             one pooled macro dispatch per layer — cross-frame batching
//             extended across sessions. Compute-reuse sessions batch the
//             same way: their refresh chains advance step-synchronously
//             through the chain-parallel reuse engine, one pooled delta
//             dispatch per chain step across every session of the tick;
//   stage C   per session, in frame order: posterior -> filter predict,
//             wake-up policy, measurement update, energy ledger;
//   retire    finished sessions publish their ClosedLoopRun through a
//             pooled core::Completion (buffer-swapping, allocation-free)
//             and the slot returns to the free list.
//
// Determinism contract: each session draws every mask / noise / filter
// stream from its own sources keyed by its own config seeds, stage C
// runs frame-serial per session, and stage-B items key analog noise on
// (per-frame root, iteration). A session's ClosedLoopRun is therefore
// bit-identical to a serial vo::run_odometry_loop with the same config
// — at any session count, pool size, fleet window and submission order.
// QoS extends, and cannot weaken, that contract: the working set
// decides which sessions advance a tick, never a session's rng keys or
// frame order, so the guarantee holds under every admission policy
// (pinned by tests/test_fleet_fuzz.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/completion.hpp"
#include "core/mpsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "fleet/qos.hpp"
#include "vo/closed_loop.hpp"
#include "vo/odometry_session.hpp"

namespace cimnav::fleet {

class FleetEngine;

/// One session request: which registered workload to fly and the full
/// per-run odometry config (seeds, policy, MC options, KLD adaptation).
/// The fleet overrides `loop.pool` with its own pool and drives stage B
/// with its own window; every other field is honored per session.
struct SessionSpec {
  std::size_t workload = 0;
  vo::ClosedLoopConfig loop;
  /// Quality-of-service contract (priority class, latency target). The
  /// default spec is what every pre-QoS session implicitly had.
  QosSpec qos;
};

/// Shared state behind a SessionHandle. Pooled inside the engine; users
/// never construct one. (Public only because SessionHandle's inline
/// members need the type complete.)
struct SessionState {
  core::Completion<vo::ClosedLoopRun> completion;
  SessionSpec spec;
  /// Written by the scheduler before the completion publishes; read
  /// through SessionHandle::qos() only after poll() (the completion's
  /// release/acquire pair orders the accesses).
  SessionQosRecord qos;
  FleetEngine* engine = nullptr;
  std::uint32_t index = 0;
};

/// Future-style handle to one submitted session. Copyable (reference
/// counted); the engine must outlive every handle. poll() is lock-free;
/// wait() blocks until the run is published, so something must be
/// ticking the engine (the background thread or another caller).
class SessionHandle {
 public:
  SessionHandle() = default;
  SessionHandle(const SessionHandle& o);
  SessionHandle& operator=(const SessionHandle& o);
  SessionHandle(SessionHandle&& o) noexcept;
  SessionHandle& operator=(SessionHandle&& o) noexcept;
  ~SessionHandle();

  /// False for default-constructed handles and rejected submissions.
  bool valid() const { return state_ != nullptr; }
  /// True once the session's run (or its admission failure) has been
  /// published.
  bool poll() const;
  /// Blocks until published; the reference stays valid until this
  /// handle (and its copies) release the slot. Rethrows the exception if
  /// the session's setup threw at admission.
  const vo::ClosedLoopRun& wait() const;
  /// The session's QoS outcome (queue ticks, deadline hit/miss).
  /// Requires poll() — the record publishes with the run. A session that
  /// failed at admission carries only its spec.
  const SessionQosRecord& qos() const;
  /// Releases the reference early (the handle becomes invalid).
  void reset();

 private:
  friend class FleetEngine;
  explicit SessionHandle(SessionState* s) : state_(s) {}
  SessionState* state_ = nullptr;
};

/// Fleet sizing. All capacity is allocated at construction; nothing
/// grows afterwards (submissions beyond the ring are rejected, never
/// buffered).
struct FleetConfig {
  /// Shared worker pool for all stages of every session (nullptr =
  /// serial; results are bit-identical either way).
  core::ThreadPool* pool = nullptr;
  /// Frames each in-flight session advances per tick (>= 1). Purely a
  /// batching knob: results are bit-identical at any window.
  int window = 4;
  /// In-flight session slots (each owns a pooled OdometrySession).
  std::size_t max_sessions = 16;
  /// Submission ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 64;
  /// Admission policy name (fleet/qos.hpp registry). The default,
  /// "fifo" with working_set 0, reproduces the pre-QoS scheduler
  /// bit-for-bit. Resolved (and validated) at construction.
  std::string admission = "fifo";
  /// Max sessions the working set advances per tick; 0 = unbounded
  /// (every runnable session, the pre-QoS behavior).
  std::size_t working_set = 0;
  /// Engine-side starvation guard: a runnable session passed over for
  /// this many consecutive ticks is force-included ahead of the
  /// policy's picks (>= 1).
  std::uint64_t starvation_bound_ticks = 64;
  /// Record a per-(session, tick) DispatchEvent trace for the property
  /// tests / diagnostics. Recording grows a vector — leave off when
  /// probing the zero-steady-state-allocation contract.
  bool record_dispatch = false;
};

/// Scheduler counters and the fleet-level ledger (sums over completed
/// runs). Snapshot via stats().
struct FleetStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t ticks = 0;
  /// (session, frame) items dispatched through stage B.
  std::uint64_t frames_dispatched = 0;
  /// Batched-dispatch accounting: per tick and network, the shared
  /// forward_window issues layer_count pooled macro dispatches where
  /// the same sessions run serially would have issued layer_count
  /// *each*. Their ratio is the fleet's batching factor (the bench
  /// gate: >= 4x at 8 sessions).
  std::uint64_t pooled_layer_dispatches = 0;
  std::uint64_t serial_layer_dispatches = 0;
  /// Ledger sums over completed runs.
  std::uint64_t completed_frames = 0;
  double vo_energy_j = 0.0;
  double update_energy_j = 0.0;
  double total_energy_j = 0.0;
  std::uint64_t likelihood_evals = 0;
  /// Sum over completed frames of the live cloud size — divided by
  /// completed_frames this is the fleet's mean per-frame particle cost
  /// (what KLD-adaptive sessions shrink).
  double particle_frames = 0.0;
};

/// The long-running engine. Thread-safety: try_submit is safe from any
/// number of threads concurrently with the scheduler; add_workload is
/// not (register workloads before submitting sessions against them);
/// tick/run_until_idle/stats serialize on an internal mutex.
class FleetEngine {
 public:
  explicit FleetEngine(const FleetConfig& config);
  /// Stops the background thread (if running) and drains every pending
  /// and in-flight session so no handle waits forever.
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Registers a workload; returns its index for SessionSpec::workload.
  /// The borrowed references must outlive the engine. The same network
  /// may back any number of workloads (sessions sharing it batch into
  /// one dispatch); a shared MeasurementModel is also safe — stage C
  /// runs session-serial, so evaluation-count windows never interleave.
  std::size_t add_workload(const filter::LocalizationScenario& scenario,
                           const vo::VoPipeline& vo, const nn::CimMlp& net,
                           const filter::MeasurementModel& model);

  /// Submits a session; never blocks and never allocates. Returns an
  /// invalid handle when the submission ring (or the state pool) is
  /// full — callers retry after the scheduler has drained. Throws
  /// std::invalid_argument, without touching engine state, for a spec no
  /// run can execute (vo::validate, bad QoS, unknown workload).
  SessionHandle try_submit(const SessionSpec& spec);

  /// One scheduler round: admit -> stage A -> stage B -> stage C ->
  /// retire. Returns true if any work was done. Safe to call from one
  /// thread at a time (internally serialized against the background
  /// thread).
  bool tick();

  /// Ticks until no session is in flight and the ring is empty.
  void run_until_idle();

  /// True when nothing is in flight or queued (racy by nature).
  bool idle() const;

  /// Background mode: a scheduler thread ticks the engine, sleeping
  /// when idle and woken by submissions. stop() is idempotent.
  void start();
  void stop();

  FleetStats stats() const;
  /// Fleet-wide QoS counters over completed sessions (classes sorted by
  /// priority, descending).
  QosReport qos_report() const;
  /// The recorded dispatch trace (FleetConfig::record_dispatch). Only
  /// meaningful while the engine is quiescent (no background thread,
  /// no concurrent tick()).
  const std::vector<DispatchEvent>& dispatch_trace() const {
    return dispatch_trace_;
  }
  const FleetConfig& config() const { return config_; }
  std::size_t workload_count() const { return workloads_.size(); }

 private:
  friend class SessionHandle;

  struct Workload {
    const filter::LocalizationScenario* scenario = nullptr;
    const vo::VoPipeline* vo = nullptr;
    const nn::CimMlp* net = nullptr;
    const filter::MeasurementModel* model = nullptr;
  };

  /// One in-flight session and its pooled window buffers. All vectors
  /// are sized to the fleet window on admission and only ever grow.
  struct Slot {
    vo::OdometrySession session;
    std::vector<nn::Vector> inputs;             ///< stage-A outputs
    std::vector<const nn::Vector*> xs;          ///< job input pointers
    std::vector<bnn::McPrediction> preds;       ///< stage-B outputs
    std::vector<bnn::McWorkload> frame_workloads;
    SessionState* state = nullptr;
    const nn::CimMlp* net = nullptr;
    int next_frame = 0;
    int window_frames = 0;  ///< frames this tick advances
    bool active = false;
    // QoS bookkeeping, reset at admission.
    QosSpec qos;
    std::uint64_t admit_seq = 0;
    std::uint64_t admit_tick = 0;
    std::int64_t deadline_tick = -1;      ///< absolute; -1 = none
    std::uint64_t last_scheduled_tick = 0;
    std::uint64_t queue_ticks_row = 0;    ///< consecutive pass-overs
    std::uint64_t queue_ticks_total = 0;
    std::uint64_t scheduled_ticks = 0;
    bool scheduled = false;               ///< in this tick's working set
  };

  bool tick_locked();
  void admit_locked();
  /// QoS working-set selection: starvation guard, then the admission
  /// policy, then the >= 1 progress fallback. Sets Slot::scheduled and
  /// books queue/scheduled tick counters and the dispatch trace.
  void select_locked();
  void retire_locked(Slot& slot);
  QosClassLedger& class_ledger_locked(int priority);
  void scheduler_loop();
  /// Last handle released: the state slot returns to the free ring.
  void recycle(std::uint32_t index) { free_states_.try_push(index); }

  FleetConfig config_;
  std::vector<Workload> workloads_;
  std::vector<SessionState> states_;       ///< fixed pool, never resized
  core::MpscQueue<std::uint32_t> free_states_;
  core::MpscQueue<std::uint32_t> submissions_;
  std::vector<Slot> slots_;
  std::size_t active_count_ = 0;

  // Per-tick scratch (members so their capacity survives across ticks).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> items_;
  std::vector<const nn::CimMlp*> nets_;
  std::vector<bnn::McWindowJob> jobs_;
  core::ThreadPool::ForBody stage_a_body_;  ///< bound once (no per-tick
                                            ///< std::function churn)

  // QoS scheduling state + per-tick selection scratch.
  std::unique_ptr<AdmissionPolicy> policy_;
  std::uint64_t next_admit_seq_ = 1;
  std::vector<SessionView> views_;         ///< all runnable, slot order
  std::vector<SessionView> policy_views_;  ///< minus forced inclusions
  std::vector<std::uint32_t> forced_;      ///< starvation-guard picks
  std::vector<std::uint32_t> selected_;    ///< this tick's working set
  QosReport qos_;                          ///< completed-session ledger
  std::vector<DispatchEvent> dispatch_trace_;

  FleetStats stats_;

  mutable std::mutex mutex_;  ///< scheduler state + stats
  std::condition_variable cv_;
  std::thread scheduler_;
  bool scheduler_running_ = false;
  bool stop_flag_ = false;
};

}  // namespace cimnav::fleet
