// Fleet quality-of-service layer: per-session QoS specs, the pluggable
// admission-policy registry, and the observability records the engine
// publishes per session and fleet-wide.
//
// The scheduler question QoS answers is *which* sessions advance this
// tick — the working set — never *what* a session computes. Each tick
// the engine hands the policy one SessionView per runnable session plus
// a working-set bound; the policy picks at most `limit` of them. Selected
// sessions run the normal stage A/B/C window; the rest wait, with their
// queue ticks counted. Because a session's rng keys, frame order and
// stage-C serialization are untouched by selection, every QoS-scheduled
// session stays bit-identical to a standalone vo::run_odometry_loop —
// the determinism boundary pinned by tests/test_fleet_fuzz.cpp.
//
// Policies are selected by name from a registry mirroring the filter
// scenario and autonomy policy registries (one contract,
// tests/test_registries.cpp):
//
//   "fifo"      every runnable session, in slot order — the pre-QoS
//               scheduler bit-for-bit when the working set is
//               unbounded; oldest-first (admission sequence) when
//               bounded;
//   "priority"  strict priority classes (higher value runs first),
//               least-recently-scheduled round-robin within a class;
//   "deadline"  earliest-deadline-first on the absolute deadline tick
//               derived from QosSpec::target_latency_ticks
//               (no-deadline sessions run last).
//
// Starvation is bounded engine-side, not per policy: a runnable session
// that has been passed over for FleetConfig::starvation_bound_ticks
// consecutive ticks is force-included ahead of the policy's picks (and
// counted in QosReport::starvation_overrides), so every admitted
// session eventually completes under any registered policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cimnav::fleet {

/// Per-session quality-of-service contract, carried by SessionSpec.
/// The default spec (class 0, no deadline) reproduces the pre-QoS
/// scheduler's treatment of every session.
struct QosSpec {
  /// Priority class; higher values are scheduled first by the
  /// "priority" policy. Any int is a class of its own (classes are
  /// compared, not enumerated).
  int priority = 0;
  /// Target latency in scheduler ticks from admission to completion;
  /// 0 = no deadline. "deadline" orders by it (EDF); the engine scores
  /// deadline_hit/miss against it for every policy.
  int target_latency_ticks = 0;
};

/// What the engine knows about one runnable session when it asks the
/// admission policy for this tick's working set. Views are listed in
/// slot order; `slot` is the opaque key select() answers with.
struct SessionView {
  std::uint32_t slot = 0;            ///< engine slot id (echo into out)
  std::uint64_t admit_seq = 0;       ///< fleet-wide admission sequence
  int priority = 0;                  ///< QosSpec::priority
  /// Absolute EDF deadline (admission tick + target_latency_ticks - 1);
  /// -1 when the session has no deadline.
  std::int64_t deadline_tick = -1;
  /// Tick of the last working set that included this session (0 =
  /// never scheduled) — the round-robin key within a priority class.
  std::uint64_t last_scheduled_tick = 0;
  /// Consecutive ticks this session has been passed over.
  std::uint64_t queue_ticks = 0;
};

/// One per-engine admission-policy instance. select() is called once
/// per tick under the engine mutex and must be a deterministic function
/// of the views plus its own select() history — no rng, no clocks —
/// so a tick sequence replays bit-for-bit. Implementations may keep
/// scratch buffers; after warm-up select() must not allocate (the
/// engine's zero-steady-state-allocation contract includes the policy).
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Registry name this instance came from.
  virtual std::string_view name() const = 0;

  /// Appends the slot ids of this tick's working set to `out`: at most
  /// `limit`, at least one when n > 0 and limit > 0. Views arrive in
  /// slot order; out's order is not significant (stages run in slot
  /// order regardless).
  virtual void select(const SessionView* views, std::size_t n,
                      std::size_t limit,
                      std::vector<std::uint32_t>& out) = 0;
};

/// QoS outcome of one completed session, published with its run and
/// readable through SessionHandle::qos() once poll() is true.
struct SessionQosRecord {
  QosSpec spec;
  std::uint64_t admit_seq = 0;
  std::uint64_t admit_tick = 0;
  std::uint64_t complete_tick = 0;
  /// complete_tick - admit_tick + 1 == scheduled_ticks + queue_ticks.
  std::uint64_t ticks_to_completion = 0;
  std::uint64_t scheduled_ticks = 0;  ///< ticks in the working set
  std::uint64_t queue_ticks = 0;      ///< ticks passed over while active
  bool had_deadline = false;          ///< target_latency_ticks > 0
  /// had_deadline && ticks_to_completion <= target_latency_ticks.
  bool deadline_hit = false;
};

/// Per-priority-class slice of the fleet's dispatch ledger.
struct QosClassLedger {
  int priority = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t frames_dispatched = 0;
  std::uint64_t scheduled_ticks = 0;  ///< (session, tick) working-set entries
  std::uint64_t queue_ticks = 0;      ///< (session, tick) pass-overs
  std::uint64_t deadline_hits = 0;
  std::uint64_t deadline_misses = 0;
};

/// Fleet-wide QoS counters, snapshot via FleetEngine::qos_report().
struct QosReport {
  std::string admission;                   ///< active policy name
  std::uint64_t deadline_sessions = 0;     ///< completed, target > 0
  std::uint64_t sessions_at_target_latency = 0;  ///< deadline hits
  std::uint64_t deadline_misses = 0;
  std::uint64_t queue_ticks = 0;           ///< total pass-overs
  std::uint64_t max_queue_ticks = 0;       ///< worst completed session
  std::uint64_t starvation_overrides = 0;  ///< guard force-inclusions
  std::vector<QosClassLedger> classes;     ///< sorted by priority desc
};

/// One row of the engine's dispatch trace (FleetConfig::record_dispatch;
/// diagnostics/tests — recording allocates). One event per runnable
/// session per tick, slot order within the tick.
struct DispatchEvent {
  std::uint64_t tick = 0;
  std::uint64_t admit_seq = 0;
  int priority = 0;
  std::int64_t deadline_tick = -1;
  bool scheduled = false;            ///< in this tick's working set
  bool starvation_override = false;  ///< scheduled by the guard
};

/// Creates a fresh per-engine policy instance by registry name; throws
/// std::invalid_argument for unknown names, listing the known ones.
std::unique_ptr<AdmissionPolicy> make_admission_policy(
    std::string_view name);

/// Registered names in registration order (built-ins first).
std::vector<std::string> admission_policy_names();

/// One-line description of a registered policy (throws on unknown).
std::string admission_policy_description(std::string_view name);

/// Extension hook: registers (or, returning false, replaces) a named
/// policy. The factory must return a fresh instance per call.
bool register_admission_policy(
    std::string name, std::string description,
    std::function<std::unique_ptr<AdmissionPolicy>()> factory);

}  // namespace cimnav::fleet
