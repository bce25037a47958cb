// End-to-end closed-loop benchmark: scan -> MC-Dropout VO on CIM macros ->
// particle filter on the inverter likelihood array -> energy ledger, timed
// from outside the program through its public entry points only.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--pool P] [--trace-out FILE] [--results-out FILE]
//
// A run sets the workload up three times (median reported), flies one
// warm-up flight or wave, then measures for at least S seconds with
// tracing off. A solo run alternates pool-P and pool-1 flights. A fleet
// run repeats passes of its fixed session set, with standalone pool-1
// flights of the checked sessions between passes. Every repetition does
// the same work, so a fleet reports each tick at its fastest pass and
// each checked session at its fastest flight: the program's time with the
// least interference from whatever else shares the host.
// With --trace 1 it repeats the timed region with the likelihood layer
// behind the TimedModel decorator, replays the same sessions as a plain
// stage A -> B -> C loop over vo::OdometrySession for the stage split, and
// reports per-layer metrics plus the tracing overhead. Every output is
// checked: fleet sessions against standalone run_odometry_loop runs,
// pool-1 flights against pool-4 flights, traced runs against untraced
// ones. The last stdout line is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bnn/mc_dropout.hpp"
#include "core/thread_pool.hpp"
#include "fleet/fleet_engine.hpp"
#include "measure.hpp"
#include "timed_model.hpp"
#include "vo/closed_loop.hpp"
#include "vo/odometry_session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cimnav;

constexpr int kSetupReps = 3;
constexpr std::uint64_t kWarmupKey = 1ull << 62;
constexpr int kMaxRefusedTicks = 1000;
/// Fewest repetitions of the timed work: fleet passes, or solo flights at
/// each pool size. The fastest repetition is reported.
constexpr std::size_t kMinRepeats = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int pool = 0;  ///< 0 = min(4, nproc)
  std::string trace_out;
  std::string results_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--pool P] [--trace-out FILE] "
               "[--results-out FILE]\nworkloads:",
               why.c_str());
  for (const std::string& n : workload_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--pool") {
      a.pool = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0' || a.pool < 1) usage("--pool needs a positive integer");
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--results-out") {
      a.results_out = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (!have_seconds) usage("--seconds needs a positive number");
  if (!have_trace) usage("--trace needs 0 or 1");
  return a;
}

/// Client c's k-th session: its seed key and its tenant.
std::uint64_t session_key(int c, int k) {
  return (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint64_t>(k);
}
int session_tenant(int c, int k, std::size_t tenants) {
  return (c + k) % static_cast<int>(tenants);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Smallest value; 0 for no samples.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// A completed session of the fixed set (each client's first sessions).
struct FixedRun {
  std::uint64_t key = 0;
  int tenant = 0;
  int client = 0;
  int index = 0;       ///< the client's session number
  int first_tick = 0;  ///< first tick of its pass it was in the engine
  int last_tick = 0;   ///< tick of its pass after which it was complete
  vo::ClosedLoopRun run;
};

/// Layer counters of the program, snapshotted around a timed region.
struct Counters {
  std::vector<cimsram::MacroStats> macro;  ///< per MLP layer
  std::vector<std::uint64_t> reads;        ///< likelihood reads per tenant
  std::uint64_t busy_ns = 0;               ///< TimedModel busy time
};

Counters snapshot(const Setup& s, const std::vector<const TimedModel*>& timed) {
  Counters c;
  for (int l = 0; l < s.net->layer_count(); ++l)
    c.macro.push_back(s.net->macro(l).stats());
  for (const Tenant& t : s.tenants) c.reads.push_back(t.model->evaluation_count());
  for (const TimedModel* m : timed) c.busy_ns += m->busy_ns();
  return c;
}

Counters operator-(Counters a, const Counters& b) {
  for (std::size_t l = 0; l < a.macro.size(); ++l) a.macro[l] -= b.macro[l];
  for (std::size_t t = 0; t < a.reads.size(); ++t) a.reads[t] -= b.reads[t];
  a.busy_ns -= b.busy_ns;
  return a;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (std::size_t l = 0; l < a.macro.size(); ++l) a.macro[l] += b.macro[l];
  for (std::size_t t = 0; t < a.reads.size(); ++t) a.reads[t] += b.reads[t];
  a.busy_ns += b.busy_ns;
  return a;
}

/// What one timed region measured.
struct Region {
  /// Solo: per pool-P flight. Fleet: one value, the fixed set's session
  /// latency over its frames, with every tick at its fastest pass.
  std::vector<double> frame_ms;
  std::vector<double> frame_ms_1t;  ///< per pool-1 flight (solo only)
  /// Fleet: per tick of a pass, at its fastest pass. Solo: one value,
  /// the fastest pool-P flight per window.
  std::vector<double> tick_ms;
  double pool_wall_s = 0.0;  ///< wall time of `frames`, fastest repetition
  double frames = 0.0;       ///< session-frames of one pass or flight
  std::uint64_t ticks = 0;   ///< ticks (solo: windows) of one pass or flight
  double measured_wall_s = 0.0;  ///< all wall time measured at pool P
  double pool_cpu_s = 0.0;       ///< process CPU time during it
  std::size_t passes = 0;        ///< fleet passes behind tick_ms
  double counted_frames = 0.0;  ///< frames behind `counters` (all pools)
  Counters counters;            ///< deltas over the region
  std::uint64_t pooled_dispatches = 0;
  std::uint64_t serial_dispatches = 0;
  std::vector<double> queue_ticks;  ///< per completed session
  std::vector<FixedRun> fixed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::uint64_t open_span(SpanLog* log, const char* name, Clock::time_point t,
                        std::uint64_t parent = 0, std::uint64_t request = 0) {
  return log != nullptr ? log->begin(name, t, parent, request) : 0;
}

void close_span(SpanLog* log, std::uint64_t id, Clock::time_point t) {
  if (log != nullptr) log->end(id, t);
}

// ------------------------------------------------------------------ solo

/// Alternates pool-P and pool-1 flights of the workload's one session spec
/// through vo::run_odometry_loop for a.seconds and at least kMinRepeats
/// flights per pool; every flight must equal `reference` bit for bit.
Region run_solo(const WorkloadDef& def, const Setup& s,
                const filter::MeasurementModel& model,
                const std::vector<const TimedModel*>& timed,
                core::ThreadPool& pool, core::ThreadPool& pool1,
                const Args& a, const vo::ClosedLoopRun& reference,
                SpanLog* log, const char* region_name) {
  Region r;
  const Tenant& t = s.tenants[0];
  const int frames = static_cast<int>(t.scenario->trajectory().controls.size());
  const int windows = (frames + kWindow - 1) / kWindow;
  const Counters before = snapshot(s, timed);
  const Clock::time_point start = Clock::now();
  const std::uint64_t region = open_span(log, region_name, start);
  for (int i = 0;; ++i) {
    const bool enough = r.frame_ms.size() >= kMinRepeats &&
                        r.frame_ms_1t.size() >= kMinRepeats;
    if (seconds_between(start, Clock::now()) >= a.seconds &&
        (enough || r.failed > 0))
      break;
    const bool wide = i % 2 == 0;
    const vo::ClosedLoopConfig cfg =
        session_config(*t.def, a.seed, 0, wide ? &pool : &pool1);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    ++r.attempted;
    try {
      const vo::ClosedLoopRun run =
          vo::run_odometry_loop(*t.scenario, *s.vo, *s.net, model, cfg);
      if (!same_run(run, reference)) ++r.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flight failed: %s\n", e.what());
      ++r.failed;
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    if (log != nullptr)
      log->add(wide ? "flight.poolP" : "flight.pool1", t0, t1, region);
    r.counted_frames += frames;
    if (wide) {
      r.frame_ms.push_back(wall * 1e3 / frames);
      r.measured_wall_s += wall;
      r.pool_cpu_s += process_cpu_s() - cpu0;
    } else {
      r.frame_ms_1t.push_back(wall * 1e3 / frames);
    }
  }
  close_span(log, region, Clock::now());
  r.counters = snapshot(s, timed) - before;
  // As a fleet pass does, the fastest pool-P flight stands for the region.
  r.frames = frames;
  r.pool_wall_s = fastest(r.frame_ms) * frames * 1e-3;
  r.ticks = static_cast<std::uint64_t>(windows);
  r.tick_ms.push_back(r.pool_wall_s * 1e3 / windows);
  // One session per stage-B dispatch: the serial and pooled counts agree.
  r.pooled_dispatches = r.serial_dispatches = r.ticks;
  r.queue_ticks.push_back(0.0);
  r.fixed.push_back(FixedRun{0, 0, 0, 0, 0, 0, reference});
  return r;
}

// ----------------------------------------------------------------- fleet

/// One pass of the fixed session set through the engine.
struct Pass {
  std::vector<double> tick_s;       ///< wall of each tick() call
  std::vector<FixedRun> fixed;      ///< in (session number, client) order
  std::vector<double> queue_ticks;  ///< per completed session
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t frames = 0;
  std::uint64_t pooled_dispatches = 0;
  std::uint64_t serial_dispatches = 0;
  Counters counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// True if two passes flew the same sessions on the same tick schedule.
bool same_pass(const Pass& x, const Pass& y) {
  if (x.tick_s.size() != y.tick_s.size() || x.fixed.size() != y.fixed.size())
    return false;
  for (std::size_t i = 0; i < x.fixed.size(); ++i) {
    const FixedRun& p = x.fixed[i];
    const FixedRun& q = y.fixed[i];
    if (p.key != q.key || p.first_tick != q.first_tick ||
        p.last_tick != q.last_tick || !same_run(p.run, q.run))
      return false;
  }
  return true;
}

/// Closed-loop fleet on one FleetEngine, whose tick() the bench thread
/// drives. In a pass each client submits its next session as soon as the
/// previous one completes, until it has flown def.sessions_per_client, and
/// the pass ends when the engine is idle. The admission schedule depends on
/// tick counts only, so every pass flies the same sessions on the same
/// sequence of ticks; the run checks that it does. Passes repeat, with
/// `between` called after each, until a.seconds have passed, kMinRepeats
/// have flown and `between` returns true. Each tick is then taken at its
/// fastest pass.
Region run_fleet(const WorkloadDef& def, const Setup& s,
                 const std::vector<const filter::MeasurementModel*>& models,
                 const std::vector<const TimedModel*>& timed,
                 core::ThreadPool& pool, const Args& a, SpanLog* log,
                 const char* region_name, const std::function<bool()>& between) {
  Region r;
  const int n_tenants = static_cast<int>(s.tenants.size());
  const std::size_t fixed_size =
      static_cast<std::size_t>(def.clients * def.sessions_per_client);
  fleet::FleetConfig fc;
  fc.pool = &pool;
  fc.window = kWindow;
  fc.max_sessions = static_cast<std::size_t>(
      std::max(def.clients, def.warmup_sessions));
  fc.queue_capacity = 2 * fc.max_sessions;
  fc.admission = def.admission;
  fc.working_set = def.working_set;
  fleet::FleetEngine engine(fc);
  std::vector<std::size_t> workload_ids;
  for (int t = 0; t < n_tenants; ++t)
    workload_ids.push_back(engine.add_workload(
        *s.tenants[t].scenario, *s.vo, *s.net, *models[t]));
  const auto spec_for = [&](int tenant, std::uint64_t key) {
    fleet::SessionSpec spec;
    spec.workload = workload_ids[static_cast<std::size_t>(tenant)];
    spec.loop = session_config(*s.tenants[tenant].def, a.seed, key, &pool);
    spec.qos = s.tenants[tenant].def->qos;
    return spec;
  };

  // Warm-up wave (untimed): fills slot buffers, pool scratch and pages.
  {
    std::vector<fleet::SessionHandle> warm;
    for (int i = 0; i < def.warmup_sessions; ++i) {
      warm.push_back(engine.try_submit(
          spec_for(i % n_tenants, kWarmupKey + static_cast<std::uint64_t>(i))));
      ++r.attempted;
      if (!warm.back().valid()) ++r.failed;
    }
    engine.run_until_idle();
  }

  struct Client {
    fleet::SessionHandle handle;
    int next = 0;  ///< sessions submitted so far in the pass
    int tenant = 0;
    std::uint64_t key = 0;
    std::uint64_t span = 0;
    int first_tick = 0;
    int refused_ticks = 0;
  };
  const Clock::time_point start = Clock::now();
  const std::uint64_t region = open_span(log, region_name, start);

  const auto fly_pass = [&] {
    Pass p;
    std::vector<Client> clients(static_cast<std::size_t>(def.clients));
    const auto submit = [&](int c, int tick, Clock::time_point now) {
      Client& cl = clients[static_cast<std::size_t>(c)];
      if (cl.next >= def.sessions_per_client) return;
      const int tenant = session_tenant(c, cl.next, s.tenants.size());
      const std::uint64_t key = session_key(c, cl.next);
      cl.handle = engine.try_submit(spec_for(tenant, key));
      if (!cl.handle.valid()) {
        if (++cl.refused_ticks > kMaxRefusedTicks) {
          ++p.attempted;
          ++p.failed;
          cl.next = def.sessions_per_client;  // refused for good
        }
        return;
      }
      ++p.attempted;
      cl.tenant = tenant;
      cl.key = key;
      cl.first_tick = tick;
      cl.refused_ticks = 0;
      ++cl.next;
      cl.span = open_span(log, "session", now, region, key);
    };

    const fleet::FleetStats st0 = engine.stats();
    const Counters before = snapshot(s, timed);
    const double cpu0 = process_cpu_s();
    const Clock::time_point p0 = Clock::now();
    for (int c = 0; c < def.clients; ++c) submit(c, 0, p0);
    for (int tick = 0;; ++tick) {
      const Clock::time_point t0 = Clock::now();
      engine.tick();
      const Clock::time_point t1 = Clock::now();
      p.tick_s.push_back(seconds_between(t0, t1));
      if (log != nullptr) log->add("fleet.tick", t0, t1, region);
      bool busy = false;
      for (int c = 0; c < def.clients; ++c) {
        Client& cl = clients[static_cast<std::size_t>(c)];
        if (cl.handle.valid() && cl.handle.poll()) {
          p.queue_ticks.push_back(
              static_cast<double>(cl.handle.qos().queue_ticks));
          p.fixed.push_back(FixedRun{cl.key, cl.tenant, c, cl.next - 1,
                                     cl.first_tick, tick, cl.handle.wait()});
          close_span(log, cl.span, t1);
          cl.handle.reset();
        }
        if (!cl.handle.valid()) submit(c, tick + 1, t1);
        busy = busy || cl.handle.valid() || cl.next < def.sessions_per_client;
      }
      if (!busy) break;
    }
    p.wall_s = seconds_between(p0, Clock::now());
    p.cpu_s = process_cpu_s() - cpu0;
    p.counters = snapshot(s, timed) - before;
    const fleet::FleetStats st1 = engine.stats();
    p.ticks = st1.ticks - st0.ticks;
    p.frames = st1.frames_dispatched - st0.frames_dispatched;
    p.pooled_dispatches =
        st1.pooled_layer_dispatches - st0.pooled_layer_dispatches;
    p.serial_dispatches =
        st1.serial_layer_dispatches - st0.serial_layer_dispatches;
    std::sort(p.fixed.begin(), p.fixed.end(),
              [](const FixedRun& x, const FixedRun& y) {
                return x.index != y.index ? x.index < y.index
                                          : x.client < y.client;
              });
    return p;
  };

  std::vector<Pass> passes;
  for (;;) {
    passes.push_back(fly_pass());
    const bool between_done = between();
    if (passes.size() >= kMinRepeats && between_done &&
        seconds_between(start, Clock::now()) >= a.seconds)
      break;
  }
  close_span(log, region, Clock::now());

  const Pass& first = passes.front();
  std::vector<double> tick_s = first.tick_s;
  r.counters = first.counters;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    r.attempted += p.attempted;
    r.failed += p.failed;
    r.measured_wall_s += p.wall_s;
    r.pool_cpu_s += p.cpu_s;
    r.counted_frames += static_cast<double>(p.frames);
    if (k == 0) continue;
    r.counters += p.counters;
    if (!same_pass(p, first)) {
      std::fprintf(stderr, "fleet pass %zu differs from the first pass\n", k);
      ++r.failed;
      continue;
    }
    for (std::size_t j = 0; j < tick_s.size(); ++j)
      tick_s[j] = std::min(tick_s[j], p.tick_s[j]);
  }
  r.passes = passes.size();
  std::printf("%s passes (wall s):", region_name);
  for (const Pass& p : passes) std::printf(" %.4f", p.wall_s);
  std::printf("\n");
  r.fixed = first.fixed;
  r.queue_ticks = first.queue_ticks;
  r.ticks = first.ticks;
  r.pooled_dispatches = first.pooled_dispatches;
  r.serial_dispatches = first.serial_dispatches;
  for (const double t : tick_s) {
    r.tick_ms.push_back(t * 1e3);
    r.pool_wall_s += t;
  }
  double latency_s = 0.0;
  for (const FixedRun& f : r.fixed) {
    for (int j = f.first_tick; j <= f.last_tick; ++j)
      latency_s += tick_s[static_cast<std::size_t>(j)];
    r.frames += static_cast<double>(f.run.steps.size());
  }
  r.frame_ms.push_back(ratio(latency_s * 1e3, r.frames));
  if (r.fixed.size() != fixed_size) {
    std::fprintf(stderr, "fixed session set incomplete: %zu sessions\n",
                 r.fixed.size());
    ++r.failed;
  }
  return r;
}

// ---------------------------------------------------------------- replay

/// Stage split of sessions replayed as a plain B-then-C loop over
/// vo::OdometrySession: make_input -> mc_predict_cim_window ->
/// consume/record_frame_macro, one window at a time.
struct Replay {
  double a_s = 0.0, b_s = 0.0, c_s = 0.0;
  double frames = 0.0;
  std::uint64_t mask_flips = 0;
  std::uint64_t resamples = 0;
  std::uint64_t mismatches = 0;
};

void replay_session(const Setup& s, int tenant, const vo::ClosedLoopConfig& cfg,
                    const vo::ClosedLoopRun& expect, Replay& out,
                    SpanLog* log, std::uint64_t request) {
  const Tenant& t = s.tenants[static_cast<std::size_t>(tenant)];
  vo::OdometrySession session;
  session.begin(*t.scenario, *s.vo, *s.net, *t.model, cfg);
  const int frames = session.frame_count();
  const int w = cfg.window;
  std::vector<nn::Vector> inputs(static_cast<std::size_t>(w));
  std::vector<const nn::Vector*> xs;
  std::vector<bnn::McWorkload> frame_workloads;
  bnn::McOptions mc = cfg.mc;
  mc.pool = cfg.pool;
  const std::uint64_t acquires0 =
      session.particle_filter().memory_stats().pool_acquires;
  const std::uint64_t span =
      open_span(log, "replay.session", Clock::now(), 0, request);
  for (int f0 = 0; f0 < frames; f0 += w) {
    const int n = std::min(w, frames - f0);
    const Clock::time_point ta = Clock::now();
    cfg.pool->parallel_for(static_cast<std::size_t>(n), 1,
                           [&](std::size_t b, std::size_t e, int) {
                             for (std::size_t i = b; i < e; ++i)
                               session.make_input(f0 + static_cast<int>(i),
                                                  inputs[i]);
                           });
    const Clock::time_point tb = Clock::now();
    xs.clear();
    for (int i = 0; i < n; ++i) xs.push_back(&inputs[static_cast<std::size_t>(i)]);
    const std::vector<bnn::McPrediction> preds = bnn::mc_predict_cim_window(
        *s.net, xs, mc, session.mask_source(), session.analog_rng(), nullptr,
        0, {}, &frame_workloads);
    const Clock::time_point tc = Clock::now();
    for (int i = 0; i < n; ++i) {
      const auto fi = static_cast<std::size_t>(i);
      session.consume(f0 + i, preds[fi]);
      session.record_frame_macro(f0 + i, frame_workloads[fi].macro);
      out.mask_flips += frame_workloads[fi].input_mask_flips;
    }
    const Clock::time_point td = Clock::now();
    out.a_s += seconds_between(ta, tb);
    out.b_s += seconds_between(tb, tc);
    out.c_s += seconds_between(tc, td);
    if (log != nullptr) {
      log->add("replay.stage_a", ta, tb, span, request);
      log->add("replay.stage_b", tb, tc, span, request);
      log->add("replay.stage_c", tc, td, span, request);
    }
  }
  close_span(log, span, Clock::now());
  out.resamples +=
      session.particle_filter().memory_stats().pool_acquires - acquires0;
  out.frames += frames;
  if (!same_run(session.finish(), expect)) ++out.mismatches;
}

// --------------------------------------------------------------- metrics

struct FixedTotals {
  double frames = 0.0, energy_j = 0.0, vo_energy_j = 0.0, update_energy_j = 0.0;
  double rmse_sum = 0.0, particle_frames = 0.0;
  double full = 0.0, skipped = 0.0;
  std::size_t runs = 0;
};

FixedTotals totals(const std::vector<FixedRun>& fixed) {
  FixedTotals t;
  for (const FixedRun& f : fixed) {
    const double n = static_cast<double>(f.run.steps.size());
    t.frames += n;
    t.energy_j += f.run.total_energy_j;
    t.vo_energy_j += f.run.vo_energy_j;
    t.update_energy_j += f.run.update_energy_j;
    t.rmse_sum += f.run.rmse_m;
    t.particle_frames += f.run.mean_particles * n;
    t.full += f.run.full_updates;
    t.skipped += f.run.skipped_updates;
    ++t.runs;
  }
  return t;
}

/// Wall time per frame as one client sees it. Solo: fastest pool-P
/// flight. Fleet: the fixed set's summed session latency (submission to
/// completion, every tick at its fastest pass) over its frames.
double frame_ms(const Region& r) { return fastest(r.frame_ms); }

void add_end_to_end(Report& rep, const Region& u, double frame_ms_1t,
                    std::size_t samples_1t, double setup_s,
                    std::size_t setup_reps, const FixedTotals& ft,
                    int clients) {
  const bool solo = clients == 0;
  rep.add("frame_ms", frame_ms(u), "ms",
          solo ? u.frame_ms.size() : static_cast<std::size_t>(u.frames),
          solo ? "fastest pool-P flight"
               : "session latency / frames, fastest pass per tick");
  rep.add("frame_ms_1t", frame_ms_1t, "ms", samples_1t,
          solo ? "fastest pool-1 flight"
               : "standalone pool-1 runs, fastest per checked session");
  rep.add("session_frames_per_s", ratio(u.frames, u.pool_wall_s), "1/s",
          static_cast<std::size_t>(u.frames),
          solo ? "frames / fastest pool-P flight wall" : "frames / pass wall, fastest pass per tick");
  const char* tick_note =
      solo ? "fastest pool-P flight wall / windows"
           : "FleetEngine::tick wall, fastest pass per tick";
  rep.add("tick_ms_p50", percentile(u.tick_ms, 0.5), "ms", u.tick_ms.size(), tick_note);
  rep.add("tick_ms_p90", percentile(u.tick_ms, 0.9), "ms", u.tick_ms.size(), tick_note);
  rep.add("setup_s", setup_s, "s", setup_reps, "median of set-ups");
  rep.add("energy_uj_per_frame", ratio(ft.energy_j, ft.frames) * 1e6, "uJ",
          ft.runs, "simulated, fixed session set");
  rep.add("rmse_m", ratio(ft.rmse_sum, static_cast<double>(ft.runs)), "m",
          ft.runs, "mean over fixed session set");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "getrusage ru_maxrss");
}

std::string results_json(const Args& a, int threads, unsigned nproc,
                         const Report& rep, bool correct,
                         std::uint64_t attempted, std::uint64_t failed,
                         double wall_s, double cpu_s) {
  std::ostringstream o;
  o << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
    << ", \"seconds\": " << format_double(a.seconds)
    << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"pool_threads\": " << threads
    << ", \"nproc\": " << nproc << ", \"process_wall_s\": "
    << format_double(wall_s) << ", \"process_cpu_s\": " << format_double(cpu_s)
    << ", \"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": [";
  for (std::size_t i = 0; i < rep.metrics().size(); ++i) {
    const Metric& m = rep.metrics()[i];
    o << (i ? ", " : "") << "{\"name\": \"" << m.name << "\", \"value\": "
      << format_double(m.value) << ", \"unit\": \"" << m.unit
      << "\", \"samples\": " << m.samples << ", \"source\": \"" << m.note
      << "\"}";
  }
  o << "]}\n";
  return o.str();
}

int run(const Args& a) {
  const WorkloadDef& def = workload(a.workload);
  const bool solo = def.clients == 0;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int threads = a.pool > 0 ? a.pool : static_cast<int>(std::min(4u, nproc));
  if (threads > static_cast<int>(nproc))
    usage("--pool " + std::to_string(threads) + " exceeds nproc " +
          std::to_string(nproc));
  const Clock::time_point origin = Clock::now();
  const double cpu_origin = process_cpu_s();
  core::ThreadPool pool(threads);
  core::ThreadPool pool1(1);
  SpanLog spans(origin);
  SpanLog* log = a.trace ? &spans : nullptr;
  bool correct = true;

  // ---- set-up, kSetupReps times; the last one is kept.
  struct SetupTimes {
    double total, vo, scenario, cim;
  };
  std::vector<SetupTimes> reps;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    setup.reset();
    const Clock::time_point t0 = Clock::now();
    setup = std::make_unique<Setup>(build_setup(def));
    if (log != nullptr) log->add("setup", t0, Clock::now());
    reps.push_back({setup->total_s, setup->vo_train_s,
                    setup->scenario_build_s, setup->cim_program_s});
    const double parts = setup->vo_train_s + setup->scenario_build_s +
                         setup->cim_program_s;
    if (std::abs(setup->total_s - parts) > 1e-3) {
      std::fprintf(stderr, "set-up parts %.6f s do not sum to %.6f s\n",
                   parts, setup->total_s);
      correct = false;
    }
  }
  std::sort(reps.begin(), reps.end(),
            [](const SetupTimes& x, const SetupTimes& y) { return x.total < y.total; });
  const SetupTimes setup_mid = reps[reps.size() / 2];
  const Setup& s = *setup;

  std::vector<const filter::MeasurementModel*> raw_models;
  for (const Tenant& t : s.tenants) raw_models.push_back(t.model.get());

  // ---- warm-up and the untraced timed region. A fleet's output check
  // flies the first check_sessions fixed sessions standalone at pool 1,
  // check_flights_per_pass of them between two passes, so the flights span
  // the whole region; each session's fastest flight gives frame_ms_1t.
  std::uint64_t attempted = 0, failed = 0;
  vo::ClosedLoopRun reference;
  Region untraced;
  double frame_ms_1t = 0.0;
  std::size_t samples_1t = 0;
  const std::size_t n_check =
      solo ? 0
           : std::min(static_cast<std::size_t>(def.check_sessions),
                      static_cast<std::size_t>(def.clients * def.sessions_per_client));
  std::vector<vo::ClosedLoopRun> standalone(n_check);
  std::vector<double> fastest_1t_s(n_check, std::numeric_limits<double>::infinity());
  std::size_t flown = 0;
  const auto fly_pool1 = [&] {
    // The i-th fixed session in (session number, client) order.
    const std::size_t i = flown++ % n_check;
    const int c = static_cast<int>(i % static_cast<std::size_t>(def.clients));
    const int k = static_cast<int>(i / static_cast<std::size_t>(def.clients));
    const Tenant& t = s.tenants[static_cast<std::size_t>(
        session_tenant(c, k, s.tenants.size()))];
    const Clock::time_point t0 = Clock::now();
    vo::ClosedLoopRun run = vo::run_odometry_loop(
        *t.scenario, *s.vo, *s.net, *t.model,
        session_config(*t.def, a.seed, session_key(c, k), &pool1));
    fastest_1t_s[i] = std::min(fastest_1t_s[i], seconds_between(t0, Clock::now()));
    if (standalone[i].steps.empty()) {
      standalone[i] = std::move(run);
    } else if (!same_run(run, standalone[i])) {
      std::fprintf(stderr, "standalone run %zu is not reproducible\n", i);
      ++failed;
    }
  };
  if (solo) {
    reference = vo::run_odometry_loop(
        *s.tenants[0].scenario, *s.vo, *s.net, *s.tenants[0].model,
        session_config(*s.tenants[0].def, a.seed, 0, &pool));
    ++attempted;
    untraced = run_solo(def, s, *s.tenants[0].model, {}, pool, pool1, a,
                        reference, nullptr, "region.untraced");
    frame_ms_1t = fastest(untraced.frame_ms_1t);
    samples_1t = untraced.frame_ms_1t.size();
  } else {
    const auto between_passes = [&] {
      for (int k = 0; k < def.check_flights_per_pass && n_check > 0; ++k)
        fly_pool1();
      return flown >= n_check;
    };
    untraced = run_fleet(def, s, raw_models, {}, pool, a, nullptr,
                         "region.untraced", between_passes);
    double best_s = 0.0, frames_1t = 0.0;
    for (std::size_t i = 0; i < n_check; ++i) {
      best_s += fastest_1t_s[i];
      frames_1t += static_cast<double>(standalone[i].steps.size());
    }
    frame_ms_1t = ratio(best_s * 1e3, frames_1t);
    samples_1t = flown;
    for (std::size_t i = 0; i < n_check && i < untraced.fixed.size(); ++i)
      if (!same_run(standalone[i], untraced.fixed[i].run)) {
        std::fprintf(stderr, "session %llx differs from its standalone run\n",
                     static_cast<unsigned long long>(untraced.fixed[i].key));
        ++failed;
      }
  }
  attempted += untraced.attempted;
  failed += untraced.failed;

  const FixedTotals ft = totals(untraced.fixed);
  Report e2e;
  add_end_to_end(e2e, untraced, frame_ms_1t, samples_1t, setup_mid.total,
                 reps.size(), ft, def.clients);

  // ---- traced region, replay and per-layer metrics.
  Report layers;
  double stage_share[3] = {0.0, 0.0, 0.0};
  if (a.trace) {
    std::vector<std::unique_ptr<TimedModel>> decorated;
    std::vector<const filter::MeasurementModel*> models;
    std::vector<const TimedModel*> timed;
    for (const Tenant& t : s.tenants) {
      decorated.push_back(std::make_unique<TimedModel>(*t.model));
      models.push_back(decorated.back().get());
      timed.push_back(decorated.back().get());
    }
    const Region traced =
        solo ? run_solo(def, s, *models[0], timed, pool, pool1, a, reference,
                        log, "region.traced")
             : run_fleet(def, s, models, timed, pool, a, log, "region.traced",
                         [] { return true; });
    attempted += traced.attempted;
    failed += traced.failed;
    if (traced.fixed.size() != untraced.fixed.size()) {
      ++failed;
    } else {
      for (std::size_t i = 0; i < traced.fixed.size(); ++i)
        if (!same_run(traced.fixed[i].run, untraced.fixed[i].run)) {
          std::fprintf(stderr, "traced session %zu differs from untraced\n", i);
          ++failed;
        }
    }

    Replay rp;
    const std::size_t n_replay =
        solo ? 1 : std::min(untraced.fixed.size(),
                            static_cast<std::size_t>(def.check_sessions));
    for (std::size_t i = 0; i < n_replay; ++i) {
      const FixedRun& f = untraced.fixed[i];
      const Tenant& t = s.tenants[static_cast<std::size_t>(f.tenant)];
      replay_session(s, f.tenant, session_config(*t.def, a.seed, f.key, &pool),
                     f.run, rp, log, f.key);
    }
    failed += rp.mismatches;

    const double cf = traced.counted_frames;
    const double stage_s = rp.a_s + rp.b_s + rp.c_s;
    stage_share[0] = ratio(rp.a_s, stage_s);
    stage_share[1] = ratio(rp.b_s, stage_s);
    stage_share[2] = ratio(rp.c_s, stage_s);
    const std::size_t rf = static_cast<std::size_t>(rp.frames);
    layers.add("setup.vo_train_s", setup_mid.vo, "s", 1, "median set-up");
    layers.add("setup.scenario_build_s", setup_mid.scenario, "s", 1, "median set-up");
    layers.add("setup.cim_program_s", setup_mid.cim, "s", 1, "median set-up");
    layers.add("vo.stage_a_ms_per_frame", ratio(rp.a_s * 1e3, rp.frames), "ms", rf, "replay");
    layers.add("bnn.stage_b_ms_per_frame", ratio(rp.b_s * 1e3, rp.frames), "ms", rf, "replay");
    layers.add("filter.stage_c_ms_per_frame", ratio(rp.c_s * 1e3, rp.frames), "ms", rf, "replay");
    layers.add("bnn.mask_flips_per_frame",
               ratio(static_cast<double>(rp.mask_flips), rp.frames), "count", rf, "replay");
    const std::size_t cfn = static_cast<std::size_t>(cf);
    for (std::size_t l = 0; l < traced.counters.macro.size(); ++l) {
      const cimsram::MacroStats& m = traced.counters.macro[l];
      const std::string p = "cimsram.layer" + std::to_string(l) + ".";
      layers.add(p + "wordline_pulses_per_frame",
                 ratio(static_cast<double>(m.wordline_pulses), cf), "count", cfn, "traced");
      layers.add(p + "adc_conversions_per_frame",
                 ratio(static_cast<double>(m.adc_conversions), cf), "count", cfn, "traced");
      layers.add(p + "macs_per_frame",
                 ratio(static_cast<double>(m.nominal_macs), cf), "count", cfn, "traced");
    }
    double reads = 0.0, column_evals = 0.0;
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      const auto r = static_cast<double>(traced.counters.reads[t]);
      reads += r;
      column_evals += r * s.tenants[t].likelihood_columns;
    }
    const double busy_ns = static_cast<double>(traced.counters.busy_ns);
    layers.add("circuit.likelihood_reads_per_frame", ratio(reads, cf), "count", cfn, "traced");
    layers.add("circuit.column_evals_per_frame", ratio(column_evals, cf), "count", cfn, "traced");
    layers.add("circuit.likelihood_busy_ms_per_frame", ratio(busy_ns * 1e-6, cf), "ms", cfn,
               "TimedModel, summed over threads");
    layers.add("circuit.ns_per_read", ratio(busy_ns, reads), "ns",
               static_cast<std::size_t>(reads), "TimedModel");
    layers.add("filter.particles_per_frame", ratio(ft.particle_frames, ft.frames), "count",
               ft.runs, "fixed session set");
    layers.add("filter.resamples_per_frame",
               ratio(static_cast<double>(rp.resamples), rp.frames), "count", rf,
               "replay, pool_acquires");
    layers.add("autonomy.full_update_frac", ratio(ft.full, ft.frames), "fraction", ft.runs,
               "fixed session set");
    layers.add("autonomy.skipped_update_frac", ratio(ft.skipped, ft.frames), "fraction",
               ft.runs, "fixed session set");
    layers.add("energy.vo_uj_per_frame", ratio(ft.vo_energy_j, ft.frames) * 1e6, "uJ",
               ft.runs, "simulated");
    layers.add("energy.update_uj_per_frame", ratio(ft.update_energy_j, ft.frames) * 1e6,
               "uJ", ft.runs, "simulated");
    layers.add("fleet.dispatch_ratio",
               ratio(static_cast<double>(traced.serial_dispatches),
                     static_cast<double>(traced.pooled_dispatches)),
               "ratio", traced.ticks, "serial / pooled layer dispatches");
    layers.add("fleet.frames_per_tick",
               ratio(traced.frames, static_cast<double>(traced.ticks)), "count",
               traced.ticks, "traced");
    layers.add("fleet.queue_ticks_p50", median(traced.queue_ticks), "count",
               traced.queue_ticks.size(), "SessionHandle::qos");
    layers.add("fleet.scheduler_ms_per_tick",
               ratio(traced.pool_wall_s * 1e3 -
                         ratio(stage_s * 1e3, rp.frames) * traced.frames,
                     static_cast<double>(traced.ticks)),
               "ms", traced.ticks, "estimate: tick wall - replayed stage time");
    layers.add("core.cpu_util",
               ratio(untraced.pool_cpu_s, untraced.measured_wall_s * threads),
               "fraction", 1, "untraced region, getrusage");
    layers.add("trace.frame_ms_delta",
               frame_ms(traced) - frame_ms(untraced), "ms",
               static_cast<std::size_t>(traced.frames), "traced - untraced");
    layers.add("trace.session_frames_per_s_delta",
               ratio(traced.frames, traced.pool_wall_s) -
                   ratio(untraced.frames, untraced.pool_wall_s),
               "1/s", static_cast<std::size_t>(traced.frames), "traced - untraced");
    layers.add("trace.tick_ms_p50_delta",
               percentile(traced.tick_ms, 0.5) - percentile(untraced.tick_ms, 0.5), "ms",
               traced.tick_ms.size(), "traced - untraced");
  }

  // ---- report.
  const double wall_s = seconds_between(origin, Clock::now());
  const double cpu_s = process_cpu_s() - cpu_origin;
  correct = correct && failed == 0;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("context: pool threads %d, nproc %u, process wall %.3f s, "
              "process cpu %.3f s, timed pool-P wall %.3f s, cpu %.3f s "
              "(util %.2f), fleet passes %zu\n",
              threads, nproc, wall_s, cpu_s, untraced.measured_wall_s,
              untraced.pool_cpu_s,
              ratio(untraced.pool_cpu_s, untraced.measured_wall_s * threads),
              untraced.passes);
  std::printf("sessions: attempted %llu, failed %llu, error_rate %g (count)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("end-to-end (tracing off):\n%s", e2e.table().c_str());
  if (a.trace) {
    std::printf("per-layer (traced run):\n%s", layers.table().c_str());
    std::printf("stage split (replay): A %.4f  B %.4f  C %.4f\n", stage_share[0],
                stage_share[1], stage_share[2]);
  }
  const Report& out = a.trace ? layers : e2e;
  if (!a.results_out.empty()) {
    Report all = e2e;
    for (const Metric& m : layers.metrics()) all.add(m.name, m.value, m.unit, m.samples, m.note);
    std::ofstream f(a.results_out);
    f << results_json(a, threads, nproc, all, correct, attempted, failed, wall_s, cpu_s);
  }
  if (a.trace && !a.trace_out.empty() && !spans.write_chrome_json(a.trace_out, layers))
    std::fprintf(stderr, "could not write trace %s\n", a.trace_out.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), out.json_object().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
