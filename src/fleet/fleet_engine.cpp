#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "core/error.hpp"

namespace cimnav::fleet {

// ------------------------------------------------------------ handles

SessionHandle::SessionHandle(const SessionHandle& o) : state_(o.state_) {
  if (state_ != nullptr) state_->completion.add_ref();
}

SessionHandle& SessionHandle::operator=(const SessionHandle& o) {
  if (this == &o) return *this;
  SessionState* incoming = o.state_;
  if (incoming != nullptr) incoming->completion.add_ref();
  reset();
  state_ = incoming;
  return *this;
}

SessionHandle::SessionHandle(SessionHandle&& o) noexcept : state_(o.state_) {
  o.state_ = nullptr;
}

SessionHandle& SessionHandle::operator=(SessionHandle&& o) noexcept {
  if (this == &o) return *this;
  reset();
  state_ = o.state_;
  o.state_ = nullptr;
  return *this;
}

SessionHandle::~SessionHandle() { reset(); }

bool SessionHandle::poll() const {
  return state_ != nullptr && state_->completion.done();
}

const vo::ClosedLoopRun& SessionHandle::wait() const {
  CIMNAV_REQUIRE(state_ != nullptr, "wait() on an invalid session handle");
  return state_->completion.wait();
}

const SessionQosRecord& SessionHandle::qos() const {
  CIMNAV_REQUIRE(state_ != nullptr, "qos() on an invalid session handle");
  // done() is the acquire that orders the scheduler's pre-complete()
  // record write before this read.
  CIMNAV_REQUIRE(state_->completion.done(),
                 "qos() before the session completed (poll()/wait() first)");
  return state_->qos;
}

void SessionHandle::reset() {
  if (state_ == nullptr) return;
  SessionState* s = state_;
  state_ = nullptr;
  if (s->completion.release() == 0) s->engine->recycle(s->index);
}

// ------------------------------------------------------------- engine

FleetEngine::FleetEngine(const FleetConfig& config)
    : config_(config),
      states_(config.max_sessions + config.queue_capacity),
      free_states_(config.max_sessions + config.queue_capacity),
      submissions_(config.queue_capacity),
      slots_(config.max_sessions) {
  CIMNAV_REQUIRE(config.window >= 1, "fleet window must be >= 1");
  CIMNAV_REQUIRE(config.max_sessions >= 1, "fleet needs >= 1 session slot");
  CIMNAV_REQUIRE(config.starvation_bound_ticks >= 1,
                 "fleet starvation bound must be >= 1");
  // Resolve the admission policy up front: an unknown name fails loudly
  // at construction (listing the registered names), not mid-flight.
  policy_ = make_admission_policy(config_.admission);
  qos_.admission = std::string(policy_->name());
  views_.reserve(config.max_sessions);
  policy_views_.reserve(config.max_sessions);
  forced_.reserve(config.max_sessions);
  selected_.reserve(config.max_sessions);
  qos_.classes.reserve(config.max_sessions);
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    states_[i].engine = this;
    states_[i].index = i;
    free_states_.try_push(i);
  }
  // Bound once: parallel_for takes `const ForBody&`, so a per-tick
  // lambda would re-construct a std::function every tick. The body
  // captures only `this`; the item list lives in items_.
  stage_a_body_ = [this](std::size_t begin, std::size_t end, int) {
    for (std::size_t k = begin; k < end; ++k) {
      Slot& s = slots_[items_[k].first];
      const int off = static_cast<int>(items_[k].second);
      s.session.make_input(s.next_frame + off,
                           s.inputs[static_cast<std::size_t>(off)]);
    }
  };
}

FleetEngine::~FleetEngine() {
  stop();
  // Drain stragglers so no handle blocks on a run that will never come.
  run_until_idle();
}

std::size_t FleetEngine::add_workload(
    const filter::LocalizationScenario& scenario, const vo::VoPipeline& vo,
    const nn::CimMlp& net, const filter::MeasurementModel& model) {
  workloads_.push_back(Workload{&scenario, &vo, &net, &model});
  return workloads_.size() - 1;
}

SessionHandle FleetEngine::try_submit(const SessionSpec& spec) {
  CIMNAV_REQUIRE(spec.workload < workloads_.size(),
                 "session references an unregistered workload");
  CIMNAV_REQUIRE(spec.qos.target_latency_ticks >= 0,
                 "QosSpec::target_latency_ticks must be >= 0");
  // Reject a spec no run can execute here, before it takes a slot: past
  // this point a bad spec would throw out of every tick() instead.
  vo::validate(spec.loop);
  std::uint32_t idx = 0;
  if (!free_states_.try_pop(idx)) return SessionHandle{};
  SessionState& st = states_[idx];
  st.completion.reset();
  st.spec = spec;
  // Two references: the returned handle and the engine (held until the
  // run is published at retirement). Taken before the push so the
  // scheduler can never observe an unreferenced live state.
  st.completion.add_ref(2);
  if (!submissions_.try_push(idx)) {
    st.completion.release();
    if (st.completion.release() == 0) recycle(idx);
    return SessionHandle{};
  }
  cv_.notify_one();
  return SessionHandle{&st};
}

void FleetEngine::admit_locked() {
  std::uint32_t idx = 0;
  while (active_count_ < slots_.size() && submissions_.try_pop(idx)) {
    Slot* slot = nullptr;
    for (Slot& s : slots_)
      if (!s.active) {
        slot = &s;
        break;
      }
    SessionState& st = states_[idx];
    const Workload& w = workloads_[st.spec.workload];
    // The fleet owns execution resources; everything else (seeds,
    // policy, MC options, KLD adaptation) is the session's own.
    vo::ClosedLoopConfig cfg = st.spec.loop;
    cfg.pool = config_.pool;
    try {
      slot->session.begin(*w.scenario, *w.vo, *w.net, *w.model, cfg);
    } catch (...) {
      // Setup threw (e.g. a registered policy factory): the slot stays
      // free, the handle publishes the error (wait() rethrows) and the
      // state index recycles through the usual last-release path, so
      // admission goes on for everyone else.
      st.qos = SessionQosRecord{};
      st.qos.spec = st.spec.qos;
      st.completion.fail(std::current_exception());
      if (st.completion.release() == 0) recycle(idx);
      continue;
    }
    slot->state = &st;
    slot->net = w.net;
    slot->next_frame = 0;
    slot->window_frames = 0;
    slot->active = true;
    // QoS bookkeeping: admit_tick is the current tick (admission runs
    // after the tick counter advances), so a target of 1 means
    // "complete within the admission tick".
    slot->qos = st.spec.qos;
    slot->admit_seq = next_admit_seq_++;
    slot->admit_tick = stats_.ticks;
    slot->deadline_tick =
        st.spec.qos.target_latency_ticks > 0
            ? static_cast<std::int64_t>(stats_.ticks) +
                  st.spec.qos.target_latency_ticks - 1
            : -1;
    slot->last_scheduled_tick = 0;
    slot->queue_ticks_row = 0;
    slot->queue_ticks_total = 0;
    slot->scheduled_ticks = 0;
    slot->scheduled = false;
    const auto win = static_cast<std::size_t>(config_.window);
    slot->inputs.resize(win);
    slot->xs.resize(win);
    for (std::size_t i = 0; i < win; ++i) slot->xs[i] = &slot->inputs[i];
    slot->preds.resize(win);
    slot->frame_workloads.resize(win);
    ++active_count_;
    ++stats_.sessions_admitted;
  }
}

QosClassLedger& FleetEngine::class_ledger_locked(int priority) {
  for (QosClassLedger& c : qos_.classes)
    if (c.priority == priority) return c;
  qos_.classes.emplace_back();
  qos_.classes.back().priority = priority;
  return qos_.classes.back();
}

void FleetEngine::select_locked() {
  // One view per runnable session, slot order.
  views_.clear();
  for (std::uint32_t si = 0; si < slots_.size(); ++si) {
    Slot& s = slots_[si];
    if (!s.active) continue;
    s.scheduled = false;
    SessionView v;
    v.slot = si;
    v.admit_seq = s.admit_seq;
    v.priority = s.qos.priority;
    v.deadline_tick = s.deadline_tick;
    v.last_scheduled_tick = s.last_scheduled_tick;
    v.queue_ticks = s.queue_ticks_row;
    views_.push_back(v);
  }
  selected_.clear();
  if (views_.empty()) return;

  const std::size_t limit =
      config_.working_set == 0
          ? views_.size()
          : std::min(config_.working_set, views_.size());

  // Starvation guard: anything passed over for the bound's worth of
  // consecutive ticks runs now, oldest admissions first, ahead of the
  // policy — no-starvation is structural, not per policy.
  forced_.clear();
  for (const SessionView& v : views_)
    if (v.queue_ticks >= config_.starvation_bound_ticks)
      forced_.push_back(v.slot);
  if (!forced_.empty()) {
    std::sort(forced_.begin(), forced_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return slots_[a].admit_seq < slots_[b].admit_seq;
              });
    if (forced_.size() > limit) forced_.resize(limit);
    qos_.starvation_overrides += forced_.size();
    for (std::uint32_t sl : forced_) selected_.push_back(sl);
  }

  // The policy fills the remaining seats from the non-forced views.
  if (selected_.size() < limit) {
    const std::size_t room = limit - selected_.size();
    const SessionView* pv = views_.data();
    std::size_t pn = views_.size();
    if (!forced_.empty()) {
      policy_views_.clear();
      for (const SessionView& v : views_)
        if (std::find(forced_.begin(), forced_.end(), v.slot) ==
            forced_.end())
          policy_views_.push_back(v);
      pv = policy_views_.data();
      pn = policy_views_.size();
    }
    if (pn > 0) {
      policy_->select(pv, pn, room, selected_);
      if (selected_.size() > limit) selected_.resize(limit);
    }
  }

  // Progress guarantee: some session always runs (a custom policy that
  // returns nothing must not wedge run_until_idle).
  if (selected_.empty()) {
    std::uint32_t oldest = views_.front().slot;
    for (const SessionView& v : views_)
      if (v.admit_seq < slots_[oldest].admit_seq) oldest = v.slot;
    selected_.push_back(oldest);
  }

  for (std::uint32_t sl : selected_) slots_[sl].scheduled = true;

  // Book the tick for every runnable session (scheduled or queued) and
  // record the dispatch trace.
  for (const SessionView& v : views_) {
    Slot& s = slots_[v.slot];
    if (s.scheduled) {
      s.last_scheduled_tick = stats_.ticks;
      s.queue_ticks_row = 0;
      ++s.scheduled_ticks;
      ++class_ledger_locked(s.qos.priority).scheduled_ticks;
    } else {
      ++s.queue_ticks_row;
      ++s.queue_ticks_total;
      ++qos_.queue_ticks;
      ++class_ledger_locked(s.qos.priority).queue_ticks;
    }
    if (config_.record_dispatch) {
      DispatchEvent e;
      e.tick = stats_.ticks;
      e.admit_seq = v.admit_seq;
      e.priority = v.priority;
      e.deadline_tick = v.deadline_tick;
      e.scheduled = s.scheduled;
      e.starvation_override =
          s.scheduled && std::find(forced_.begin(), forced_.end(),
                                   v.slot) != forced_.end();
      dispatch_trace_.push_back(e);
    }
  }
}

void FleetEngine::retire_locked(Slot& slot) {
  vo::ClosedLoopRun& run = slot.session.finish();
  // Book the fleet ledger before complete() swaps the run's buffers
  // into the completion slot.
  stats_.completed_frames += run.steps.size();
  stats_.vo_energy_j += run.vo_energy_j;
  stats_.update_energy_j += run.update_energy_j;
  stats_.total_energy_j += run.total_energy_j;
  stats_.likelihood_evals += run.likelihood_evals;
  stats_.particle_frames +=
      run.mean_particles * static_cast<double>(run.steps.size());
  SessionState* st = slot.state;
  // The QoS record must be fully written before complete(): done()'s
  // release/acquire pair is what makes it readable through
  // SessionHandle::qos() without a lock.
  SessionQosRecord& q = st->qos;
  q.spec = slot.qos;
  q.admit_seq = slot.admit_seq;
  q.admit_tick = slot.admit_tick;
  q.complete_tick = stats_.ticks;
  q.ticks_to_completion = stats_.ticks - slot.admit_tick + 1;
  q.scheduled_ticks = slot.scheduled_ticks;
  q.queue_ticks = slot.queue_ticks_total;
  q.had_deadline = slot.qos.target_latency_ticks > 0;
  q.deadline_hit =
      q.had_deadline &&
      q.ticks_to_completion <=
          static_cast<std::uint64_t>(slot.qos.target_latency_ticks);
  QosClassLedger& cls = class_ledger_locked(slot.qos.priority);
  ++cls.sessions_completed;
  if (q.had_deadline) {
    ++qos_.deadline_sessions;
    if (q.deadline_hit) {
      ++qos_.sessions_at_target_latency;
      ++cls.deadline_hits;
    } else {
      ++qos_.deadline_misses;
      ++cls.deadline_misses;
    }
  }
  qos_.max_queue_ticks = std::max(qos_.max_queue_ticks, q.queue_ticks);
  st->completion.complete(run);
  slot.state = nullptr;
  slot.active = false;
  --active_count_;
  ++stats_.sessions_completed;
  if (st->completion.release() == 0) recycle(st->index);
}

bool FleetEngine::tick_locked() {
  ++stats_.ticks;
  const std::uint64_t admitted_before = stats_.sessions_admitted;
  admit_locked();
  const bool admitted = stats_.sessions_admitted != admitted_before;

  // QoS working-set selection: which runnable sessions advance this
  // tick. Selection only gates window_frames below — nothing about a
  // session's own computation depends on it.
  select_locked();

  // Stage A: fan every (session, frame-offset) item of this tick's
  // windows over the pool. make_input is a pure function of the frame
  // index per session, so items are independent.
  items_.clear();
  for (std::uint32_t si = 0; si < slots_.size(); ++si) {
    Slot& s = slots_[si];
    if (!s.active) continue;
    s.window_frames =
        s.scheduled ? std::min(config_.window,
                               s.session.frame_count() - s.next_frame)
                    : 0;
    if (s.window_frames > 0)
      class_ledger_locked(s.qos.priority).frames_dispatched +=
          static_cast<std::uint64_t>(s.window_frames);
    for (int off = 0; off < s.window_frames; ++off)
      items_.emplace_back(si, static_cast<std::uint32_t>(off));
  }
  if (config_.pool != nullptr && items_.size() > 1) {
    config_.pool->parallel_for(items_.size(), 1, stage_a_body_);
  } else {
    stage_a_body_(0, items_.size(), 0);
  }
  stats_.frames_dispatched += items_.size();

  // Stage B: one cross-session batched dispatch per distinct network.
  // Slot-index order keys nothing (each job draws only from its own
  // sources) but keeps the accounting deterministic.
  nets_.clear();
  for (const Slot& s : slots_) {
    if (!s.active || s.window_frames == 0) continue;
    if (std::find(nets_.begin(), nets_.end(), s.net) == nets_.end())
      nets_.push_back(s.net);
  }
  for (const nn::CimMlp* net : nets_) {
    jobs_.clear();
    for (Slot& s : slots_) {
      if (!s.active || s.window_frames == 0 || s.net != net) continue;
      bnn::McWindowJob job;
      job.xs = s.xs.data();
      job.n_frames = static_cast<std::size_t>(s.window_frames);
      job.options = s.session.config().mc;
      job.masks = &s.session.mask_source();
      job.analog_rng = &s.session.analog_rng();
      job.preds = s.preds.data();
      job.frame_workloads = s.frame_workloads.data();
      jobs_.push_back(job);
    }
    // mc_predict_cim_jobs batches dense and compute-reuse jobs alike
    // (reuse chains advance step-synchronously through the same pooled
    // dispatches), and returns how many non-empty jobs shared the one
    // pooled dispatch set — the serial-equivalent count the dispatch
    // ratio is measured against.
    const std::size_t batched_jobs =
        bnn::mc_predict_cim_jobs(*net, jobs_.data(), jobs_.size(),
                                 config_.pool);
    const auto layers = static_cast<std::uint64_t>(net->layer_count());
    if (batched_jobs > 0) {
      stats_.pooled_layer_dispatches += layers;
      stats_.serial_layer_dispatches += batched_jobs * layers;
    }
  }

  // Stage C: strictly frame-serial per session; sessions in slot order
  // (arbitrary but fixed — sessions are independent here too).
  for (Slot& s : slots_) {
    if (!s.active || s.window_frames == 0) continue;
    for (int off = 0; off < s.window_frames; ++off) {
      const int f = s.next_frame + off;
      const auto o = static_cast<std::size_t>(off);
      s.session.consume(f, s.preds[o]);
      s.session.record_frame_macro(f, s.frame_workloads[o].macro);
    }
    s.next_frame += s.window_frames;
  }

  // Retire finished sessions (including zero-frame ones).
  bool retired = false;
  for (Slot& s : slots_) {
    if (!s.active || s.next_frame < s.session.frame_count()) continue;
    retire_locked(s);
    retired = true;
  }
  return admitted || !items_.empty() || retired;
}

bool FleetEngine::tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  return tick_locked();
}

void FleetEngine::run_until_idle() {
  for (;;) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool worked = tick_locked();
    if (!worked && active_count_ == 0 && submissions_.size_approx() == 0)
      return;
  }
}

bool FleetEngine::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_count_ == 0 && submissions_.size_approx() == 0;
}

void FleetEngine::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (scheduler_running_) return;
  stop_flag_ = false;
  scheduler_running_ = true;
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

void FleetEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!scheduler_running_) return;
    stop_flag_ = true;
  }
  cv_.notify_all();
  scheduler_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  scheduler_running_ = false;
}

void FleetEngine::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_flag_) {
    const bool worked = tick_locked();
    if (!worked)
      cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

FleetStats FleetEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

QosReport FleetEngine::qos_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  QosReport r = qos_;
  std::sort(r.classes.begin(), r.classes.end(),
            [](const QosClassLedger& a, const QosClassLedger& b) {
              return a.priority > b.priority;
            });
  return r;
}

}  // namespace cimnav::fleet
