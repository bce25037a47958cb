// Scheduler property tests for the fleet QoS layer (fleet/qos.hpp):
//
//   * "fifo" with an unbounded working set is tick-for-tick identical
//     to the pre-QoS scheduler on a recorded dispatch ledger —
//     every runnable session scheduled every tick, lock-step windows;
//   * "fifo" with a bounded working set serves oldest admissions first;
//   * "priority" never schedules a lower class while a higher class is
//     runnable (strictness), and round-robins within a class;
//   * "deadline" dispatch is EDF-consistent at every tick;
//   * the starvation guard force-includes overdue sessions under any
//     policy;
//   * per-session records and the fleet QosReport satisfy their
//     accounting identities (ticks_to_completion = scheduled + queued,
//     report sums = sum of records).
//
// The randomized cross-policy campaigns live in test_fleet_fuzz.cpp;
// here each property gets a small deterministic workload shaped to
// exercise it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "vo/pipeline.hpp"

namespace cimnav {
namespace {

/// Borrowed workload stack shared by every property (VO training
/// dominates; sizes are shrunk until a session runs in milliseconds).
struct QosWorkload {
  std::unique_ptr<filter::LocalizationScenario> scenario;
  std::unique_ptr<vo::VoPipeline> vo;
  std::unique_ptr<nn::CimMlp> net;
  std::unique_ptr<filter::MeasurementModel> model;
};

const QosWorkload& qos_workload() {
  static const QosWorkload* w = [] {
    auto* out = new QosWorkload;
    filter::ScenarioConfig cfg =
        filter::make_scenario_config("corridor_dropout");
    cfg.trajectory_steps = 4;
    cfg.map_cloud_points = 500;
    cfg.mixture_components = 8;
    cfg.scan_pixels = 24;
    cfg.filter.particle_count = 40;
    cfg.cim_columns = 80;
    out->scenario = std::make_unique<filter::LocalizationScenario>(cfg);
    out->model = out->scenario->make_cim_backend();

    vo::VoPipelineConfig vo_cfg;
    vo_cfg.landmark_count = 6;
    vo_cfg.hidden_sizes = {16, 8};
    vo_cfg.train_samples = 300;
    vo_cfg.train.epochs = 10;
    vo_cfg.test_steps = 4;
    out->vo = std::make_unique<vo::VoPipeline>(vo_cfg);
    cimsram::CimMacroConfig macro;
    macro.input_bits = 6;
    macro.weight_bits = 6;
    macro.adc_bits = 6;
    out->net = out->vo->make_cim_network(macro);
    return out;
  }();
  return *w;
}

vo::ClosedLoopConfig small_loop(std::uint64_t run_seed) {
  vo::ClosedLoopConfig loop;
  loop.mc.iterations = 3;
  loop.mc.dropout_p = 0.2;
  loop.run_seed = run_seed;
  return loop;
}

std::size_t register_workload(fleet::FleetEngine& engine) {
  const auto& w = qos_workload();
  return engine.add_workload(*w.scenario, *w.vo, *w.net, *w.model);
}

/// Trace rows grouped by tick, preserving within-tick (slot) order.
std::map<std::uint64_t, std::vector<fleet::DispatchEvent>> by_tick(
    const std::vector<fleet::DispatchEvent>& trace) {
  std::map<std::uint64_t, std::vector<fleet::DispatchEvent>> out;
  for (const fleet::DispatchEvent& e : trace) out[e.tick].push_back(e);
  return out;
}

/// First and last tick each admit_seq was *scheduled*.
struct Span {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};
std::map<std::uint64_t, Span> scheduled_spans(
    const std::vector<fleet::DispatchEvent>& trace) {
  std::map<std::uint64_t, Span> out;
  for (const fleet::DispatchEvent& e : trace) {
    if (!e.scheduled) continue;
    auto [it, fresh] = out.try_emplace(e.admit_seq, Span{e.tick, e.tick});
    if (!fresh) it->second.last = e.tick;
  }
  return out;
}

TEST(FleetQos, FifoUnboundedMatchesPreQosSchedulerTickForTick) {
  fleet::FleetConfig cfg;  // admission "fifo", working_set 0 — defaults
  cfg.window = 1;
  cfg.record_dispatch = true;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 4; ++i) {
    handles.push_back(engine.try_submit({wl, small_loop(40 + i), {}}));
    ASSERT_TRUE(handles.back().valid());
  }
  engine.run_until_idle();

  // The PR 7 scheduler's ledger: all four sessions admitted on tick 1,
  // every one scheduled every tick, lock-step for ceil(4/1) = 4 ticks.
  const auto ticks = by_tick(engine.dispatch_trace());
  ASSERT_EQ(ticks.size(), 4u);
  for (const auto& [tick, events] : ticks) {
    ASSERT_EQ(events.size(), 4u) << "tick " << tick;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(events[i].scheduled)
          << "fifo/unbounded must schedule every runnable session";
      EXPECT_FALSE(events[i].starvation_override);
      // Within-tick order is slot order = admission order here.
      EXPECT_EQ(events[i].admit_seq, i + 1);
    }
  }
  // No session ever queued, so the QoS ledger shows a full-batch fleet.
  const fleet::QosReport report = engine.qos_report();
  EXPECT_EQ(report.admission, "fifo");
  EXPECT_EQ(report.queue_ticks, 0u);
  EXPECT_EQ(report.starvation_overrides, 0u);
  for (const auto& h : handles) {
    EXPECT_EQ(h.qos().queue_ticks, 0u);
    EXPECT_EQ(h.qos().scheduled_ticks, 4u);
    EXPECT_EQ(h.qos().ticks_to_completion, 4u);
  }
}

TEST(FleetQos, FifoBoundedServesOldestAdmissionsFirst) {
  fleet::FleetConfig cfg;
  cfg.window = 2;
  cfg.working_set = 1;
  cfg.record_dispatch = true;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 3; ++i)
    handles.push_back(engine.try_submit({wl, small_loop(50 + i), {}}));
  engine.run_until_idle();

  // One seat, oldest first: session k+1 is never scheduled before
  // session k has fully finished.
  const auto spans = scheduled_spans(engine.dispatch_trace());
  ASSERT_EQ(spans.size(), 3u);
  for (std::uint64_t seq = 1; seq < 3; ++seq)
    EXPECT_GT(spans.at(seq + 1).first, spans.at(seq).last)
        << "fifo must drain admission " << seq << " before " << seq + 1;
  // ticks_to_completion stacks: 2, 4, 6 ticks (2 scheduled each).
  for (std::uint64_t i = 0; i < 3; ++i) {
    const fleet::SessionQosRecord& q = handles[i].qos();
    EXPECT_EQ(q.scheduled_ticks, 2u);
    EXPECT_EQ(q.queue_ticks, 2 * i);
    EXPECT_EQ(q.ticks_to_completion, 2 * (i + 1));
  }
}

TEST(FleetQos, PriorityIsStrictAndRoundRobinsWithinClass) {
  fleet::FleetConfig cfg;
  cfg.admission = "priority";
  cfg.window = 1;
  cfg.working_set = 1;
  cfg.starvation_bound_ticks = 1000;  // keep the guard out of this one
  cfg.record_dispatch = true;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  // Two high-class sessions, one mid, one low — all runnable at once.
  const int priorities[] = {5, 5, 2, 0};
  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 4; ++i) {
    fleet::SessionSpec spec{wl, small_loop(60 + i), {}};
    spec.qos.priority = priorities[i];
    handles.push_back(engine.try_submit(spec));
  }
  engine.run_until_idle();

  // Strictness: at every tick, nothing scheduled while a strictly
  // higher class sits unscheduled.
  for (const auto& [tick, events] : by_tick(engine.dispatch_trace())) {
    int min_scheduled = std::numeric_limits<int>::max();
    int max_queued = std::numeric_limits<int>::min();
    for (const fleet::DispatchEvent& e : events)
      (e.scheduled ? min_scheduled : max_queued) =
          e.scheduled ? std::min(min_scheduled, e.priority)
                      : std::max(max_queued, e.priority);
    if (min_scheduled != std::numeric_limits<int>::max() &&
        max_queued != std::numeric_limits<int>::min()) {
      EXPECT_GE(min_scheduled, max_queued) << "tick " << tick;
    }
  }

  // Round-robin within class 5: the single seat alternates between the
  // two class-5 sessions while both are runnable (8 ticks, 4 frames
  // each at window 1).
  std::vector<std::uint64_t> class5_order;
  for (const fleet::DispatchEvent& e : engine.dispatch_trace())
    if (e.scheduled && e.priority == 5) class5_order.push_back(e.admit_seq);
  ASSERT_EQ(class5_order.size(), 8u);
  for (std::size_t i = 1; i < class5_order.size(); ++i)
    EXPECT_NE(class5_order[i], class5_order[i - 1])
        << "least-recently-scheduled must alternate equal classes";

  // Whole classes drain in order: 5s fully before 2, 2 before 0.
  const auto spans = scheduled_spans(engine.dispatch_trace());
  EXPECT_GT(spans.at(3).first,
            std::max(spans.at(1).last, spans.at(2).last));
  EXPECT_GT(spans.at(4).first, spans.at(3).last);
}

TEST(FleetQos, DeadlineDispatchIsEdfConsistent) {
  fleet::FleetConfig cfg;
  cfg.admission = "deadline";
  cfg.window = 2;
  cfg.working_set = 1;
  cfg.starvation_bound_ticks = 1000;
  cfg.record_dispatch = true;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  // Targets out of submission order, plus one deadline-free session.
  const int targets[] = {12, 2, 6, 0};
  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 4; ++i) {
    fleet::SessionSpec spec{wl, small_loop(70 + i), {}};
    spec.qos.target_latency_ticks = targets[i];
    handles.push_back(engine.try_submit(spec));
  }
  engine.run_until_idle();

  // EDF at every tick: the scheduled session's deadline is <= every
  // queued session's (no-deadline counts as +inf).
  const auto eff = [](const fleet::DispatchEvent& e) {
    return e.deadline_tick < 0 ? std::numeric_limits<std::int64_t>::max()
                               : e.deadline_tick;
  };
  for (const auto& [tick, events] : by_tick(engine.dispatch_trace())) {
    std::int64_t scheduled_deadline = std::numeric_limits<std::int64_t>::max();
    for (const fleet::DispatchEvent& e : events)
      if (e.scheduled) scheduled_deadline = eff(e);
    for (const fleet::DispatchEvent& e : events) {
      if (!e.scheduled) {
        EXPECT_LE(scheduled_deadline, eff(e)) << "tick " << tick;
      }
    }
  }

  // The tight target (2 ticks, first in line under EDF) is met; the
  // deadline-free session runs last and scores no hit or miss.
  EXPECT_TRUE(handles[1].qos().deadline_hit);
  EXPECT_FALSE(handles[3].qos().had_deadline);
  const fleet::QosReport report = engine.qos_report();
  EXPECT_EQ(report.deadline_sessions, 3u);
  EXPECT_EQ(report.sessions_at_target_latency + report.deadline_misses, 3u);
  const auto spans = scheduled_spans(engine.dispatch_trace());
  EXPECT_EQ(spans.at(4).first, 7u)  // 3 sessions x 2 ticks drained first
      << "the deadline-free session must wait for every deadline";
}

TEST(FleetQos, StarvationGuardForcesOverdueSessionsUnderAnyPolicy) {
  fleet::FleetConfig cfg;
  cfg.admission = "priority";
  cfg.window = 1;
  cfg.working_set = 1;
  cfg.starvation_bound_ticks = 3;
  cfg.record_dispatch = true;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  // Two high-priority 4-frame sessions monopolize the single seat for
  // 8 ticks; the low-priority one would wait 8 ticks unaided, so the
  // guard must fire at 3 consecutive pass-overs.
  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 2; ++i) {
    fleet::SessionSpec spec{wl, small_loop(80 + i), {}};
    spec.qos.priority = 9;
    handles.push_back(engine.try_submit(spec));
  }
  fleet::SessionSpec low{wl, small_loop(89), {}};
  low.qos.priority = 0;
  handles.push_back(engine.try_submit(low));
  engine.run_until_idle();

  const fleet::QosReport report = engine.qos_report();
  EXPECT_GT(report.starvation_overrides, 0u);
  bool saw_override = false;
  for (const fleet::DispatchEvent& e : engine.dispatch_trace())
    if (e.starvation_override) {
      saw_override = true;
      EXPECT_EQ(e.admit_seq, 3u) << "only the low session should starve";
      EXPECT_TRUE(e.scheduled);
    }
  EXPECT_TRUE(saw_override);
  // Guard cadence: the low session never waits longer than the bound.
  EXPECT_LE(handles[2].qos().ticks_to_completion, 4u * (3 + 1));
  for (const auto& h : handles) EXPECT_TRUE(h.poll());
}

TEST(FleetQos, RecordsAndReportSatisfyAccountingIdentities) {
  fleet::FleetConfig cfg;
  cfg.admission = "deadline";
  cfg.window = 2;
  cfg.working_set = 2;
  fleet::FleetEngine engine(cfg);
  const std::size_t wl = register_workload(engine);

  std::vector<fleet::SessionHandle> handles;
  for (std::uint64_t i = 0; i < 5; ++i) {
    fleet::SessionSpec spec{wl, small_loop(100 + i), {}};
    spec.qos.priority = static_cast<int>(i % 2);
    spec.qos.target_latency_ticks = (i % 2 == 0) ? 4 : 0;
    handles.push_back(engine.try_submit(spec));
  }
  engine.run_until_idle();

  std::uint64_t queue_sum = 0, hits = 0, misses = 0, with_deadline = 0;
  std::uint64_t max_queue = 0;
  for (const auto& h : handles) {
    const fleet::SessionQosRecord& q = h.qos();
    // The core identity: every runnable tick is either scheduled or
    // queued, and the span matches.
    EXPECT_EQ(q.ticks_to_completion, q.scheduled_ticks + q.queue_ticks);
    EXPECT_EQ(q.ticks_to_completion, q.complete_tick - q.admit_tick + 1);
    if (q.had_deadline) {
      ++with_deadline;
      const bool within =
          q.ticks_to_completion <=
          static_cast<std::uint64_t>(q.spec.target_latency_ticks);
      EXPECT_EQ(q.deadline_hit, within);
      q.deadline_hit ? ++hits : ++misses;
    } else {
      EXPECT_FALSE(q.deadline_hit);
    }
    queue_sum += q.queue_ticks;
    max_queue = std::max(max_queue, q.queue_ticks);
  }
  const fleet::QosReport report = engine.qos_report();
  EXPECT_EQ(report.deadline_sessions, with_deadline);
  EXPECT_EQ(report.sessions_at_target_latency, hits);
  EXPECT_EQ(report.deadline_misses, misses);
  EXPECT_EQ(report.queue_ticks, queue_sum);
  EXPECT_EQ(report.max_queue_ticks, max_queue);
  // Class ledger partitions the fleet: per-class sums equal the totals.
  std::uint64_t class_sessions = 0, class_queue = 0;
  for (const fleet::QosClassLedger& c : report.classes) {
    class_sessions += c.sessions_completed;
    class_queue += c.queue_ticks;
  }
  EXPECT_EQ(class_sessions, 5u);
  EXPECT_EQ(class_queue, queue_sum);
  // Classes come back sorted by priority, descending.
  for (std::size_t i = 1; i < report.classes.size(); ++i)
    EXPECT_GT(report.classes[i - 1].priority, report.classes[i].priority);
}

TEST(FleetQos, ErrorPathsMatchRegistryAndHandleContracts) {
  // Unknown admission policy fails at engine construction, listing the
  // registered names (the registry contract, same as the other seams).
  fleet::FleetConfig cfg;
  cfg.admission = "no_such_admission";
  EXPECT_THROW(fleet::FleetEngine{cfg}, std::invalid_argument);

  // qos() before completion (and on invalid handles) throws.
  fleet::FleetConfig ok;
  fleet::FleetEngine engine(ok);
  const std::size_t wl = register_workload(engine);
  auto handle = engine.try_submit({wl, small_loop(110), {}});
  ASSERT_TRUE(handle.valid());
  EXPECT_THROW(handle.qos(), std::invalid_argument);
  engine.run_until_idle();
  EXPECT_NO_THROW(handle.qos());
  fleet::SessionHandle invalid;
  EXPECT_THROW(invalid.qos(), std::invalid_argument);

  // A negative latency target is a caller bug, rejected at submission.
  fleet::SessionSpec bad_latency{wl, small_loop(111), {}};
  bad_latency.qos.target_latency_ticks = -1;
  EXPECT_THROW(engine.try_submit(bad_latency), std::invalid_argument);
}

}  // namespace
}  // namespace cimnav
