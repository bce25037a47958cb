#!/usr/bin/env python3
"""Perf-trajectory gate: compare freshly emitted BENCH_*.json against the
committed baselines and fail on regressions of tracked metrics.

Only *summary* metrics are tracked, and almost all of them are within-run
ratios (speedups) or deterministic workload counts (word-line pulses), so
they are comparable across machines of different absolute speed. Raw
ns/op results are reported but never gated — they are meaningless across
heterogeneous CI hosts.

The closed-loop suite metrics (BENCH_closed_loop.json) are trajectory
statistics averaged over scenarios and seeds — deterministic given the
binary, stable within the threshold across toolchains.

Usage:
  scripts/bench_diff.py [--baseline-dir bench/baselines] [--current-dir .]
                        [--threshold 0.20]

Exit status 1 when any tracked metric regresses by more than the
threshold (default 20%, the CI gate from the ROADMAP).
"""

import argparse
import json
import os
import sys

# metric -> direction:
#   "higher" : larger is better (speedups, savings); fail on a drop
#   "lower"  : smaller is better (workload counts); fail on a rise
#   "stable" : a deterministic quantity; fail on drift either way
TRACKED = {
    "BENCH_micro.json": {
        "mc_predict_speedup_1t_vs_seed": "higher",
        "mc_predict_speedup_8t_vs_seed": "higher",
        # Noisy 128x128 dense read, shipped column kernel (AVX2 where the
        # CPU has it) over the scalar draw-sequential kernel: median of
        # alternating rounds (within-run ratio).
        "column_kernel_speedup_vs_scalar": "higher",
        "mc_predict_macs_per_pred": "stable",
        # SoA particle engine vs the seed AoS path, 100k cloud, single
        # thread (within-run ratios -> machine-portable).
        "particle_filter_100k_update_speedup_vs_aos": "higher",
        "particle_filter_100k_resample_speedup_vs_aos": "higher",
        "particle_filter_100k_cycle_speedup_vs_aos": "higher",
        # PR acceptance flags: cycle speedup >= 1.2x, and the steady-state
        # update+resample cycle performs zero heap allocations (measured
        # on the filter's arena/pool counters). Exact-match gated.
        "particle_filter_100k_speedup_criterion_met": "stable",
        "particle_filter_100k_zero_alloc_cycle": "stable",
        # The pooled DeltaItem batch (compute-reuse dispatch shape) must
        # keep producing the serial item loop's bits on a 128x128 macro.
        "delta_batch_pooled_bit_identity": "stable",
        # One filter update of CIM likelihood reads (500 poses x 80 px x
        # 500 columns, single thread): shared ideal currents per distinct
        # DAC code triple vs the default per-pose path, median of
        # alternating rounds (within-run ratio).
        "likelihood_update_shared_speedup_vs_per_pose": "higher",
        # A 36-frame corridor_dropout flight of shared updates, first
        # flight from a cold ideal-current cache: ideal currents computed
        # per logical read (serial and seeded, so deterministic). It rises
        # when the cache keeps fewer currents across updates.
        "likelihood_update_sequence_computed_fraction": "lower",
        # Conformance sweep embedded in bench_micro (quick tier): the case
        # table must not shrink, and every case must pass (EQUAL below).
        "conformance_cases_passed": "higher",
        "conformance_cases_total": "stable",
    },
    "BENCH_compute_reuse.json": {
        "wordline_pulses_dense": "lower",
        "wordline_pulses_reuse": "lower",
        "wordline_pulses_reuse_order": "lower",
        "reuse_saving": "higher",
        # Reuse wall clock over the dense engine at T=30 (within-run
        # ratio). PR acceptance: <= 1.0 — reuse must not be slower.
        "reuse_wallclock_ratio": "lower",
        # 8 lock-step single-frame reuse jobs sharing one pooled
        # dispatch set: deterministic batched-job count (8.0).
        "pooled_reuse_dispatch_ratio": "stable",
    },
    "BENCH_closed_loop.json": {
        # The determinism probe must stay exactly 1 (any drift fails).
        "closed_loop_bit_identity": "stable",
        # Suite coverage: dropping a registered scenario is a regression.
        "scenario_count": "stable",
        # Closed-loop tracking relative to the ground-truth-fed baseline,
        # averaged over scenarios and run seeds (chaotic per seed; the
        # mean is the stable quantity).
        "closed_over_open_rmse_mean": "stable",
        # Variance inflation must keep visibly widening the belief.
        "closed_spread_inflation_mean": "higher",
    },
    "BENCH_wakeup.json": {
        # "always" through the policy layer must stay bit-identical to
        # the serial pre-policy loop at every pool size / window.
        "wakeup_always_bit_identity": "stable",
        # Suite coverage: scenarios x policies swept.
        "scenario_count": "stable",
        "policy_count": "stable",
        # Measured CIM likelihood-energy savings of the gated policies
        # (evaluation-counter deltas priced per read), averaged over
        # scenarios — dropping these is losing the point of the PR.
        "sigma_gate_mean_lik_savings": "higher",
        "decimate_mean_lik_savings": "higher",
        # The accuracy cost of the savings must stay bounded.
        "sigma_gate_rmse_vs_always_mean": "stable",
        "decimate_rmse_vs_always_mean": "stable",
        # >= 25% savings at <= 1.10x RMSE on at least one scenario.
        "savings_criterion_met": "stable",
    },
    "BENCH_fleet.json": {
        # Every fleet session must stay bit-identical to its standalone
        # run_odometry_loop (any drift fails).
        "fleet_bit_identity": "stable",
        # Cross-session batching: deterministic layer-dispatch counts,
        # serial-equivalent over pooled. 8 lock-step sessions -> 8.0.
        "fleet_dispatch_ratio_8s": "higher",
        # PR acceptance flag: dispatch ratio >= 4x at 8 sessions.
        "fleet_dispatch_criterion_met": "stable",
        # Scheduler overhead as a within-run wall-time ratio (fleet vs
        # the same 8 sessions run serially, both single-threaded, median
        # of alternating rounds) — the only portable timing quantity; raw
        # multicore speedups are deliberately NOT tracked.
        "fleet_over_serial_runtime_ratio": "lower",
        # Steady-state admit -> run -> retire must not touch the heap.
        "fleet_zero_steady_state_alloc": "stable",
        # Reuse tenants: 8 lock-step compute-reuse sessions must batch
        # through the same pooled dispatch sets (no frame-serial
        # fallback), hold the >= 4x gate, stay bit-identical to their
        # standalone runs, and keep the warmed reuse path off the heap.
        "fleet_reuse_bit_identity": "stable",
        "fleet_reuse_dispatch_ratio_8s": "higher",
        "fleet_reuse_dispatch_criterion_met": "stable",
        "fleet_reuse_zero_steady_state_alloc": "stable",
        # KLD-adaptive particle cost: fraction of the configured
        # kidnapped_drone cloud the adaptive session sheds.
        "fleet_kld_particle_savings": "higher",
        # QoS sweep (6 tenants, 2-seat working set, synthetic 3x
        # overload): deterministic tick-count fractions and dispatch
        # ledger ratios — portable like every other fleet gate. Every
        # session must stay bit-identical to standalone under every
        # admission policy.
        "fleet_qos_bit_identity": "stable",
        # Dropping a registered admission policy from the sweep is a
        # regression.
        "fleet_qos_policy_count": "stable",
        # Deadline-hit fractions: fifo is the 2/3 baseline the smarter
        # policies must beat; priority (strict classes + round-robin)
        # and EDF must keep their edge.
        "fleet_qos_fifo_at_target_fraction": "stable",
        "fleet_qos_priority_at_target_fraction": "higher",
        "fleet_qos_deadline_at_target_fraction": "higher",
        # Per-policy batching ratios from the dispatch ledger: a 2-seat
        # working set batches 2 sessions per tick.
        "fleet_qos_fifo_dispatch_ratio": "stable",
        "fleet_qos_priority_dispatch_ratio": "stable",
        "fleet_qos_deadline_dispatch_ratio": "stable",
    },
}

# Pairs of fresh summary metrics that must be exactly equal.
EQUAL = {
    "BENCH_micro.json": [
        ("conformance_cases_passed", "conformance_cases_total"),
    ],
}


def load_summary(path):
    with open(path) as f:
        return json.load(f).get("summary", {})


def relative_regression(direction, base, cur):
    """Fractional regression of `cur` vs `base` (positive = worse)."""
    if base == 0:
        return 0.0
    if direction == "higher":
        return (base - cur) / abs(base)
    if direction == "lower":
        return (cur - base) / abs(base)
    return abs(cur - base) / abs(base)  # stable


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--threshold", type=float, default=0.20)
    args = ap.parse_args()

    failures = []
    checked = 0
    for fname, metrics in TRACKED.items():
        base_path = os.path.join(args.baseline_dir, fname)
        cur_path = os.path.join(args.current_dir, fname)
        if not os.path.exists(base_path):
            print(f"[bench_diff] no baseline {base_path}; skipping "
                  f"(commit one to start gating)")
            continue
        if not os.path.exists(cur_path):
            failures.append(f"{fname}: fresh results missing at {cur_path}")
            continue
        base = load_summary(base_path)
        cur = load_summary(cur_path)
        for metric, direction in metrics.items():
            if metric not in base:
                print(f"[bench_diff] {fname}:{metric} not in baseline; "
                      f"skipping (refresh the baseline to start gating it)")
                continue
            if metric not in cur:
                failures.append(f"{fname}: tracked metric '{metric}' "
                                f"missing from fresh results")
                continue
            checked += 1
            reg = relative_regression(direction, base[metric], cur[metric])
            status = "FAIL" if reg > args.threshold else "ok"
            print(f"[bench_diff] {status:4s} {fname}:{metric} ({direction}) "
                  f"baseline {base[metric]:.4f} -> current {cur[metric]:.4f} "
                  f"({reg:+.1%} regression)")
            if reg > args.threshold:
                failures.append(
                    f"{fname}: {metric} regressed {reg:.1%} "
                    f"({base[metric]:.4f} -> {cur[metric]:.4f}, "
                    f"threshold {args.threshold:.0%})")

    for fname, pairs in EQUAL.items():
        cur_path = os.path.join(args.current_dir, fname)
        if not os.path.exists(cur_path):
            continue  # already reported missing above
        cur = load_summary(cur_path)
        for a, b in pairs:
            checked += 1
            if a not in cur or b not in cur or cur[a] != cur[b]:
                failures.append(f"{fname}: {a} = {cur.get(a)} must equal "
                                f"{b} = {cur.get(b)}")

    print(f"[bench_diff] {checked} tracked metrics checked, "
          f"{len(failures)} failure(s)")
    for f in failures:
        print(f"[bench_diff] FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
