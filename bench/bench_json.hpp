// Minimal benchmark harness with machine-readable output, shared by the
// perf-tracking benches (bench_micro, bench_compute_reuse).
//
// Each measurement auto-calibrates its repetition count to a target batch
// time, runs several batches and reports the median — robust against
// scheduler noise on small containers. Results print as a table and are
// written to BENCH_<suite>.json so the perf trajectory is comparable
// across PRs:
//
//   { "suite": "micro",
//     "results": [ { "name": "...", "threads": 8, "ns_per_op": 123.4,
//                    "ops_per_s": 8.1e6, "items_per_op": 64.0,
//                    "items_per_s": 5.2e8, "items_label": "macs" }, ... ],
//     "summary": { "key": value, ... } }
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cimnav::bench {

struct Result {
  std::string name;
  int threads = 1;
  double ns_per_op = 0.0;
  double ops_per_s = 0.0;
  double items_per_op = 0.0;  // optional throughput unit (MACs, particles)
  std::string items_label;
  std::int64_t iterations = 0;
};

/// Median of a set of timings (the upper one of an even count). Timed
/// sides of a within-run ratio run in alternating rounds and the ratio
/// takes their medians: a CPU-steal spike on a shared host lands on one
/// round, not on one side.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

class Suite {
 public:
  explicit Suite(std::string name) : name_(std::move(name)) {}

  /// Times fn() (one op per call) and records the median-of-batches rate.
  /// items_per_op scales the secondary throughput number (0 = none).
  /// Returns the result by value: results_ grows with every call, so a
  /// reference into it would dangle across subsequent run() calls.
  template <class F>
  Result run(const std::string& name, int threads, double items_per_op,
             const std::string& items_label, F&& fn) {
    using clock = std::chrono::steady_clock;
    fn();  // warmup (first-touch, table init, page faults)

    // Calibrate the per-batch rep count to ~20 ms.
    std::int64_t reps = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::int64_t i = 0; i < reps; ++i) fn();
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count();
      if (ms >= 20.0 || reps >= (std::int64_t{1} << 30)) break;
      reps = ms <= 1.0 ? reps * 16 : static_cast<std::int64_t>(
                                         static_cast<double>(reps) * 24.0 /
                                         ms) +
                                         1;
    }

    constexpr int kBatches = 5;
    std::vector<double> ns(kBatches);
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = clock::now();
      for (std::int64_t i = 0; i < reps; ++i) fn();
      ns[static_cast<std::size_t>(b)] =
          std::chrono::duration<double, std::nano>(clock::now() - t0)
              .count() /
          static_cast<double>(reps);
    }
    std::sort(ns.begin(), ns.end());

    Result r;
    r.name = name;
    r.threads = threads;
    r.ns_per_op = ns[kBatches / 2];
    r.ops_per_s = 1e9 / r.ns_per_op;
    r.items_per_op = items_per_op;
    r.items_label = items_label;
    r.iterations = reps * kBatches;
    results_.push_back(std::move(r));
    const Result& back = results_.back();
    std::printf("%-44s %2d thr  %12.1f ns/op  %11.3e ops/s", back.name.c_str(),
                back.threads, back.ns_per_op, back.ops_per_s);
    if (items_per_op > 0.0)
      std::printf("  %11.3e %s/s", back.ops_per_s * items_per_op,
                  items_label.c_str());
    std::printf("\n");
    std::fflush(stdout);
    return back;
  }

  void add_summary(const std::string& key, double value) {
    summary_.emplace_back(key, value);
  }

  /// Writes BENCH_<suite>.json into the current working directory.
  bool write_json() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"results\": [\n",
                 name_.c_str());
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"threads\": %d, "
                   "\"ns_per_op\": %.3f, \"ops_per_s\": %.6e, "
                   "\"items_per_op\": %.3f, \"items_per_s\": %.6e, "
                   "\"items_label\": \"%s\", \"iterations\": %lld}%s\n",
                   r.name.c_str(), r.threads, r.ns_per_op, r.ops_per_s,
                   r.items_per_op, r.ops_per_s * r.items_per_op,
                   r.items_label.c_str(),
                   static_cast<long long>(r.iterations),
                   i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"summary\": {");
    for (std::size_t i = 0; i < summary_.size(); ++i)
      std::fprintf(f, "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                   summary_[i].first.c_str(), summary_[i].second);
    std::fprintf(f, "}\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

  const std::vector<Result>& results() const { return results_; }

 private:
  std::string name_;
  std::vector<Result> results_;
  std::vector<std::pair<std::string, double>> summary_;
};

}  // namespace cimnav::bench
