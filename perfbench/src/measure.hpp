// Measurement helpers of the closed-loop benchmark: wall and CPU clocks,
// order statistics, peak memory, the metric report (human table plus the
// one-line JSON result) and an in-memory span log written out as Chrome
// trace-event JSON when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU time of the whole process [s] (getrusage).
double process_cpu_s();

/// Peak resident set size of the process [MiB] (getrusage ru_maxrss).
double peak_rss_mb();

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> v);

/// Linearly interpolated percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q);

/// One reported number with its unit and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< where the number comes from (printed, not JSON)
};

/// Ordered metric set with the two output forms the benchmark prints.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = {});
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One "name value unit [n=samples] note" line per metric.
  std::string table() const;
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string json_object() const;

 private:
  std::vector<Metric> metrics_;
};

/// Closed set of spans recorded around calls into the program's layers.
/// Spans are appended in memory only (nothing is written while timing)
/// and exported with write_chrome_json once the run is over.
class SpanLog {
 public:
  /// Capacity is reserved up front so recording rarely allocates.
  explicit SpanLog(Clock::time_point origin);

  /// Opens a span and returns its id (ids start at 1). Spans of one
  /// session share `request`; `parent` is the id of the causing span
  /// (0 = none). `name` must be a string literal.
  std::uint64_t begin(const char* name, Clock::time_point start,
                      std::uint64_t parent = 0, std::uint64_t request = 0);
  /// Closes span `id` at `end`.
  void end(std::uint64_t id, Clock::time_point end);
  /// begin + end for a span whose bounds are already known.
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0);

  /// Writes the spans, plus `metrics` as trailing metadata.
  /// Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path, const Report& metrics) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
  };
  std::int64_t since_origin_ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Shortest decimal text that reads back as exactly `v`.
std::string format_double(double v);

}  // namespace perfbench
