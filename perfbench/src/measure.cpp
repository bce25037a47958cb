#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
}

std::string Report::table() const {
  std::ostringstream out;
  for (const Metric& m : metrics_) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-44s %16.6g %-9s n=%-6zu %s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                  m.note.c_str());
    out << line;
  }
  return out.str();
}

std::string Report::json_object() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << format_double(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << '}';
  return out.str();
}

std::int64_t SpanLog::since_origin_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

SpanLog::SpanLog(Clock::time_point origin) : origin_(origin) {
  spans_.reserve(1 << 16);
}

std::uint64_t SpanLog::begin(const char* name, Clock::time_point start,
                             std::uint64_t parent, std::uint64_t request) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, since_origin_ns(start), 0, id, parent, request});
  return id;
}

void SpanLog::end(std::uint64_t id, Clock::time_point end) {
  Span& s = spans_[id - 1];
  s.dur_ns = since_origin_ns(end) - s.start_ns;
}

std::uint64_t SpanLog::add(const char* name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t request) {
  const std::uint64_t id = begin(name, start, parent, request);
  this->end(id, end);
  return id;
}

bool SpanLog::write_chrome_json(const std::string& path,
                                const Report& metrics) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    out << (first ? "" : ",\n");
    first = false;
  };
  for (const Span& s : spans_) {
    sep();
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << format_double(s.start_ns / 1e3)
        << ", \"dur\": " << format_double(s.dur_ns / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n], \"otherData\": " << metrics.json_object() << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
