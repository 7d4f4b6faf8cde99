#include "stats/sentinel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/estimate_plan.h"
#include "metrics/metrics.h"
#include "stats/error_stats.h"

namespace sketchtree {

AccuracySentinel::AccuracySentinel(const SentinelOptions& options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

uint64_t AccuracySentinel::SampleHash(uint64_t value) const {
  // splitmix64 finalizer over the seeded value.
  uint64_t z = value ^ options_.seed;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AccuracySentinel::Observe(uint64_t value, double weight) {
  ++observations_;
  uint64_t h = SampleHash(value);
  auto it = tracked_.find(h);
  if (it != tracked_.end()) {
    // A 64-bit hash collision between distinct values would alias their
    // counters; keep the incumbent and ignore the newcomer instead.
    if (it->second.first == value) it->second.second += weight;
    return;
  }
  if (tracked_.size() < options_.capacity) {
    tracked_.emplace(h, std::make_pair(value, weight));
    ++distinct_admitted_;
    return;
  }
  auto largest = std::prev(tracked_.end());
  if (h < largest->first) {
    // Bottom-K admission: this value's first occurrence (its hash was
    // never below the threshold before, so it cannot have been tracked
    // and evicted). The displaced value's partial count is discarded
    // for good — its hash can never clear the now-tighter threshold.
    tracked_.erase(largest);
    tracked_.emplace(h, std::make_pair(value, weight));
    ++distinct_admitted_;
  }
}

SentinelReport AccuracySentinel::Report(const SketchTree& sketch) const {
  SentinelReport report;
  report.observations = observations_;
  report.distinct_seen = distinct_admitted_;
  report.tracked = tracked_.size();
  report.epsilon = options_.epsilon;
  report.delta = options_.delta;

  std::vector<double> errors;
  for (const auto& [hash, entry] : tracked_) {
    const auto& [value, exact] = entry;
    SentinelSample sample;
    sample.value = value;
    sample.exact = exact;
    sample.estimate =
        ExecuteSum(BuildSumPlan(sketch.streams(), {value}), sketch.streams());
    if (exact > 0.0) {
      sample.relative_error =
          SanityBoundedRelativeError(sample.estimate, exact);
      errors.push_back(sample.relative_error);
    }
    report.samples.push_back(sample);
  }
  std::sort(report.samples.begin(), report.samples.end(),
            [](const SentinelSample& a, const SentinelSample& b) {
              return a.value < b.value;
            });

  report.measured = errors.size();
  if (!errors.empty()) {
    double sum = 0.0;
    size_t within = 0;
    for (double e : errors) {
      sum += e;
      report.max_relative_error = std::max(report.max_relative_error, e);
      if (e <= options_.epsilon) ++within;
    }
    report.mean_relative_error = sum / errors.size();
    size_t mid = errors.size() / 2;
    std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
    if (errors.size() % 2 == 1) {
      report.median_relative_error = errors[mid];
    } else {
      double lower = *std::max_element(errors.begin(), errors.begin() + mid);
      report.median_relative_error = 0.5 * (lower + errors[mid]);
    }
    report.within_epsilon =
        static_cast<double>(within) / static_cast<double>(errors.size());
    report.bound_satisfied =
        report.within_epsilon + 1e-12 >= 1.0 - options_.delta;
  }
  return report;
}

std::string SentinelReport::ToText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "Accuracy sentinel report (epsilon=%.4g, delta=%.4g)\n"
                "  sample            %zu tracked / %llu observations "
                "(%llu admissions)\n",
                epsilon, delta, tracked,
                static_cast<unsigned long long>(observations),
                static_cast<unsigned long long>(distinct_seen));
  out += line;
  std::snprintf(line, sizeof line,
                "  relative error    mean %.4g, median %.4g, max %.4g "
                "over %zu measured patterns\n",
                mean_relative_error, median_relative_error,
                max_relative_error, measured);
  out += line;
  std::snprintf(line, sizeof line,
                "  contract          %.2f%% within epsilon (need >= "
                "%.2f%%): %s\n",
                within_epsilon * 100.0, (1.0 - delta) * 100.0,
                bound_satisfied ? "SATISFIED" : "VIOLATED");
  out += line;
  return out;
}

std::string SentinelReport::ToJson() const {
  std::string out = "{\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "  \"bound_satisfied\": %s,\n"
                "  \"delta\": %.17g,\n"
                "  \"distinct_seen\": %llu,\n"
                "  \"epsilon\": %.17g,\n"
                "  \"max_relative_error\": %.17g,\n"
                "  \"mean_relative_error\": %.17g,\n"
                "  \"measured\": %zu,\n"
                "  \"median_relative_error\": %.17g,\n"
                "  \"observations\": %llu,\n",
                bound_satisfied ? "true" : "false", delta,
                static_cast<unsigned long long>(distinct_seen), epsilon,
                max_relative_error, mean_relative_error, measured,
                median_relative_error,
                static_cast<unsigned long long>(observations));
  out += line;
  out += "  \"samples\": [";
  for (size_t i = 0; i < samples.size(); ++i) {
    const SentinelSample& s = samples[i];
    std::snprintf(line, sizeof line,
                  "%s\n    {\"value\": %llu, \"exact\": %.17g, "
                  "\"estimate\": %.17g, \"relative_error\": %.17g}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(s.value), s.exact,
                  s.estimate, s.relative_error);
    out += line;
  }
  out += samples.empty() ? "],\n" : "\n  ],\n";
  std::snprintf(line, sizeof line,
                "  \"tracked\": %zu,\n"
                "  \"within_epsilon\": %.17g\n}\n",
                tracked, within_epsilon);
  out += line;
  return out;
}

void PublishSentinelMetrics(const SentinelReport& report,
                            MetricsRegistry* registry) {
  auto ppm = [](double fraction) {
    return static_cast<int64_t>(fraction * 1e6);
  };
  registry->GetGauge("sentinel.tracked")
      ->Set(static_cast<int64_t>(report.tracked));
  registry->GetGauge("sentinel.measured")
      ->Set(static_cast<int64_t>(report.measured));
  registry->GetGauge("sentinel.mean_relative_error_ppm")
      ->Set(ppm(report.mean_relative_error));
  registry->GetGauge("sentinel.max_relative_error_ppm")
      ->Set(ppm(report.max_relative_error));
  registry->GetGauge("sentinel.within_epsilon_ppm")
      ->Set(ppm(report.within_epsilon));
  registry->GetGauge("sentinel.bound_satisfied")
      ->Set(report.bound_satisfied ? 1 : 0);
}

}  // namespace sketchtree
