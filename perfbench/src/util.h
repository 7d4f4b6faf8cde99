// Small helpers shared by the perfbench tool's subcommands.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/sketch_tree.h"

namespace perfbench {

/// Seconds on the monotonic clock (CLOCK_MONOTONIC, the same clock as
/// Python's time.monotonic()), so timestamps compare across processes.
inline double MonoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the same clock, for span timing.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(1);
}

/// --name value arguments after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string name = argv[i];
      if (name.rfind("--", 0) != 0) Die("bad argument " + name);
      values_[name.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) Die("flags come in --name value pairs");
  }
  std::string Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) Die("missing --" + name);
    return it->second;
  }
  std::string Str(const std::string& name, const std::string& def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }
  long Long(const std::string& name) const {
    return std::atol(Str(name).c_str());
  }
  long Long(const std::string& name, long def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }
  double Double(const std::string& name) const {
    return std::atof(Str(name).c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One query of a query file, whose lines are `op<TAB>text<TAB>exact
/// count` (run.py reads the count).
struct QueryLine {
  std::string op;
  std::string text;
};

inline std::vector<QueryLine> ReadQueries(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<QueryLine> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) Die("bad query line: " + line);
    size_t end = line.find('\t', tab + 1);
    out.push_back({line.substr(0, tab), line.substr(tab + 1, end - tab - 1)});
  }
  return out;
}

/// The CLI's defaults for build and serve (tools/sketchtree_cli.cc), with
/// the top-k size the workload passes as --topk.
inline sketchtree::SketchTreeOptions CliOptions(size_t topk) {
  sketchtree::SketchTreeOptions options;
  options.max_pattern_edges = 4;
  options.s1 = 50;
  options.s2 = 7;
  options.num_virtual_streams = 229;
  options.topk_size = topk;
  options.seed = 42;
  return options;
}

/// Median of a sample (mean of the two middle values when even).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in [0, 1] of a sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Writes a flat JSON object of numbers to stdout on one line.
inline void PrintJson(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < kv.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", kv[i].second);
    out += (i ? ",\"" : "\"") + kv[i].first + "\":" + buf;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
