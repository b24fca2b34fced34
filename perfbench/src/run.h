// One benchmark run: set up the workload (several times, for setup_s),
// drive its jobs from this thread for the requested seconds, check
// every output, and reduce what was measured to named metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: untraced jobs only, end-to-end metrics.  true: untraced and
  /// traced jobs interleaved, per-layer metrics.
  bool trace = false;
  /// Smoke-size inputs and a single set-up; results are labelled and
  /// never comparable with full-size ones.
  bool smoke = false;
  /// Spill files of the partial-result stores go under here.
  std::string scratch_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines: per-metric context (sample counts, tail
  /// percentile, quartiles, speed-up), errors, the stamp.
  std::vector<std::string> notes;
  /// One-line JSON describing host, build, seed and workload shape.
  std::string stamp_json;
};

/// Runs the benchmark.  A set-up failure is returned as a failed run
/// with no metrics; job failures and wrong outputs count in `failed`.
RunResult RunBenchmark(const RunOptions& options);

/// The metric names (and units) the benchmark prints, in print order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
