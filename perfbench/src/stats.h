// Summary statistics the benchmark reports: medians and quartiles of a
// run's job times, and the tail percentile rule of the metric method.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median by linear interpolation between order statistics; 0 when
/// `v` is empty.
double Median(std::vector<double> v);

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) gives
/// them (its default "exclusive" method).  A single sample is returned
/// as all three quartiles; an empty sample as zeros.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles PyQuartiles(std::vector<double> v);

/// The highest percentile of the ladder {90, 95, 99, 99.9} that still
/// has at least `min_beyond` samples beyond it.  With too few samples
/// for any rung (fewer than 100 at the default), the maximum is reported
/// as p100 with no samples beyond it: a small sample never claims a
/// tail it lacks, and the reported statistic does not jump between
/// percentiles as the sample count drifts.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t n = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> v, size_t min_beyond = 10);

}  // namespace perfbench
