#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Inclusive linear-interpolation quantile of a sorted, non-empty vector.
double SortedQuantile(const std::vector<double>& s, double q) {
  double pos = q * static_cast<double>(s.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= s.size()) return s.back();
  double frac = pos - static_cast<double>(lo);
  return s[lo] * (1 - frac) + s[lo + 1] * frac;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, 0.5);
}

Quartiles PyQuartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive") with n = 4.
  const long n = 4;
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    long delta = i * m - j * n;
    out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                  v[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

Tail TailPercentile(std::vector<double> v, size_t min_beyond) {
  Tail tail;
  tail.n = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  static constexpr double kLadder[] = {99.9, 99, 95, 90};
  for (double p : kLadder) {
    size_t beyond = static_cast<size_t>(
        std::floor(static_cast<double>(v.size()) * (100.0 - p) / 100.0 + 1e-9));
    if (beyond >= min_beyond) {
      tail.value = SortedQuantile(v, p / 100.0);
      tail.percentile = p;
      tail.beyond = beyond;
      return tail;
    }
  }
  tail.value = v.back();
  tail.percentile = 100;
  tail.beyond = 0;
  return tail;
}

}  // namespace perfbench
