#ifndef HATTRICK_PERFBENCH_STATS_H_
#define HATTRICK_PERFBENCH_STATS_H_

#include <cstddef>

#include "common/histogram.h"

namespace hattrick {
namespace perfbench {

/// The highest of the reported percentiles (50, 90, 95, 99, 99.9) that
/// has at least ten samples beyond it, i.e. n * (1 - p/100) >= 10.
/// Returns 0 when even the median lacks ten samples above it (n < 20).
double HighestSupportedPercentile(size_t n);

/// True when `p` has at least ten of `n` samples beyond it.
bool PercentileSupported(double p, size_t n);

/// `num / base`, or 0 when the base is 0 (a ratio over nothing reads as
/// zero rather than NaN, so a workload without that layer prints 0).
double Ratio(double num, double base);

/// A latency reported by the benchmark: a percentile, with the sample
/// count it came from and whether the count supports it.
struct Timing {
  double value = 0;
  size_t n = 0;
  double percentile = 50;
  bool supported = false;
};

/// Nearest-rank percentile `p` (in [0, 100]) of `samples`, scaled by
/// `scale` (e.g. 1e3 for s -> ms).
Timing MakeTiming(const Sampler& samples, double p, double scale);

}  // namespace perfbench
}  // namespace hattrick

#endif  // HATTRICK_PERFBENCH_STATS_H_
