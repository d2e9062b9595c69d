#include "stats.h"

#include <cmath>

namespace hattrick {
namespace perfbench {

bool PercentileSupported(double p, size_t n) {
  // Ten samples beyond p: n * (1 - p/100) >= 10, in exact integer form
  // for the reported percentiles (p is a multiple of 0.1).
  const long long tenths_beyond = 1000 - std::llround(p * 10);
  return static_cast<long long>(n) * tenths_beyond >= 10 * 1000;
}

double HighestSupportedPercentile(size_t n) {
  static constexpr double kReported[] = {99.9, 99, 95, 90, 50};
  for (double p : kReported) {
    if (PercentileSupported(p, n)) return p;
  }
  return 0;
}

double Ratio(double num, double base) { return base == 0 ? 0 : num / base; }

Timing MakeTiming(const Sampler& samples, double p, double scale) {
  Timing timing;
  timing.value = samples.Percentile(p / 100.0) * scale;
  timing.n = samples.count();
  timing.percentile = p;
  timing.supported = PercentileSupported(p, samples.count());
  return timing;
}

}  // namespace perfbench
}  // namespace hattrick
