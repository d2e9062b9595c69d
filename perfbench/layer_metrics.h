#ifndef HATTRICK_PERFBENCH_LAYER_METRICS_H_
#define HATTRICK_PERFBENCH_LAYER_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "hattrick/driver.h"
#include "obs/trace.h"
#include "probe_engine.h"

namespace hattrick {
namespace perfbench {

/// One reported number. `n` is the count of samples or events behind it
/// (0 where none applies); `note` flags a percentile its sample count
/// does not support.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 0;
  std::string note;
};

/// The measured interval on the driver's clock: [warm-up end, run end].
struct Window {
  double from = 0;
  double to = 0;
  bool Contains(double t) const { return t >= from && t <= to; }
};

/// Commits per second in the last fifth of `window` over the first
/// fifth (`commit_times` on the driver's clock). 0 when the first fifth
/// saw no commit.
double SteadyRatio(const std::vector<double>& commit_times, Window window);

/// Per-transaction driver overhead: for every (track, txn_num) with
/// both a driver "txn" span and the probe's "execute_txn" span, the txn
/// span's duration minus the execute_txn span's, in seconds.
Sampler DriverOverhead(const std::vector<obs::Span>& spans);

/// The end-to-end metrics of one untraced repetition (every timing with
/// its sample count). `probe` supplies commit timestamps for
/// tps_steady_ratio.
std::vector<Metric> EndToEndMetrics(const RunMetrics& run,
                                    const ProbeData& probe, Window window,
                                    double setup_s, double heap_kib_per_txn,
                                    double peak_rss_mb);

/// One untraced repetition: its driver metrics and the commit
/// timestamps its probe saw (on that repetition's driver clock).
struct Repetition {
  RunMetrics run;
  std::vector<double> commit_times;
};

/// The end-to-end metrics of a measurement made of several repetitions.
/// Latency percentiles are taken over every repetition's samples
/// together, because one short repetition holds too few queries of each
/// kind for a steady percentile. tps, qps and tps_steady_ratio are the
/// median of the per-repetition values, so that a repetition slowed by a
/// busy host does not move them. Sample counts add up.
std::vector<Metric> RepeatedEndToEndMetrics(
    const std::vector<Repetition>& repetitions, Window window,
    double setup_s, double heap_kib_per_txn, double peak_rss_mb);

/// Inputs of the per-layer metrics of one traced run.
struct LayerInputs {
  const RunMetrics* run = nullptr;   // the traced run's driver metrics
  const ProbeData* probe = nullptr;  // its detailed probe
  Window window;
  bool sharded = false;     // the engine has a shard layer
  double untraced_tps = 0;  // the untraced run of the same seed
  double datagen_s = 0;
  double load_s = 0;
  Sampler driver_overhead;  // DriverOverhead() of the traced run's spans
  double dropped_spans = 0;
};

inline constexpr int kTimelineWindows = 10;

/// The per-layer metrics, named by module (engine, txn, storage, exec,
/// replication, shard, hattrick, obs) followed by the timeline: tps and
/// txn.read p50 / version hops per read in kTimelineWindows equal
/// windows of the measured interval. Rates are over events completing in
/// `window`; counters read from the registry (store.*, shard.2pc.*) and
/// the per-operator profiles cover the whole run, warm-up included.
std::vector<Metric> LayerMetrics(const LayerInputs& in);

}  // namespace perfbench
}  // namespace hattrick

#endif  // HATTRICK_PERFBENCH_LAYER_METRICS_H_
