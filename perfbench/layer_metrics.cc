#include "layer_metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "stats.h"

namespace hattrick {
namespace perfbench {

namespace {

std::string PercentileLabel(double p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

Metric TimingMetric(const std::string& name, const Sampler& samples, double p,
                    double scale, const std::string& unit) {
  const Timing t = MakeTiming(samples, p, scale);
  Metric metric{name, t.value, unit, t.n, ""};
  if (!t.supported) {
    const double best = HighestSupportedPercentile(t.n);
    metric.note = PercentileLabel(p) + " has <10 samples beyond it; " +
                  (best > 0 ? "highest supported is " + PercentileLabel(best)
                            : "no percentile is supported");
  }
  return metric;
}

/// Profile operator name -> metric key (exec.<key>.self_s). The SSB
/// plans at dop 1 contain no Filter, Project, OrderBy or GatherMerge node
/// (scans evaluate the predicates), so those operators get no metric.
const char* OperatorKey(const std::string& op) {
  static const std::map<std::string, const char*> kKeys = {
      {"ColumnScan", "column_scan"},
      {"RowScan", "row_scan"},
      {"IndexScan", "index_scan"},
      {"HashJoin", "hash_join"},
      {"HashAggregate", "hash_aggregate"},
      {"PartialHashAggregate", "hash_aggregate"},
  };
  const auto it = kKeys.find(op);
  return it == kKeys.end() ? nullptr : it->second;
}

constexpr const char* kOperatorKeys[] = {
    "column_scan", "row_scan", "index_scan", "hash_join", "hash_aggregate",
};

}  // namespace

double SteadyRatio(const std::vector<double>& commit_times, Window window) {
  const double fifth = (window.to - window.from) / 5;
  uint64_t first = 0;
  uint64_t last = 0;
  for (double t : commit_times) {
    if (!window.Contains(t)) continue;
    if (t < window.from + fifth) ++first;
    if (t >= window.to - fifth) ++last;
  }
  return Ratio(static_cast<double>(last), static_cast<double>(first));
}

Sampler DriverOverhead(const std::vector<obs::Span>& spans) {
  // (track, args) identifies a transaction: both spans carry
  // "txn_num":N on the client's track.
  std::map<std::pair<uint32_t, std::string>, double> engine;
  for (const obs::Span& span : spans) {
    if (span.cat == "engine" && span.name == "execute_txn") {
      engine[{span.tid, span.args}] = span.end - span.begin;
    }
  }
  Sampler overhead;
  for (const obs::Span& span : spans) {
    if (span.cat != "txn") continue;
    const auto it = engine.find({span.tid, span.args});
    if (it != engine.end()) overhead.Add(span.end - span.begin - it->second);
  }
  return overhead;
}

std::vector<Metric> EndToEndMetrics(const RunMetrics& run,
                                    const ProbeData& probe, Window window,
                                    double setup_s, double heap_kib_per_txn,
                                    double peak_rss_mb) {
  Sampler scan_queries;
  Sampler join_queries;
  for (int q = 0; q < kNumQueries; ++q) {
    // Flight 1 (Q1.x) scans and filters LINEORDER against one dimension;
    // flights 2-4 are multi-way hash joins.
    (q < 3 ? scan_queries : join_queries).Merge(run.query_latency_by_id[q]);
  }
  const uint64_t in_window = static_cast<uint64_t>(std::count_if(
      probe.commit_times.begin(), probe.commit_times.end(),
      [&](double t) { return window.Contains(t); }));
  const uint64_t attempted = run.committed + run.failed + run.queries;
  const int kNewOrder = static_cast<int>(TxnType::kNewOrder);
  const int kPayment = static_cast<int>(TxnType::kPayment);
  const int kCountOrders = static_cast<int>(TxnType::kCountOrders);
  return {
      {"tps", run.t_throughput, "1/s", run.committed, ""},
      {"qps", run.a_throughput, "1/s", run.queries, ""},
      TimingMetric("txn_p50_ms", run.txn_latency, 50, 1e3, "ms"),
      TimingMetric("txn_p99_ms", run.txn_latency, 99, 1e3, "ms"),
      TimingMetric("new_order_p50_ms", run.txn_latency_by_type[kNewOrder],
                   50, 1e3, "ms"),
      TimingMetric("payment_p50_ms", run.txn_latency_by_type[kPayment], 50,
                   1e3, "ms"),
      TimingMetric("count_orders_p50_ms",
                   run.txn_latency_by_type[kCountOrders], 50, 1e3, "ms"),
      TimingMetric("query_p50_ms", run.query_latency, 50, 1e3, "ms"),
      TimingMetric("query_p95_ms", run.query_latency, 95, 1e3, "ms"),
      TimingMetric("scan_query_p50_ms", scan_queries, 50, 1e3, "ms"),
      TimingMetric("join_query_p50_ms", join_queries, 50, 1e3, "ms"),
      TimingMetric("freshness_p99_ms", run.freshness, 99, 1e3, "ms"),
      {"tps_steady_ratio", SteadyRatio(probe.commit_times, window), "ratio",
       in_window, ""},
      {"failed_ratio",
       Ratio(static_cast<double>(run.failed), static_cast<double>(attempted)),
       "ratio", attempted, ""},
      {"setup_s", setup_s, "s", 0, ""},
      {"heap_kib_per_txn", heap_kib_per_txn, "KiB", 0, ""},
      {"peak_rss_mb", peak_rss_mb, "MiB", 0, ""},
  };
}

std::vector<Metric> RepeatedEndToEndMetrics(
    const std::vector<Repetition>& repetitions, Window window,
    double setup_s, double heap_kib_per_txn, double peak_rss_mb) {
  RunMetrics pooled;
  ProbeData pooled_probe;
  Sampler tps, qps, steady;
  for (const Repetition& rep : repetitions) {
    const RunMetrics& run = rep.run;
    pooled.committed += run.committed;
    pooled.failed += run.failed;
    pooled.queries += run.queries;
    pooled.txn_latency.Merge(run.txn_latency);
    for (int t = 0; t < 3; ++t) {
      pooled.txn_latency_by_type[t].Merge(run.txn_latency_by_type[t]);
    }
    pooled.query_latency.Merge(run.query_latency);
    for (int q = 0; q < kNumQueries; ++q) {
      pooled.query_latency_by_id[q].Merge(run.query_latency_by_id[q]);
    }
    pooled.freshness.Merge(run.freshness);
    pooled_probe.commit_times.insert(pooled_probe.commit_times.end(),
                                     rep.commit_times.begin(),
                                     rep.commit_times.end());
    tps.Add(run.t_throughput);
    qps.Add(run.a_throughput);
    steady.Add(SteadyRatio(rep.commit_times, window));
  }
  std::vector<Metric> out = EndToEndMetrics(
      pooled, pooled_probe, window, setup_s, heap_kib_per_txn, peak_rss_mb);
  for (Metric& m : out) {
    if (m.name == "tps") m.value = tps.Percentile(0.5);
    if (m.name == "qps") m.value = qps.Percentile(0.5);
    if (m.name == "tps_steady_ratio") m.value = steady.Percentile(0.5);
  }
  return out;
}

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const ProbeData& probe = *in.probe;
  const RunMetrics& run = *in.run;
  const Window w = in.window;
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit, size_t n = 0) {
    out.push_back({name, value, unit, n, ""});
  };
  auto p50_us = [&](const std::string& name, const Sampler& s) {
    out.push_back(TimingMetric(name, s, 50, 1e6, "us"));
  };

  // --- engine + txn + storage + shard: ExecuteTransaction records.
  Sampler exec, commit, single, multi;
  double exec_busy = 0, commit_busy = 0, backoff = 0, throttle = 0;
  double calls = 0, commits = 0, attempts = 0, reads = 0, lookups = 0;
  double buffered = 0, deltas = 0, multi_commits = 0;
  WorkMeter work;
  for (const TxnRecord& t : probe.txns) {
    if (!w.Contains(t.end_s)) continue;
    exec.Add(t.exec_s());
    commit.Add(t.commit_s());
    exec_busy += t.exec_s();
    commit_busy += t.commit_s();
    backoff += t.backoff_s;
    throttle += t.throttle_s;
    calls += 1;
    attempts += t.attempts;
    reads += static_cast<double>(t.reads);
    lookups += static_cast<double>(t.index_lookups);
    buffered += static_cast<double>(t.buffered_writes);
    deltas += static_cast<double>(t.deltas);
    work += t.work;
    if (t.committed) {
      commits += 1;
      if (t.shards_touched > 1) {
        multi_commits += 1;
        multi.Add(t.exec_s());
      } else {
        single.Add(t.exec_s());
      }
    }
  }
  Sampler body, read, lookup, begin;
  double body_busy = 0, read_busy = 0, hops = 0, begin_busy = 0, merged = 0;
  for (const CallSample& s : probe.bodies) {
    if (!w.Contains(s.end_s)) continue;
    body.Add(s.seconds);
    body_busy += s.seconds;
  }
  for (const ReadSample& s : probe.reads) {
    if (!w.Contains(s.end_s)) continue;
    read.Add(s.seconds);
    read_busy += s.seconds;
    hops += static_cast<double>(s.version_hops);
  }
  for (const CallSample& s : probe.index_lookups) {
    if (w.Contains(s.end_s)) lookup.Add(s.seconds);
  }
  for (const BeginRecord& b : probe.begins) {
    if (!w.Contains(b.end_s)) continue;
    begin.Add(b.seconds);
    begin_busy += b.seconds;
    merged += static_cast<double>(b.merged_rows);
  }

  // --- maintenance pump (replication apply, column folds).
  double maint_calls = 0, maint_useful = 0, maint_busy = 0, apply_busy = 0;
  double applied = 0, backlog_max = 0;
  for (const MaintenanceRecord& m : probe.maintenance) {
    if (!w.Contains(m.end_s)) continue;
    maint_calls += 1;
    maint_busy += m.seconds;
    backlog_max = std::max(backlog_max, static_cast<double>(m.pending_before));
    if (m.useful) {
      maint_useful += 1;
      apply_busy += m.seconds;
      applied += static_cast<double>(m.applied_records);
    }
  }

  // --- queries: probe-timed executions + the per-operator profiles.
  double queries = 0, run_query_busy = 0, column_values = 0, probes = 0;
  double rows_out = 0;
  for (const QueryRecord& q : probe.queries) {
    if (!w.Contains(q.end_s)) continue;
    queries += 1;
    run_query_busy += q.seconds;
    column_values += static_cast<double>(q.work.column_values);
    probes += static_cast<double>(q.work.hash_probes);
    rows_out += static_cast<double>(q.work.output_rows);
  }
  std::map<std::string, double> self_s;
  double blocks_scanned = 0, blocks_pruned = 0;
  for (const obs::PlanProfile& profile : run.query_profiles) {
    for (size_t i = 0; i < profile.size(); ++i) {
      const obs::PlanProfileNode& node = profile.node(i);
      double self = node.TotalSeconds();
      for (int child : node.children) {
        self -= profile.node(static_cast<size_t>(child)).TotalSeconds();
      }
      if (const char* key = OperatorKey(node.name)) self_s[key] += self;
      blocks_scanned += static_cast<double>(node.blocks_scanned);
      blocks_pruned += static_cast<double>(node.blocks_pruned);
    }
  }

  const obs::MetricsSnapshot& reg = run.observed;
  auto count = [&](const char* name) {
    return static_cast<double>(reg.CountOf(name));
  };

  p50_us("engine.execute_txn.p50_us", exec);
  add("engine.execute_txn.busy_s", exec_busy, "s");
  p50_us("engine.begin_analytics.p50_us", begin);
  add("engine.begin_analytics.busy_s", begin_busy, "s");
  add("engine.begin_analytics.merged_rows_per_call",
      Ratio(merged, static_cast<double>(begin.count())), "rows");
  add("engine.maintenance_step.busy_s", maint_busy, "s");
  add("engine.maintenance_step.useful_ratio", Ratio(maint_useful, maint_calls),
      "ratio", static_cast<size_t>(maint_calls));
  add("engine.commit_wait.throttle_s", throttle, "s");

  p50_us("txn.body.p50_us", body);
  add("txn.body.busy_s", body_busy, "s");
  p50_us("txn.commit.p50_us", commit);
  add("txn.commit.busy_s", commit_busy, "s");
  add("txn.attempts_per_commit", Ratio(attempts, commits), "ratio");
  add("txn.backoff_s", backoff, "s");
  add("txn.read.calls_per_txn", Ratio(reads, calls), "calls");
  p50_us("txn.read.p50_us", read);
  add("txn.read.busy_s", read_busy, "s");
  add("txn.read.version_hops_per_read",
      Ratio(hops, static_cast<double>(read.count())), "hops");
  add("txn.index_lookup.calls_per_txn", Ratio(lookups, calls), "calls");
  p50_us("txn.index_lookup.p50_us", lookup);
  add("txn.buffered_writes_per_txn", Ratio(buffered, calls), "writes");
  add("txn.delta_share", Ratio(deltas, buffered), "ratio");
  add("txn.wal_bytes_per_commit",
      Ratio(static_cast<double>(work.wal_bytes), commits), "bytes");

  add("storage.rows_read_per_txn",
      Ratio(static_cast<double>(work.rows_read), calls), "rows");
  add("storage.rows_written_per_txn",
      Ratio(static_cast<double>(work.rows_written), calls), "rows");
  add("storage.index_nodes_per_txn",
      Ratio(static_cast<double>(work.index_nodes), calls), "nodes");
  add("storage.btree_splits", count(obs::kStoreBtreeSplits), "count");
  add("storage.column_values_per_query", Ratio(column_values, queries),
      "values");
  add("storage.merge_rows", count(obs::kStoreMergeRows), "rows");

  add("exec.run_query.busy_s", run_query_busy, "s");
  for (const char* key : kOperatorKeys) {
    add(std::string("exec.") + key + ".self_s", self_s[key], "s");
  }
  add("exec.hash_probes_per_query", Ratio(probes, queries), "probes");
  add("exec.rows_out_per_query", Ratio(rows_out, queries), "rows");
  add("exec.zone_map_pruned_ratio",
      Ratio(blocks_pruned, blocks_scanned + blocks_pruned), "ratio");

  add("replication.applied_records", applied, "count");
  add("replication.apply_us_per_record", Ratio(apply_busy * 1e6, applied),
      "us");
  add("replication.backlog_max", backlog_max, "count");

  // Single-node engines have no shard layer: its metrics read 0 there.
  const bool sharded = in.sharded;
  const Sampler none;
  add("shard.multi_shard_ratio", sharded ? Ratio(multi_commits, commits) : 0,
      "ratio");
  p50_us("shard.execute_txn.single.p50_us", sharded ? single : none);
  p50_us("shard.execute_txn.multi.p50_us", sharded ? multi : none);
  add("shard.2pc.prepares_per_commit",
      Ratio(count(obs::kShard2pcPrepares), count(obs::kShard2pcCommits)),
      "ratio");
  add("shard.2pc.aborts", count(obs::kShard2pcAborts), "count");

  add("hattrick.datagen_s", in.datagen_s, "s");
  add("hattrick.load_s", in.load_s, "s");
  p50_us("hattrick.driver.txn_overhead_us", in.driver_overhead);
  add("obs.trace_overhead_ratio", 1 - Ratio(run.t_throughput, in.untraced_tps),
      "ratio");
  add("obs.trace.dropped_spans", in.dropped_spans, "count");

  // Timeline: where the run-length decay shows up.
  const double width = (w.to - w.from) / kTimelineWindows;
  std::vector<double> window_commits(kTimelineWindows, 0);
  std::vector<Sampler> window_reads(kTimelineWindows);
  std::vector<double> window_hops(kTimelineWindows, 0);
  auto bucket = [&](double t) {
    return std::min(kTimelineWindows - 1,
                    static_cast<int>((t - w.from) / width));
  };
  for (double t : probe.commit_times) {
    if (w.Contains(t)) window_commits[bucket(t)] += 1;
  }
  for (const ReadSample& s : probe.reads) {
    if (!w.Contains(s.end_s)) continue;
    window_reads[bucket(s.end_s)].Add(s.seconds);
    window_hops[bucket(s.end_s)] += static_cast<double>(s.version_hops);
  }
  for (int i = 0; i < kTimelineWindows; ++i) {
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "window%02d", i + 1);
    add(std::string("hattrick.") + prefix + ".tps",
        Ratio(window_commits[i], width), "1/s");
    p50_us(std::string("txn.read.") + prefix + ".p50_us", window_reads[i]);
    add(std::string("txn.read.") + prefix + ".version_hops_per_read",
        Ratio(window_hops[i], static_cast<double>(window_reads[i].count())),
        "hops");
  }
  return out;
}

}  // namespace perfbench
}  // namespace hattrick
