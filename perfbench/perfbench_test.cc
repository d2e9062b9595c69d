// Tests of the benchmark's own code: the ProbeEngine decorator must not
// change what the engines do, and every reported percentile and ratio
// must use the sample count and base it documents.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hattrick/driver.h"
#include "layer_metrics.h"
#include "obs/metrics.h"
#include "probe_engine.h"
#include "stats.h"
#include "workloads.h"

namespace hattrick {
namespace perfbench {
namespace {

SimSetup SimSetupFor(const Workload& w) {
  switch (w.kind) {
    case bench::EngineKind::kPostgres:
      return SharedSimSetup();
    case bench::EngineKind::kSystemX:
      return HybridSimSetup();
    case bench::EngineKind::kTidbDist:
      return ShardedSimSetup(3);
    default:
      ADD_FAILURE() << "no sim setup for " << w.name;
      return SimSetup{};
  }
}

WorkloadConfig SimConfig(const Workload& w) {
  WorkloadConfig config;
  config.t_clients = w.t_clients;
  config.a_clients = w.a_clients;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.25;
  config.seed = 11;
  config.profile_queries = true;
  return config;
}

// Wrapping a workload's engine in the decorator (plain or detailed) gives
// the same run under the deterministic SimDriver: byte-identical metrics
// export and the same throughput.
class TransparencyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TransparencyTest, DecoratorLeavesSimRunUnchanged) {
  const Workload* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  bench::BenchEnv env = MakeWorkloadEnv(*w);
  const WorkloadConfig config = SimConfig(*w);

  SimDriver bare_driver(env.engine.get(), env.context.get(), SimSetupFor(*w));
  const RunMetrics bare = bare_driver.Run(config);
  ASSERT_GT(bare.committed, 0u);
  ASSERT_GT(bare.queries, 0u);

  for (bool detailed : {false, true}) {
    SCOPED_TRACE(detailed ? "detailed probe" : "plain probe");
    ProbeEngine probe(env.engine.get(), w->t_clients, detailed);
    SimDriver driver(&probe, env.context.get(), SimSetupFor(*w));
    const RunMetrics wrapped = driver.Run(config);
    EXPECT_EQ(wrapped.observed.ToJson(), bare.observed.ToJson());
    EXPECT_EQ(wrapped.t_throughput, bare.t_throughput);
    EXPECT_EQ(wrapped.a_throughput, bare.a_throughput);
    EXPECT_EQ(wrapped.committed, bare.committed);
    EXPECT_EQ(wrapped.queries, bare.queries);

    const ProbeData data = probe.Collect();
    EXPECT_TRUE(data.txn_nums_complete);
    EXPECT_GE(data.txn_commits, wrapped.committed);
    EXPECT_GE(data.begin_calls, wrapped.queries);
    if (detailed) {
      EXPECT_EQ(data.txns.size(), data.txn_calls);
      EXPECT_EQ(data.query_releases, data.begin_calls);
      EXPECT_EQ(data.queries.size(), data.begin_calls);
      EXPECT_FALSE(data.reads.empty());
      // The simulator pumps maintenance only for designs that have it.
      EXPECT_EQ(data.maintenance.empty(), !SimSetupFor(*w).has_maintenance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TransparencyTest,
                         ::testing::Values("txn-shared", "olap-hybrid",
                                           "htap-dist"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Percentiles and their sample counts.
// ---------------------------------------------------------------------------

TEST(PercentileRule, TenSamplesBeyondThePercentile) {
  EXPECT_FALSE(PercentileSupported(50, 19));
  EXPECT_TRUE(PercentileSupported(50, 20));
  EXPECT_FALSE(PercentileSupported(95, 199));
  EXPECT_TRUE(PercentileSupported(95, 200));
  EXPECT_FALSE(PercentileSupported(99, 999));
  EXPECT_TRUE(PercentileSupported(99, 1000));
  EXPECT_FALSE(PercentileSupported(99.9, 9999));
  EXPECT_TRUE(PercentileSupported(99.9, 10000));
}

TEST(PercentileRule, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(999), 95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(PercentileRule, TimingCarriesCountAndScale) {
  Sampler samples;
  for (int i = 100; i >= 1; --i) samples.Add(i * 1e-3);  // 1..100 ms
  const Timing p50 = MakeTiming(samples, 50, 1e3);
  EXPECT_DOUBLE_EQ(p50.value, 50);  // nearest rank
  EXPECT_EQ(p50.n, 100u);
  EXPECT_TRUE(p50.supported);
  const Timing p99 = MakeTiming(samples, 99, 1e3);
  EXPECT_DOUBLE_EQ(p99.value, 99);
  EXPECT_FALSE(p99.supported);
  EXPECT_EQ(MakeTiming(Sampler{}, 50, 1e3).value, 0);
}

TEST(PercentileRule, UnsupportedPercentileIsFlagged) {
  RunMetrics run;
  for (int i = 0; i < 500; ++i) run.txn_latency.Add(1e-3);
  const std::vector<Metric> metrics =
      EndToEndMetrics(run, ProbeData{}, Window{0, 1}, 1, 1, 1);
  for (const Metric& m : metrics) {
    if (m.name == "txn_p50_ms") {
      EXPECT_EQ(m.n, 500u);
      EXPECT_TRUE(m.note.empty());
    }
    if (m.name == "txn_p99_ms") {
      EXPECT_EQ(m.n, 500u);
      EXPECT_NE(m.note.find("highest supported is p95"), std::string::npos)
          << m.note;
    }
  }
}

double Value(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST(PercentileRule, RepetitionsPoolSamplesAndTakeMedianRates) {
  // Three repetitions of 1 s; the middle one's rates win whatever the
  // outlier is, while latencies pool: 30 samples of 1 ms and 10 of 9 ms.
  auto rep = [](uint64_t commits, double latency_s, size_t samples) {
    Repetition r;
    r.run.committed = commits;
    r.run.queries = commits / 10;
    r.run.measure_seconds = 1;
    r.run.t_throughput = static_cast<double>(commits);
    r.run.a_throughput = static_cast<double>(commits / 10);
    for (size_t i = 0; i < samples; ++i) r.run.txn_latency.Add(latency_s);
    // Two commits in the first fifth of [0, 1], one in the last.
    r.commit_times = {0.1, 0.1, 0.9};
    return r;
  };
  const std::vector<Metric> metrics = RepeatedEndToEndMetrics(
      {rep(5000, 1e-3, 10), rep(900, 9e-3, 10), rep(5200, 1e-3, 20)},
      Window{0, 1}, 1, 1, 1);
  EXPECT_DOUBLE_EQ(Value(metrics, "tps"), 5000);
  EXPECT_DOUBLE_EQ(Value(metrics, "qps"), 500);
  EXPECT_DOUBLE_EQ(Value(metrics, "txn_p50_ms"), 1);
  EXPECT_DOUBLE_EQ(Value(metrics, "txn_p99_ms"), 9);
  EXPECT_DOUBLE_EQ(Value(metrics, "tps_steady_ratio"), 0.5);
  for (const Metric& m : metrics) {
    if (m.name == "tps") EXPECT_EQ(m.n, 11100u);
    if (m.name == "txn_p50_ms") EXPECT_EQ(m.n, 40u);
    if (m.name == "tps_steady_ratio") EXPECT_EQ(m.n, 9u);
  }
}

// ---------------------------------------------------------------------------
// Ratios and their bases.
// ---------------------------------------------------------------------------

TEST(Ratios, ZeroBaseReadsZero) {
  EXPECT_EQ(Ratio(5, 0), 0);
  EXPECT_EQ(Ratio(0, 0), 0);
  EXPECT_EQ(Ratio(3, 4), 0.75);
}

TEST(Ratios, SteadyRatioIsLastFifthOverFirstFifth) {
  const Window w{1, 11};  // fifths of 2 s
  std::vector<double> commits;
  for (int i = 0; i < 10; ++i) commits.push_back(1.5);   // first fifth
  for (int i = 0; i < 7; ++i) commits.push_back(5.0);    // middle
  for (int i = 0; i < 4; ++i) commits.push_back(10.5);   // last fifth
  for (int i = 0; i < 9; ++i) commits.push_back(0.5);    // warm-up: ignored
  for (int i = 0; i < 9; ++i) commits.push_back(11.5);   // after: ignored
  EXPECT_DOUBLE_EQ(SteadyRatio(commits, w), 0.4);
  EXPECT_EQ(SteadyRatio({10.5}, w), 0);  // empty first fifth
}

TEST(Ratios, EndToEndFailedRatioCountsEveryAttempt) {
  RunMetrics run;
  run.committed = 90;
  run.failed = 5;
  run.queries = 5;
  const std::vector<Metric> metrics =
      EndToEndMetrics(run, ProbeData{}, Window{0, 1}, 1, 1, 1);
  EXPECT_DOUBLE_EQ(Value(metrics, "failed_ratio"), 0.05);
}

TEST(Ratios, DriverOverheadMatchesSpansByTrackAndTxn) {
  auto span = [](const char* name, const char* cat, uint32_t tid, double b,
                 double e, const char* args) {
    obs::Span s;
    s.name = name;
    s.cat = cat;
    s.tid = tid;
    s.begin = b;
    s.end = e;
    s.args = args;
    return s;
  };
  const std::vector<obs::Span> spans = {
      span("new_order", "txn", 1, 0, 10, "\"txn_num\":1"),
      span("execute_txn", "engine", 1, 1, 9, "\"txn_num\":1"),
      span("payment", "txn", 2, 0, 4, "\"txn_num\":1"),
      span("execute_txn", "engine", 2, 0, 1, "\"txn_num\":1"),
      span("payment", "txn", 1, 20, 30, "\"txn_num\":2"),  // no engine span
  };
  const Sampler overhead = DriverOverhead(spans);
  ASSERT_EQ(overhead.count(), 2u);
  EXPECT_DOUBLE_EQ(overhead.Min(), 2);
  EXPECT_DOUBLE_EQ(overhead.Max(), 3);
}

/// A traced run with known counts: two transactions and one query inside
/// the window [0, 10], one of each outside it.
LayerInputs SyntheticTrace(ProbeData* probe, RunMetrics* run) {
  TxnRecord committed;
  committed.begin_s = 1;
  committed.end_s = 2;
  committed.body_s = 0.5;
  committed.backoff_s = 0.1;
  committed.committed = true;
  committed.attempts = 3;
  committed.shards_touched = 2;
  committed.reads = 6;
  committed.index_lookups = 4;
  committed.buffered_writes = 8;
  committed.deltas = 2;
  committed.work.rows_read = 30;
  committed.work.rows_written = 8;
  committed.work.index_nodes = 20;
  committed.work.wal_bytes = 400;
  TxnRecord failed = committed;
  failed.committed = false;
  failed.attempts = 5;
  failed.reads = 2;
  failed.index_lookups = 0;
  failed.buffered_writes = 0;
  failed.deltas = 0;
  failed.work = WorkMeter{};
  failed.work.rows_read = 10;
  TxnRecord outside = committed;
  outside.end_s = 12;
  probe->txns = {committed, failed, outside};

  probe->reads = {{1, 1e-6, 10}, {2, 3e-6, 30}, {11, 9e-6, 1000}};
  probe->begins = {{3, 0.01, 100}, {4, 0.03, 300}, {11, 1, 7}};
  QueryRecord query;
  query.end_s = 5;
  query.seconds = 0.2;
  query.work.column_values = 1000;
  query.work.hash_probes = 50;
  query.work.output_rows = 60;
  QueryRecord late = query;
  late.end_s = 12;
  probe->queries = {query, query, late};
  probe->maintenance = {{1, 0.002, true, 40, 7},
                        {2, 0.001, false, 0, 9},
                        {3, 0.002, true, 60, 3},
                        {4, 0.001, false, 0, 0}};
  probe->commit_times = {2, 2};

  auto entry = [](const char* name, uint64_t count) {
    obs::MetricEntry e;
    e.name = name;
    e.count = count;
    return e;
  };
  run->observed.entries = {entry(obs::kShard2pcCommits, 4),
                           entry(obs::kShard2pcPrepares, 10)};
  run->t_throughput = 80;

  obs::PlanProfile& profile = run->query_profiles[0];
  obs::PlanProfileNode* join = profile.BeginNode("HashJoin", "");
  join->next_seconds = 5;
  obs::PlanProfileNode* scan = profile.BeginNode("ColumnScan", "");
  scan->next_seconds = 2;
  scan->blocks_scanned = 3;
  scan->blocks_pruned = 1;
  profile.EndNode();
  profile.EndNode();

  LayerInputs in;
  in.run = run;
  in.probe = probe;
  in.window = Window{0, 10};
  in.sharded = true;
  in.untraced_tps = 100;
  return in;
}

TEST(Ratios, PerLayerRatiosUseTheirDocumentedBase) {
  ProbeData probe;
  RunMetrics run;
  const std::vector<Metric> m = LayerMetrics(SyntheticTrace(&probe, &run));
  // Per execute_txn call in the window (committed or not).
  EXPECT_DOUBLE_EQ(Value(m, "txn.read.calls_per_txn"), 4);        // 8 / 2
  EXPECT_DOUBLE_EQ(Value(m, "txn.index_lookup.calls_per_txn"), 2);  // 4 / 2
  EXPECT_DOUBLE_EQ(Value(m, "txn.buffered_writes_per_txn"), 4);   // 8 / 2
  EXPECT_DOUBLE_EQ(Value(m, "storage.rows_read_per_txn"), 20);    // 40 / 2
  EXPECT_DOUBLE_EQ(Value(m, "storage.rows_written_per_txn"), 4);  // 8 / 2
  EXPECT_DOUBLE_EQ(Value(m, "storage.index_nodes_per_txn"), 10);  // 20 / 2
  // Per commit in the window.
  EXPECT_DOUBLE_EQ(Value(m, "txn.attempts_per_commit"), 8);     // (3+5) / 1
  EXPECT_DOUBLE_EQ(Value(m, "txn.wal_bytes_per_commit"), 400);  // 400 / 1
  EXPECT_DOUBLE_EQ(Value(m, "shard.multi_shard_ratio"), 1);     // 1 / 1
  // Per buffered write.
  EXPECT_DOUBLE_EQ(Value(m, "txn.delta_share"), 0.25);  // 2 / 8
  // Per point read sample.
  EXPECT_DOUBLE_EQ(Value(m, "txn.read.version_hops_per_read"), 20);  // 40/2
  // Per BeginAnalytics call, per query, per maintenance call.
  EXPECT_DOUBLE_EQ(Value(m, "engine.begin_analytics.merged_rows_per_call"),
                   200);
  EXPECT_DOUBLE_EQ(Value(m, "storage.column_values_per_query"), 1000);
  EXPECT_DOUBLE_EQ(Value(m, "exec.hash_probes_per_query"), 50);
  EXPECT_DOUBLE_EQ(Value(m, "exec.rows_out_per_query"), 60);
  EXPECT_DOUBLE_EQ(Value(m, "engine.maintenance_step.useful_ratio"), 0.5);
  EXPECT_DOUBLE_EQ(Value(m, "replication.applied_records"), 100);
  EXPECT_DOUBLE_EQ(Value(m, "replication.apply_us_per_record"), 40);
  EXPECT_DOUBLE_EQ(Value(m, "replication.backlog_max"), 9);
  // Registry counters, profile blocks, traced over untraced tps.
  EXPECT_DOUBLE_EQ(Value(m, "shard.2pc.prepares_per_commit"), 2.5);
  EXPECT_DOUBLE_EQ(Value(m, "exec.zone_map_pruned_ratio"), 0.25);
  EXPECT_NEAR(Value(m, "obs.trace_overhead_ratio"), 0.2, 1e-12);
  // Self time is a node's time minus its children's.
  EXPECT_DOUBLE_EQ(Value(m, "exec.hash_join.self_s"), 3);
  EXPECT_DOUBLE_EQ(Value(m, "exec.column_scan.self_s"), 2);
  // Commit self time: call minus bodies minus backoff, both txns.
  EXPECT_NEAR(Value(m, "txn.commit.busy_s"), 2 * (1 - 0.5 - 0.1), 1e-12);
  // Timeline: 1 s windows, both commits at t=2 fall in window 3.
  EXPECT_DOUBLE_EQ(Value(m, "hattrick.window03.tps"), 2);
  EXPECT_DOUBLE_EQ(Value(m, "txn.read.window02.version_hops_per_read"), 10);
}

TEST(Ratios, ShardMetricsReadZeroWithoutAShardLayer) {
  ProbeData probe;
  RunMetrics run;
  LayerInputs in = SyntheticTrace(&probe, &run);
  in.sharded = false;
  const std::vector<Metric> m = LayerMetrics(in);
  EXPECT_EQ(Value(m, "shard.multi_shard_ratio"), 0);
  EXPECT_EQ(Value(m, "shard.execute_txn.multi.p50_us"), 0);
}

}  // namespace
}  // namespace perfbench
}  // namespace hattrick
