// Differential + randomized visibility suite for the bitmap-versioned
// column store (ISSUE tentpole proof). An eager-merge hybrid engine and
// a bitmap-mode hybrid engine are fed identical committed transaction
// schedules; every analytical query must return bit-identical rows no
// matter where folds land. Also: snapshot stability (a session opened at
// CSN c never observes later commits), the snapshot-vs-GC regression
// (folds wait out pinned sessions and never perturb their results), and
// work-meter parity (across batch widths and dop=4 over a live delta,
// against the test-only SSB reference; eager vs bitmap once both are
// fully folded).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/work_meter.h"
#include "engine/hybrid_engine.h"
#include "exec/operator.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "tests/ssb_reference.h"

namespace hattrick {
namespace {

/// Small dataset: full SSB shape but quick enough for 21 seeds.
DatagenConfig TinyConfig(uint64_t seed) {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1200;
  config.seed = seed;
  config.num_freshness_tables = 4;
  return config;
}

/// Runs `n` random HATtrick transactions; the schedule is a pure
/// function of `seed`, so calling this twice (once per engine) commits
/// identical histories.
void RunSchedule(HtapEngine* engine, WorkloadContext* context, uint64_t seed,
                 int n) {
  const EngineHandles handles =
      EngineHandles::Resolve(*engine->primary_catalog(), 4);
  Rng rng(seed);
  uint64_t txn_num = 0;
  for (int i = 0; i < n; ++i) {
    const TxnParams params = GenerateTxnParams(context, &rng);
    ++txn_num;
    WorkMeter meter;
    const TxnOutcome outcome = engine->ExecuteTransaction(
        MakeTxnBody(params, handles, /*client=*/1 + (i % 4), txn_num),
        1 + (i % 4), txn_num, &meter);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
}

std::vector<Row> QueryRows(int qid, const DataSource& source,
                           WorkMeter* meter = nullptr,
                           size_t batch_rows = DefaultBatchRows()) {
  WorkMeter local;
  ExecContext ctx{meter != nullptr ? meter : &local};
  ctx.batch_rows = batch_rows;
  OperatorPtr plan = BuildQueryPlan(qid, source);
  return Collect(plan.get(), &ctx);
}

void ExpectSameMeter(const WorkMeter& got, const WorkMeter& want) {
  EXPECT_EQ(got.rows_read, want.rows_read);
  EXPECT_EQ(got.column_values, want.column_values);
  EXPECT_EQ(got.output_rows, want.output_rows);
  EXPECT_EQ(got.hash_probes, want.hash_probes);
  EXPECT_EQ(got.version_hops, want.version_hops);
  EXPECT_EQ(got.merged_rows, want.merged_rows);
  EXPECT_EQ(got.Total(), want.Total());
}

// ---------------------------------------------------------------------------
// The differential suite: eager vs bitmap, 21 seeds x 13 queries.
// ---------------------------------------------------------------------------

class VisibilityDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(VisibilityDifferentialTest, EagerAndBitmapBitIdentical) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31);
  const Dataset dataset = GenerateDataset(TinyConfig(seed));

  HybridEngineConfig eager_config;
  eager_config.merge_mode = MergeMode::kEager;
  HybridEngine eager{eager_config};
  HybridEngineConfig bitmap_config;
  bitmap_config.merge_mode = MergeMode::kBitmap;
  // Randomize the fold trigger so folds land at different delta depths
  // across seeds (including never, for small rounds).
  bitmap_config.fold_watermark =
      static_cast<size_t>(rng.Uniform(8, 512));
  HybridEngine bitmap{bitmap_config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &eager).ok());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &bitmap).ok());
  WorkloadContext eager_context(dataset);
  WorkloadContext bitmap_context(dataset);

  for (int round = 0; round < 3; ++round) {
    // Identical committed schedules on both engines.
    const int n = static_cast<int>(rng.Uniform(20, 80));
    const uint64_t schedule_seed = seed * 7919 + static_cast<uint64_t>(round);
    RunSchedule(&eager, &eager_context, schedule_seed, n);
    RunSchedule(&bitmap, &bitmap_context, schedule_seed, n);

    // A random fold point: sometimes drain via the background-merge
    // entry point, sometimes force a full fold, sometimes leave every
    // version in the delta. Results must not depend on the choice.
    WorkMeter maintenance;
    if (rng.Bernoulli(0.3)) {
      bitmap.FoldAll(&maintenance);
    } else if (rng.Bernoulli(0.5)) {
      while (bitmap.MaintenanceStep(&maintenance)) {
      }
    }

    WorkMeter meter;
    AnalyticsSession eager_session = eager.BeginAnalytics(&meter);
    AnalyticsSession bitmap_session = bitmap.BeginAnalytics(&meter);
    for (int qid = 0; qid < kNumQueries; ++qid) {
      EXPECT_EQ(QueryRows(qid, *eager_session.source),
                QueryRows(qid, *bitmap_session.source))
          << QueryName(qid) << " seed " << seed << " round " << round;
    }
  }

  // Fully folded, the two modes are *the same physical layout*, so the
  // metered scan work must match exactly, not just the results.
  WorkMeter fold_meter;
  eager.FoldAll(&fold_meter);
  bitmap.FoldAll(&fold_meter);
  EXPECT_EQ(bitmap.PendingDelta(), 0u);
  WorkMeter meter;
  AnalyticsSession eager_session = eager.BeginAnalytics(&meter);
  AnalyticsSession bitmap_session = bitmap.BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    WorkMeter eager_q;
    WorkMeter bitmap_q;
    EXPECT_EQ(QueryRows(qid, *eager_session.source, &eager_q),
              QueryRows(qid, *bitmap_session.source, &bitmap_q))
        << QueryName(qid);
    ExpectSameMeter(bitmap_q, eager_q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisibilityDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{22}));

// ---------------------------------------------------------------------------
// Snapshot stability and the snapshot-vs-GC regression.
// ---------------------------------------------------------------------------

TEST(SnapshotStabilityTest, SessionNeverObservesLaterCommits) {
  // A bitmap-mode session opened at CSN c answers from a frozen
  // ColumnDeltaSnapshot: commits with CSN > c — applied while the
  // session is live — must not change any query's result.
  const Dataset dataset = GenerateDataset(TinyConfig(42));
  HybridEngineConfig config;
  config.merge_mode = MergeMode::kBitmap;
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunSchedule(&engine, &context, 4242, 120);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  std::vector<std::vector<Row>> before;
  before.reserve(kNumQueries);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    before.push_back(QueryRows(qid, *session.source));
  }

  // Commit past the snapshot (no folds: the session pin would block
  // them; version appends never need the latch).
  RunSchedule(&engine, &context, 4343, 130);
  EXPECT_GT(engine.PendingDelta(), 0u);

  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_EQ(QueryRows(qid, *session.source), before[qid])
        << QueryName(qid) << " changed under the snapshot";
  }

  // A fresh session does see the later commits (freshness tables moved).
  session.guard.reset();
  AnalyticsSession fresh = engine.BeginAnalytics(&meter);
  ScanSpec spec;
  spec.table = FreshnessTableName(1);
  spec.projection = {fresh::kTxnNum};
  WorkMeter fresh_meter;
  ExecContext ctx{&fresh_meter};
  OperatorPtr plan = fresh.source->Scan(spec);
  const std::vector<Row> rows = Collect(plan.get(), &ctx);
  ASSERT_EQ(rows.size(), 1u);
  // RunSchedule round-robins clients over a global txn counter: client
  // 1's newest txn_num in the 130-txn tail schedule is 129 (i = 128).
  EXPECT_EQ(rows.at(0).at(0).AsInt(), 129);
}

TEST(SnapshotGcRegressionTest, FoldWaitsForPinnedSessionsAndPreservesResults) {
  // The GC race the pin contract exists to prevent: folding versions
  // into the base reallocates column vectors, so a fold that ran under a
  // live session would tear its scans. The session pin must block the
  // fold until the last reader is gone — and the fold, once through,
  // must not change what any new session observes.
  const Dataset dataset = GenerateDataset(TinyConfig(77));
  HybridEngineConfig config;
  config.merge_mode = MergeMode::kBitmap;
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunSchedule(&engine, &context, 7777, 200);
  ASSERT_GT(engine.PendingDelta(), 0u);

  WorkMeter meter;
  std::vector<std::vector<Row>> before;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    before.push_back(QueryRows(qid, *session.source));
  }

  std::atomic<bool> folded{false};
  std::thread folder([&] {
    WorkMeter m;
    engine.FoldAll(&m);  // blocks on the session pin
    folded.store(true, std::memory_order_release);
  });
  // However long the folder has had, it cannot have drained the delta
  // while our pin is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(engine.PendingDelta(), 0u);
  EXPECT_FALSE(folded.load(std::memory_order_acquire));
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_EQ(QueryRows(qid, *session.source), before[qid])
        << QueryName(qid) << " perturbed by a waiting fold";
  }

  session.guard.reset();  // release the pin; the fold proceeds
  folder.join();
  EXPECT_EQ(engine.PendingDelta(), 0u);

  // Same data, now in the base: every query answers identically.
  AnalyticsSession after = engine.BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_EQ(QueryRows(qid, *after.source), before[qid])
        << QueryName(qid) << " changed across the fold";
  }
}

// ---------------------------------------------------------------------------
// Work-meter parity over a live delta: batch widths vs each other, rows
// vs the SSB reference (serial and dop=4).
// ---------------------------------------------------------------------------

TEST(MeterParityTest, BitmapWidthsAndDopAgreeWithReferenceOverLiveDelta) {
  // The reference dataset: every query matches rows, so the comparisons
  // below are never between empty results.
  const Dataset dataset = GenerateDataset(ReferenceDatasetConfig());
  HybridEngineConfig config;
  config.merge_mode = MergeMode::kBitmap;
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunSchedule(&engine, &context, 9999, 250);
  ASSERT_GT(engine.PendingDelta(), 0u);  // the delta lanes are exercised

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  // The committed state at the session's snapshot, read from the primary
  // row store: the independent source of the expected rows.
  const SsbTables tables =
      SsbTablesAt(*engine.primary_catalog(), session.snapshot);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    const ReferenceResult want = ReferenceQuery(qid, tables);
    EXPECT_GT(want.fact_rows, 0u) << QueryName(qid);

    WorkMeter unit_meter;
    const std::vector<Row> unit_rows =
        QueryRows(qid, *session.source, &unit_meter, 1);
    EXPECT_EQ(DiffRows(unit_rows, want.rows), "") << QueryName(qid);
    for (const size_t width : {size_t{7}, size_t{1024}}) {
      WorkMeter batch_meter;
      const std::vector<Row> batch_rows =
          QueryRows(qid, *session.source, &batch_meter, width);
      EXPECT_EQ(DiffRows(batch_rows, want.rows), "")
          << QueryName(qid) << " batch_rows=" << width;
      ExpectSameMeter(batch_meter, unit_meter);
    }

    // dop=4 static morsels: identical rows. Metered totals are only
    // defined per plan shape — parallel plans replicate hash-build
    // sides per worker — so the parity assertion stops at the results.
    WorkMeter par_meter;
    ExecContext par_ctx{&par_meter};
    par_ctx.dop = 4;
    par_ctx.session_pin = session.guard;
    OperatorPtr par_plan = BuildParallelQueryPlan(qid, *session.source,
                                                 /*dop=*/4,
                                                 /*dynamic_morsels=*/false);
    const std::vector<Row> par_rows = Collect(par_plan.get(), &par_ctx);
    EXPECT_EQ(DiffRows(par_rows, want.rows), "") << QueryName(qid) << " dop=4";
  }
}

}  // namespace
}  // namespace hattrick
