// Differential tests for the EXPLAIN ANALYZE plan-profiling layer
// (obs/plan_profile.h + exec/op_profiler.h): across all 13 queries, all
// three engine designs, batch widths, and serial vs parallel plans, the
// profile's root rows_out must equal the query's result rows, every
// node's logical rows and inclusive work must not depend on the batch
// width, and turning profiling on must not change results or metered
// work. A checked-in golden (plan_profile_golden.txt) pins every node's
// rows and work per query to the numbers an independent row-at-a-time
// executor produced.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "obs/plan_profile.h"
#include "tests/ssb_reference.h"

namespace hattrick {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateDataset(ReferenceDatasetConfig()));

    shared_ = new SharedEngine();
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, shared_).ok());
    hybrid_ = new HybridEngine();
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, hybrid_).ok());
    isolated_ = new IsolatedEngine();
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, isolated_)
            .ok());
  }

  static void TearDownTestSuite() {
    delete shared_;
    delete hybrid_;
    delete isolated_;
    delete dataset_;
    shared_ = nullptr;
    hybrid_ = nullptr;
    isolated_ = nullptr;
    dataset_ = nullptr;
  }

  struct ProfiledRun {
    QueryResult result;
    obs::PlanProfile profile;
    uint64_t work = 0;
  };

  /// Runs query `qid` through RunQuery at `dop`; `batch_rows` 0 keeps
  /// the default width.
  static ProfiledRun Run(HtapEngine* engine, int qid, int dop,
                         bool profiled = true, size_t batch_rows = 0) {
    ProfiledRun out;
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx;
    ctx.meter = &meter;
    ctx.dop = dop;
    if (batch_rows > 0) ctx.batch_rows = batch_rows;
    ctx.session_pin = session.guard;
    if (profiled) ctx.profile = &out.profile;
    out.result = RunQuery(qid, *session.source, 4, &ctx);
    out.work = meter.Total();
    return out;
  }

  static size_t CountRoots(const obs::PlanProfile& profile) {
    size_t roots = 0;
    for (size_t i = 0; i < profile.size(); ++i) {
      if (profile.node(i).parent < 0) ++roots;
    }
    return roots;
  }

  static uint64_t RootRows(const obs::PlanProfile& profile) {
    uint64_t rows = 0;
    for (size_t i = 0; i < profile.size(); ++i) {
      if (profile.node(i).parent < 0) rows += profile.node(i).rows_out;
    }
    return rows;
  }

  static Dataset* dataset_;
  static SharedEngine* shared_;
  static HybridEngine* hybrid_;
  static IsolatedEngine* isolated_;
};

Dataset* ProfileTest::dataset_ = nullptr;
SharedEngine* ProfileTest::shared_ = nullptr;
HybridEngine* ProfileTest::hybrid_ = nullptr;
IsolatedEngine* ProfileTest::isolated_ = nullptr;

// The tentpole acceptance matrix: 13 queries x 3 engines x dop {1,4}.
// The profile must record exactly one root (the freshness read-back is
// deliberately excluded) whose rows_out equals the result's row count,
// for exactly one execution.
TEST_F(ProfileTest, RootRowsMatchResultRowsAcrossTheFullMatrix) {
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_}, {"hybrid", hybrid_}, {"isolated", isolated_}};
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      for (int dop : {1, 4}) {
        const ProfiledRun run = Run(e.engine, qid, dop);
        const std::string where = std::string(e.label) + "/" +
                                  QueryName(qid) + "/dop=" +
                                  std::to_string(dop);
        ASSERT_FALSE(run.profile.empty()) << where;
        EXPECT_EQ(run.profile.executions(), 1u) << where;
        EXPECT_EQ(CountRoots(run.profile), 1u) << where;
        EXPECT_EQ(RootRows(run.profile), run.result.rows) << where;
      }
    }
  }
}

// Every batch width executes the same plan shape; each node's name,
// parent, logical row count and inclusive work must agree with the
// width-1 run on every engine — only calls/batches/phys_rows differ. (A
// cost charged per batch rather than per row shows up here.)
TEST_F(ProfileTest, BatchWidthsAgreePerNodeRowsAndWork) {
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_}, {"hybrid", hybrid_}, {"isolated", isolated_}};
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      const ProfiledRun unit = Run(e.engine, qid, /*dop=*/1, true, 1);
      for (const size_t width : {size_t{7}, size_t{1024}}) {
        const ProfiledRun run = Run(e.engine, qid, /*dop=*/1, true, width);
        const std::string where = std::string(e.label) + "/" +
                                  QueryName(qid) + "/batch_rows=" +
                                  std::to_string(width);
        EXPECT_EQ(run.result.rows, unit.result.rows) << where;
        EXPECT_DOUBLE_EQ(run.result.checksum, unit.result.checksum) << where;
        EXPECT_EQ(run.work, unit.work) << where;
        ASSERT_EQ(run.profile.size(), unit.profile.size()) << where;
        for (size_t i = 0; i < unit.profile.size(); ++i) {
          const obs::PlanProfileNode& u = unit.profile.node(i);
          const obs::PlanProfileNode& b = run.profile.node(i);
          const std::string node =
              where + " node " + std::to_string(i) + " (" + u.name + ")";
          EXPECT_EQ(b.name, u.name) << node;
          EXPECT_EQ(b.parent, u.parent) << node;
          EXPECT_EQ(b.rows_out, u.rows_out) << node;
          EXPECT_EQ(b.work_units, u.work_units) << node;
        }
      }
    }
  }
}

// Profiling must be a pure observer: same results (rows, checksum,
// freshness vector) and the same work-meter total with it on or off.
TEST_F(ProfileTest, ProfilingOnOffIsBitIdentical) {
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_}, {"hybrid", hybrid_}, {"isolated", isolated_}};
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      for (int dop : {1, 4}) {
        const ProfiledRun off =
            Run(e.engine, qid, dop, /*profiled=*/false);
        const ProfiledRun on =
            Run(e.engine, qid, dop, /*profiled=*/true);
        const std::string where = std::string(e.label) + "/" +
                                  QueryName(qid) + "/dop=" +
                                  std::to_string(dop);
        EXPECT_TRUE(off.profile.empty()) << where;
        EXPECT_EQ(off.result.rows, on.result.rows) << where;
        EXPECT_DOUBLE_EQ(off.result.checksum, on.result.checksum) << where;
        EXPECT_EQ(off.result.freshness, on.result.freshness) << where;
        EXPECT_EQ(off.work, on.work) << where;
      }
    }
  }
}

// A parallel plan routes shard work through the gather-merge exchange;
// the shard profiles are summed element-wise and grafted under it, so
// the tree still has one root and the exchange node reports its shards.
TEST_F(ProfileTest, ParallelPlanGraftsShardProfilesUnderGatherMerge) {
  const ProfiledRun serial = Run(shared_, /*qid=*/3, 1);
  const ProfiledRun parallel = Run(shared_, /*qid=*/3, 4);

  EXPECT_EQ(serial.result.rows, parallel.result.rows);
  EXPECT_EQ(CountRoots(parallel.profile), 1u);
  bool found_exchange = false;
  for (size_t i = 0; i < parallel.profile.size(); ++i) {
    const obs::PlanProfileNode& node = parallel.profile.node(i);
    if (node.name == "GatherMerge") {
      found_exchange = true;
      EXPECT_NE(node.detail.find("shards=4"), std::string::npos);
      EXPECT_FALSE(node.children.empty());
      EXPECT_EQ(node.rows_out, parallel.result.rows);
    }
  }
  EXPECT_TRUE(found_exchange);
  // The serial plan has no exchange node.
  for (size_t i = 0; i < serial.profile.size(); ++i) {
    EXPECT_NE(serial.profile.node(i).name, "GatherMerge");
  }
}

// Column scans on the hybrid engine fill the zone-map and
// bitmap-snapshot lane counters; every evaluated row is attributed to
// exactly one lane.
TEST_F(ProfileTest, ColumnScanReportsBlocksAndSnapshotLanes) {
  const ProfiledRun run = Run(hybrid_, /*qid=*/0, 1);
  bool found_scan = false;
  for (size_t i = 0; i < run.profile.size(); ++i) {
    const obs::PlanProfileNode& node = run.profile.node(i);
    if (node.name != "ColumnScan") continue;
    found_scan = true;
    EXPECT_GT(node.blocks_scanned + node.blocks_pruned, 0u) << node.detail;
    EXPECT_GT(node.rows_clean + node.rows_override + node.rows_insert, 0u)
        << node.detail;
  }
  EXPECT_TRUE(found_scan);
}

// Two identical executions export byte-identical text/JSON and the same
// digest; the digest is 16 lowercase hex digits.
TEST_F(ProfileTest, RenderingsAreDeterministicAcrossRuns) {
  const ProfiledRun a = Run(shared_, /*qid=*/0, 1);
  const ProfiledRun b = Run(shared_, /*qid=*/0, 1);
  EXPECT_EQ(a.profile.ToText(), b.profile.ToText());
  EXPECT_EQ(a.profile.ToJson(), b.profile.ToJson());
  EXPECT_EQ(a.profile.Digest(), b.profile.Digest());
  const std::string digest = a.profile.Digest();
  ASSERT_EQ(digest.size(), 16u);
  for (char c : digest) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << digest;
  }
  EXPECT_EQ(a.profile.ToJson().rfind("{\"profile_version\":1", 0), 0u);
  EXPECT_NE(a.profile.ToText().find("rows="), std::string::npos);
}

// Accumulate folds same-shaped executions (summing counters) and
// rejects mismatched shapes without modifying the accumulator.
TEST_F(ProfileTest, AccumulateSumsSameShapeAndRejectsMismatch) {
  const ProfiledRun a = Run(shared_, /*qid=*/0, 1);
  obs::PlanProfile folded;
  EXPECT_TRUE(folded.Accumulate(a.profile));
  EXPECT_TRUE(folded.Accumulate(a.profile));
  EXPECT_EQ(folded.executions(), 2u);
  EXPECT_EQ(RootRows(folded), 2 * RootRows(a.profile));

  const ProfiledRun other = Run(shared_, /*qid=*/3, 1);
  const std::string before = folded.ToJson();
  EXPECT_FALSE(folded.Accumulate(other.profile));
  EXPECT_EQ(folded.ToJson(), before);  // rejected fold left it unchanged
}

// ---------------------------------------------------------------------------
// Per-node golden: the serial plan's profile of every query on fresh and
// mutated engines, against plan_profile_golden.txt (format in its
// header). The row-at-a-time executor that produced the golden's rows
// and work is gone, so the golden carries its independent numbers.
// ---------------------------------------------------------------------------

/// FNV-1a over every node's width-independent fields: shape (name,
/// detail, parent, opens), logical rows_out, inclusive work and the
/// zone-map/lane counters. PlanProfile::Digest also mixes in calls,
/// batches and phys_rows, which depend on the batch width.
std::string NodeDigest(const obs::PlanProfile& profile) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < profile.size(); ++i) {
    const obs::PlanProfileNode& n = profile.node(i);
    const std::string text =
        "|" + n.name + "/" + n.detail + "/" + std::to_string(n.parent) + "/" +
        std::to_string(n.opens) + "/" + std::to_string(n.rows_out) + "/" +
        std::to_string(n.work_units) + "/" + std::to_string(n.blocks_scanned) +
        "/" + std::to_string(n.blocks_pruned) + "/" +
        std::to_string(n.rows_clean) + "/" + std::to_string(n.rows_override) +
        "/" + std::to_string(n.rows_insert);
    for (const char c : text) {
      hash ^= static_cast<uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The golden line of one serial execution of `qid`, plus its profile
/// text for a failure message.
std::string GoldenLine(HtapEngine* engine, int qid, std::string* text) {
  WorkMeter session_meter;
  AnalyticsSession session = engine->BeginAnalytics(&session_meter);
  WorkMeter meter;
  obs::PlanProfile profile;
  ExecContext ctx{&meter};
  ctx.profile = &profile;
  ctx.session_pin = session.guard;
  profile.set_label(QueryName(qid));
  OperatorPtr plan = BuildQueryPlan(qid, *session.source);
  const size_t rows = Collect(plan.get(), &ctx).size();
  uint64_t dropped = 0;
  for (size_t i = 0; i < profile.size(); ++i) {
    dropped += profile.node(i).join_filter_dropped;
  }
  *text = profile.ToText();
  return "nodes=" + NodeDigest(profile) +
         " work=" + std::to_string(meter.Total()) +
         " rows=" + std::to_string(rows) +
         " dropped=" + std::to_string(dropped);
}

/// The golden's mutation workload: `n` random transactions from `seed`.
void RunRandomWorkload(HtapEngine* engine, const Dataset& dataset,
                       uint64_t seed, int n) {
  WorkloadContext context(dataset);
  const EngineHandles handles =
      EngineHandles::Resolve(*engine->primary_catalog(), 4);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const TxnParams params = GenerateTxnParams(&context, &rng);
    const uint32_t client = 1 + static_cast<uint32_t>(i % 4);
    WorkMeter meter;
    const TxnOutcome outcome = engine->ExecuteTransaction(
        MakeTxnBody(params, handles, client, i + 1), client, i + 1, &meter);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
}

TEST_F(ProfileTest, PerNodeProfilesMatchGolden) {
  std::ifstream in(HATTRICK_PLAN_PROFILE_GOLDEN);
  ASSERT_TRUE(in.good()) << "cannot read " << HATTRICK_PLAN_PROFILE_GOLDEN;
  std::map<std::string, std::string> golden;  // "engine query" -> rest
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t query_end = line.find(' ', line.find(' ') + 1);
    golden[line.substr(0, query_end)] = line.substr(query_end + 1);
  }

  // Two engines after the same 200 transactions: MVCC version chains
  // under the row-store scans, a live bitmap delta under the column scans.
  SharedEngine shared_live;
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &shared_live).ok());
  RunRandomWorkload(&shared_live, *dataset_, 7, 200);
  HybridEngineConfig bitmap_config;
  bitmap_config.merge_mode = MergeMode::kBitmap;
  HybridEngine bitmap_live{bitmap_config};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &bitmap_live).ok());
  RunRandomWorkload(&bitmap_live, *dataset_, 7, 200);
  ASSERT_GT(bitmap_live.PendingDelta(), 0u);

  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_},          {"hybrid", hybrid_},
      {"isolated", isolated_},      {"shared-live", &shared_live},
      {"bitmap-live", &bitmap_live}};
  size_t checked = 0;
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      const std::string key = std::string(e.label) + " " + QueryName(qid);
      std::string text;
      const std::string got = GoldenLine(e.engine, qid, &text);
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << "no golden line for " << key;
      EXPECT_EQ(got, it->second) << key << "\n" << text;
      ++checked;
    }
  }
  EXPECT_EQ(checked, golden.size()) << "golden lines nothing checks";
}

}  // namespace
}  // namespace hattrick
