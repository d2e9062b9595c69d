// Tests for the 13 SSB query plans: agreement with the test-only SSB
// reference (plain loops over the raw dataset, tests/ssb_reference.h) on
// every engine, cross-engine result equivalence (row store vs replica vs
// column store), index-assisted plan equivalence, and the FRESHNESS
// read-back.

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "tests/ssb_reference.h"

namespace hattrick {
namespace {

class QueriesTest : public ::testing::Test {
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

  static QueryResult RunOn(HtapEngine* engine, int qid) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    return RunQuery(qid, *session.source, 4, &ctx);
  }

  static Dataset* dataset_;
  static SharedEngine* shared_;
  static HybridEngine* hybrid_;
  static IsolatedEngine* isolated_;
};

Dataset* QueriesTest::dataset_ = nullptr;
SharedEngine* QueriesTest::shared_ = nullptr;
HybridEngine* QueriesTest::hybrid_ = nullptr;
IsolatedEngine* QueriesTest::isolated_ = nullptr;

TEST_F(QueriesTest, QueryNames) {
  EXPECT_STREQ(QueryName(0), "Q1.1");
  EXPECT_STREQ(QueryName(3), "Q2.1");
  EXPECT_STREQ(QueryName(6), "Q3.1");
  EXPECT_STREQ(QueryName(12), "Q4.3");
}

/// RunQuery's checksum over `rows`: numeric cells add their value,
/// strings a hash bucket.
double Checksum(const std::vector<Row>& rows) {
  const std::hash<std::string> hasher;
  double sum = 0;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      sum += v.is_string() ? static_cast<double>(hasher(v.AsString()) % 1000003)
                           : v.AsDouble();
    }
  }
  return sum;
}

// Every query on every engine returns exactly the reference's rows: group
// keys, types, group order and every SUM to the last bit. Q4.1's profit
// included — the old naive Q4.1 check compared only the group count.
TEST_F(QueriesTest, EveryQueryMatchesReferenceOnEveryEngine) {
  const SsbTables tables = SsbTablesOf(*dataset_);
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_}, {"hybrid", hybrid_}, {"isolated", isolated_}};
  for (int qid = 0; qid < kNumQueries; ++qid) {
    const ReferenceResult want = ReferenceQuery(qid, tables);
    EXPECT_GT(want.fact_rows, 0u) << QueryName(qid) << " matches nothing";
    for (const auto& e : engines) {
      const std::string where = std::string(e.label) + " " + QueryName(qid);
      WorkMeter meter;
      AnalyticsSession session = e.engine->BeginAnalytics(&meter);
      ExecContext ctx{&meter};
      OperatorPtr plan = BuildQueryPlan(qid, *session.source);
      EXPECT_EQ(DiffRows(Collect(plan.get(), &ctx), want.rows), "") << where;
      // RunQuery, the drivers' path, folds the same rows.
      const QueryResult result = RunOn(e.engine, qid);
      EXPECT_EQ(result.rows, want.rows.size()) << where;
      EXPECT_DOUBLE_EQ(result.checksum, Checksum(want.rows)) << where;
    }
  }
}

TEST_F(QueriesTest, AllQueriesAgreeAcrossEngines) {
  // Row store (shared), row-store replica (isolated) and column store
  // (hybrid) must compute identical results on the loaded snapshot.
  for (int qid = 0; qid < kNumQueries; ++qid) {
    const QueryResult row_result = RunOn(shared_, qid);
    const QueryResult col_result = RunOn(hybrid_, qid);
    const QueryResult replica_result = RunOn(isolated_, qid);
    EXPECT_EQ(row_result.rows, col_result.rows) << QueryName(qid);
    EXPECT_EQ(row_result.rows, replica_result.rows) << QueryName(qid);
    const double tolerance = std::abs(row_result.checksum) * 1e-9 + 1e-6;
    EXPECT_NEAR(row_result.checksum, col_result.checksum, tolerance)
        << QueryName(qid);
    EXPECT_NEAR(row_result.checksum, replica_result.checksum, tolerance)
        << QueryName(qid);
  }
}

TEST_F(QueriesTest, IndexAssistedQ1MatchesSeqScan) {
  // The shared engine has lineorder_orderdate (all-indexes); the hybrid's
  // semi schema does not. Both must produce the same Q1 answers — already
  // covered above — and the index plan must actually engage.
  WorkMeter idx_meter;
  {
    AnalyticsSession session = shared_->BeginAnalytics(&idx_meter);
    ExecContext ctx{&idx_meter};
    RunQuery(1, *session.source, 0, &ctx);  // Q1.2: one month of dates
  }
  // Q1.2 touches ~1/84th of lineorder via the index: far fewer rows read
  // than the full table.
  EXPECT_LT(idx_meter.rows_read,
            dataset_->lineorder.size() / 4 + dataset_->date.size());
  EXPECT_GT(idx_meter.index_nodes, 0u);
}

TEST_F(QueriesTest, SelectiveQueriesReturnFewRowsButNonTrivialWork) {
  const QueryResult q34 = RunOn(shared_, 9);  // Q3.4: tiny city+month
  const QueryResult q31 = RunOn(shared_, 6);  // Q3.1: broad region query
  EXPECT_LE(q34.rows, q31.rows + 1);
}

TEST_F(QueriesTest, FreshnessReadbackInitiallyZero) {
  const QueryResult result = RunOn(shared_, 0);
  ASSERT_EQ(result.freshness.size(), 4u);
  for (int64_t v : result.freshness) EXPECT_EQ(v, 0);
}

TEST_F(QueriesTest, FreshnessReadbackSeesCommittedTxnNums) {
  // Use a dedicated engine so this test does not disturb the shared one.
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &engine).ok());
  const EngineHandles handles =
      EngineHandles::Resolve(*engine.primary_catalog(), 4);
  WorkloadContext context(*dataset_);

  TxnParams params;
  params.type = TxnType::kCountOrders;
  params.customer_name = CustomerName(1);
  WorkMeter meter;
  ASSERT_TRUE(engine
                  .ExecuteTransaction(
                      MakeTxnBody(params, handles, /*client=*/2,
                                  /*txn_num=*/41),
                      2, 41, &meter)
                  .status.ok());

  const QueryResult result = RunOn(&engine, 0);
  ASSERT_EQ(result.freshness.size(), 4u);
  EXPECT_EQ(result.freshness[0], 0);
  EXPECT_EQ(result.freshness[1], 41);
}

TEST_F(QueriesTest, PlansBuildForAllIds) {
  WorkMeter meter;
  AnalyticsSession session = shared_->BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_NE(BuildQueryPlan(qid, *session.source), nullptr) << qid;
  }
}

TEST_F(QueriesTest, DeterministicAcrossRuns) {
  for (int qid : {0, 3, 6, 10}) {
    const QueryResult a = RunOn(shared_, qid);
    const QueryResult b = RunOn(shared_, qid);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  }
}

}  // namespace
}  // namespace hattrick
