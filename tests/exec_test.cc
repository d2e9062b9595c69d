// Tests for the execution layer: expressions, relational operators
// (including randomized checks against naive reference implementations),
// and the row/column scan sources with pushdowns, zone-map pruning, and
// index-assisted scans.

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "storage/catalog.h"
#include "storage/column_table.h"

namespace hattrick {
namespace {

Row R(std::initializer_list<Value> values) { return Row(values); }

std::vector<Row> RunPlan(OperatorPtr op, WorkMeter* meter = nullptr) {
  WorkMeter local;
  ExecContext ctx{meter != nullptr ? meter : &local};
  return Collect(op.get(), &ctx);
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

TEST(ExpressionTest, ColumnAndLiteral) {
  const Row row = R({int64_t{5}, std::string("x")});
  EXPECT_EQ(Col(0)->Eval(row).AsInt(), 5);
  EXPECT_EQ(Col(1)->Eval(row).AsString(), "x");
  EXPECT_EQ(Lit(Value(int64_t{9}))->Eval(row).AsInt(), 9);
}

TEST(ExpressionTest, IntArithmetic) {
  const Row row = R({int64_t{6}, int64_t{4}});
  EXPECT_EQ(Add(Col(0), Col(1))->Eval(row).AsInt(), 10);
  EXPECT_EQ(Sub(Col(0), Col(1))->Eval(row).AsInt(), 2);
  EXPECT_EQ(Mul(Col(0), Col(1))->Eval(row).AsInt(), 24);
}

TEST(ExpressionTest, MixedArithmeticPromotesToDouble) {
  const Row row = R({int64_t{6}, 0.5});
  const Value v = Mul(Col(0), Col(1))->Eval(row);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.0);
}

TEST(ExpressionTest, Comparisons) {
  const Row row = R({int64_t{3}, int64_t{7}});
  EXPECT_TRUE(EvalBool(*Lt(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*Gt(Col(0), Col(1)), row));
  EXPECT_TRUE(EvalBool(*Le(Col(0), Lit(Value(int64_t{3}))), row));
  EXPECT_TRUE(EvalBool(*Ge(Col(1), Lit(Value(int64_t{7}))), row));
  EXPECT_TRUE(EvalBool(*Ne(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*Eq(Col(0), Col(1)), row));
}

TEST(ExpressionTest, LogicShortCircuits) {
  const Row row = R({int64_t{1}, int64_t{0}});
  EXPECT_TRUE(EvalBool(*Or(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*And(Col(0), Col(1)), row));
  EXPECT_TRUE(EvalBool(*Not(Col(1)), row));
}

TEST(ExpressionTest, BetweenInclusive) {
  EXPECT_TRUE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{1}})));
  EXPECT_TRUE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{3}})));
  EXPECT_FALSE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{4}})));
}

TEST(ExpressionTest, InList) {
  const ExprPtr e =
      InList(Col(0), {Value("a"), Value("b")});
  EXPECT_TRUE(EvalBool(*e, R({std::string("a")})));
  EXPECT_FALSE(EvalBool(*e, R({std::string("c")})));
}

TEST(ExpressionTest, ToStringIsReadable) {
  EXPECT_EQ(Eq(Col(0), Lit(Value(int64_t{5})))->ToString(), "($0 = 5)");
}

// --------------------------------------------------------------------------
// Operators
// --------------------------------------------------------------------------

TEST(OperatorTest, FilterKeepsMatching) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(R({int64_t{i}}));
  auto out = RunPlan(MakeFilter(MakeValuesScan(rows),
                            Ge(Col(0), Lit(Value(int64_t{7})))));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0].AsInt(), 7);
}

TEST(OperatorTest, ProjectComputesExpressions) {
  auto out = RunPlan(MakeProject(MakeValuesScan({R({int64_t{2}, int64_t{3}})}),
                             {Mul(Col(0), Col(1)), Col(0)}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 6);
  EXPECT_EQ(out[0][1].AsInt(), 2);
}

TEST(OperatorTest, HashJoinMatchesPairs) {
  std::vector<Row> probe = {R({int64_t{1}, std::string("p1")}),
                            R({int64_t{2}, std::string("p2")}),
                            R({int64_t{3}, std::string("p3")})};
  std::vector<Row> build = {R({int64_t{2}, std::string("b2")}),
                            R({int64_t{3}, std::string("b3")}),
                            R({int64_t{4}, std::string("b4")})};
  auto out = RunPlan(MakeHashJoin(MakeValuesScan(probe), 0,
                              MakeValuesScan(build), 0));
  ASSERT_EQ(out.size(), 2u);
  // Output = probe row ++ build row.
  for (const Row& row : out) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].AsInt(), row[2].AsInt());
  }
}

TEST(OperatorTest, HashJoinDuplicateBuildKeys) {
  std::vector<Row> probe = {R({int64_t{1}})};
  std::vector<Row> build = {R({int64_t{1}, std::string("a")}),
                            R({int64_t{1}, std::string("b")})};
  auto out = RunPlan(MakeHashJoin(MakeValuesScan(probe), 0,
                              MakeValuesScan(build), 0));
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorTest, HashJoinEmptySides) {
  EXPECT_TRUE(RunPlan(MakeHashJoin(MakeValuesScan({}), 0,
                               MakeValuesScan({R({int64_t{1}})}), 0))
                  .empty());
  EXPECT_TRUE(RunPlan(MakeHashJoin(MakeValuesScan({R({int64_t{1}})}), 0,
                               MakeValuesScan({}), 0))
                  .empty());
}

TEST(OperatorTest, HashAggregateGroupsAndSums) {
  std::vector<Row> rows = {R({std::string("a"), int64_t{1}}),
                           R({std::string("b"), int64_t{2}}),
                           R({std::string("a"), int64_t{3}})};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  aggs.push_back({AggSpec::Kind::kCount, nullptr});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan(rows), {Col(0)},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 2u);  // groups a, b in key order
  EXPECT_EQ(out[0][0].AsString(), "a");
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(out[0][2].AsDouble(), 2.0);
  EXPECT_EQ(out[1][0].AsString(), "b");
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 2.0);
}

TEST(OperatorTest, HashAggregateMinMax) {
  std::vector<Row> rows = {R({int64_t{5}}), R({int64_t{-2}}),
                           R({int64_t{9}})};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kMin, Col(0)});
  aggs.push_back({AggSpec::Kind::kMax, Col(0)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan(rows), {},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), -2.0);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 9.0);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputEmitsZeroRow) {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(0)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan({}), {},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), 0.0);
}

TEST(OperatorTest, GroupedAggregateOnEmptyInputIsEmpty) {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan({}), {Col(0)},
                                   std::move(aggs)));
  EXPECT_TRUE(out.empty());
}

TEST(OperatorTest, OrderBySortsAscendingAndDescending) {
  std::vector<Row> rows = {R({int64_t{2}}), R({int64_t{3}}),
                           R({int64_t{1}})};
  auto asc = RunPlan(MakeOrderBy(MakeValuesScan(rows), {{Col(0), true}}));
  EXPECT_EQ(asc[0][0].AsInt(), 1);
  EXPECT_EQ(asc[2][0].AsInt(), 3);
  auto desc = RunPlan(MakeOrderBy(MakeValuesScan(rows), {{Col(0), false}}));
  EXPECT_EQ(desc[0][0].AsInt(), 3);
}

TEST(OperatorTest, OrderByTieBreaksWithSecondKey) {
  std::vector<Row> rows = {R({int64_t{1}, std::string("b")}),
                           R({int64_t{1}, std::string("a")})};
  auto out = RunPlan(MakeOrderBy(MakeValuesScan(rows),
                             {{Col(0), true}, {Col(1), true}}));
  EXPECT_EQ(out[0][1].AsString(), "a");
}

// Randomized join+aggregate against a reference implementation.
class ExecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecPropertyTest, JoinAggregateMatchesReference) {
  Rng rng(GetParam());
  std::vector<Row> fact;
  std::vector<Row> dim;
  const int num_keys = 20;
  for (int i = 0; i < num_keys; ++i) {
    dim.push_back(R({int64_t{i}, std::string(i % 3 == 0 ? "g0" : "g1")}));
  }
  for (int i = 0; i < 500; ++i) {
    fact.push_back(
        R({rng.Uniform(0, num_keys + 5), rng.Uniform(1, 100)}));
  }

  // Reference: sum fact.v grouped by dim.group for joined keys.
  std::map<std::string, double> expected;
  for (const Row& f : fact) {
    const int64_t k = f[0].AsInt();
    if (k < num_keys) {
      expected[k % 3 == 0 ? "g0" : "g1"] += static_cast<double>(f[1].AsInt());
    }
  }

  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  auto out = RunPlan(MakeHashAggregate(
      MakeHashJoin(MakeValuesScan(fact), 0, MakeValuesScan(dim), 0),
      {Col(3)}, std::move(aggs)));

  std::map<std::string, double> got;
  for (const Row& row : out) got[row[0].AsString()] = row[1].AsDouble();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_NEAR(got[k], v, 1e-6) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------------------------------------
// Scan sources
// --------------------------------------------------------------------------

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = catalog_.CreateTable(
        "t", Schema({{"k", DataType::kInt64},
                     {"v", DataType::kDouble},
                     {"s", DataType::kString}}));
    catalog_.CreateIndex("t_k", "t", {0}, false);
    column_ = std::make_unique<ColumnTable>(table_->schema());
    for (int i = 0; i < 2500; ++i) {
      const Row row{int64_t{i}, static_cast<double>(i) / 2,
                    std::string(i % 2 == 0 ? "even" : "odd")};
      const Rid rid = table_->Insert(row, 1, nullptr);
      catalog_.GetIndex("t_k")->tree->Insert(
          catalog_.GetIndex("t_k")->KeyFor(row, rid), rid, nullptr);
      ASSERT_TRUE(column_->Append(row, nullptr).ok());
    }
  }

  ScanSpec BaseSpec() {
    ScanSpec spec;
    spec.table = "t";
    spec.projection = {0, 2};
    return spec;
  }

  Catalog catalog_;
  RowTable* table_ = nullptr;
  std::unique_ptr<ColumnTable> column_;
};

TEST_F(ScanTest, RowScanProjectsAndFilters) {
  RowDataSource source(&catalog_, /*snapshot=*/1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 10, 19}};
  spec.str_in = {{2, {"even"}}};
  auto out = RunPlan(source.Scan(spec));
  ASSERT_EQ(out.size(), 5u);  // 10,12,14,16,18
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_EQ(out[0][0].AsInt(), 10);
  EXPECT_EQ(out[0][1].AsString(), "even");
}

TEST_F(ScanTest, RowScanHonorsSnapshot) {
  // New row inserted at ts=5 is invisible to a snapshot at ts=1.
  table_->Insert(Row{int64_t{9999}, 0.0, std::string("even")}, 5, nullptr);
  RowDataSource old_source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 9999, 9999}};
  EXPECT_TRUE(RunPlan(old_source.Scan(spec)).empty());
  RowDataSource new_source(&catalog_, 5);
  EXPECT_EQ(RunPlan(new_source.Scan(spec)).size(), 1u);
}

TEST_F(ScanTest, ColumnScanMatchesRowScan) {
  RowDataSource row_source(&catalog_, 1);
  ColumnDataSource col_source;
  col_source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{1, 100.0, 200.0}};  // v in [100, 200]
  spec.str_in = {{2, {"odd"}}};
  auto rows = RunPlan(row_source.Scan(spec));
  auto cols = RunPlan(col_source.Scan(spec));
  ASSERT_EQ(rows.size(), cols.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], cols[i]);
}

TEST_F(ScanTest, ColumnScanRespectsBound) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), /*bound=*/100);
  auto out = RunPlan(source.Scan(BaseSpec()));
  EXPECT_EQ(out.size(), 100u);
}

TEST_F(ScanTest, ColumnScanImpossibleStringPredicate) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.str_in = {{2, {"no-such-value"}}};
  EXPECT_TRUE(RunPlan(source.Scan(spec)).empty());
}

TEST_F(ScanTest, ZoneMapPruningSkipsBlocks) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 0, 10}};  // first block only (k ascending)
  WorkMeter meter;
  auto out = RunPlan(source.Scan(spec), &meter);
  EXPECT_EQ(out.size(), 11u);
  // Cells evaluated must be far below a full 2500-row scan: only block 0
  // (1024 rows) and the pruned remainder contribute.
  EXPECT_LT(meter.column_values, 1200 * 3u);
}

TEST_F(ScanTest, IndexHintUsesIndexScan) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 59}};
  spec.index_hint = "t_k";
  WorkMeter meter;
  auto out = RunPlan(source.Scan(spec), &meter);
  ASSERT_EQ(out.size(), 10u);
  // Index scan touches ~10 rows, not 2500.
  EXPECT_LT(meter.rows_read, 50u);
  EXPECT_GT(meter.index_nodes, 0u);
}

TEST_F(ScanTest, IndexHintFallsBackWhenIndexMissing) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 59}};
  spec.index_hint = "no_such_index";
  auto out = RunPlan(source.Scan(spec));
  EXPECT_EQ(out.size(), 10u);  // same answer via sequential scan
}

TEST_F(ScanTest, IndexScanResultsMatchSeqScan) {
  RowDataSource source(&catalog_, 1);
  ScanSpec seq = BaseSpec();
  seq.ranges = {{0, 100, 220}};
  seq.str_in = {{2, {"odd"}}};
  ScanSpec idx = seq;
  idx.index_hint = "t_k";
  auto a = RunPlan(source.Scan(seq));
  auto b = RunPlan(source.Scan(idx));
  ASSERT_EQ(a.size(), b.size());
  // Index scan returns in key order == rid order here.
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// --------------------------------------------------------------------------
// Expression ToString coverage (one assertion per node type)
// --------------------------------------------------------------------------

TEST(ExpressionTest, ToStringCoversEveryNodeType) {
  EXPECT_EQ(Col(3)->ToString(), "$3");
  EXPECT_EQ(Lit(Value(int64_t{5}))->ToString(), "5");
  EXPECT_EQ(Lit(Value(2.5))->ToString(), "2.5000");
  EXPECT_EQ(Lit(Value("x"))->ToString(), "x");
  EXPECT_EQ(Add(Col(0), Col(1))->ToString(), "($0 + $1)");
  EXPECT_EQ(Sub(Col(0), Col(1))->ToString(), "($0 - $1)");
  EXPECT_EQ(Mul(Col(0), Col(1))->ToString(), "($0 * $1)");
  EXPECT_EQ(Eq(Col(0), Col(1))->ToString(), "($0 = $1)");
  EXPECT_EQ(Ne(Col(0), Col(1))->ToString(), "($0 <> $1)");
  EXPECT_EQ(Lt(Col(0), Col(1))->ToString(), "($0 < $1)");
  EXPECT_EQ(Le(Col(0), Col(1))->ToString(), "($0 <= $1)");
  EXPECT_EQ(Gt(Col(0), Col(1))->ToString(), "($0 > $1)");
  EXPECT_EQ(Ge(Col(0), Col(1))->ToString(), "($0 >= $1)");
  EXPECT_EQ(And(Col(0), Col(1))->ToString(), "($0 AND $1)");
  EXPECT_EQ(Or(Col(0), Col(1))->ToString(), "($0 OR $1)");
  EXPECT_EQ(Not(Col(0))->ToString(), "NOT $0");
  // Between lowers to the conjunction of two inclusive comparisons.
  EXPECT_EQ(Between(Col(0), Value(int64_t{1}), Value(int64_t{3}))->ToString(),
            "(($0 >= 1) AND ($0 <= 3))");
  EXPECT_EQ(InList(Col(0), {Value("a"), Value("b")})->ToString(),
            "$0 IN (a, b)");
}

// --------------------------------------------------------------------------
// Vectorized execution: EvalBatch and batch-at-a-time operators must be
// bit-identical to the retained row-at-a-time oracle, including metered
// work, at any batch size.
// --------------------------------------------------------------------------

TEST(BatchTest, DefaultBatchRowsMatchesZoneMapBlocks) {
  // A full batch must never straddle a zone-map block boundary, which the
  // column scan relies on for pruning parity at any batch size.
  EXPECT_EQ(kDefaultBatchRows, ColumnTable::kBlockRows);
}

TEST(BatchTest, SelectionVectorBasics) {
  Batch b;
  b.AppendRow(R({int64_t{10}}));
  b.AppendRow(R({int64_t{20}}));
  b.AppendRow(R({int64_t{30}}));
  EXPECT_EQ(b.ActiveRows(), 3u);
  b.sel.idx = {0, 2};
  b.filtered = true;
  ASSERT_EQ(b.ActiveRows(), 2u);
  EXPECT_EQ(b.cols[0].ints[b.ActiveIndex(1)], 30);
  std::vector<Row> out;
  b.AppendActiveRows(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][0].AsInt(), 30);
}

TEST(BatchTest, AppendRowSplitsOnTypeSkew) {
  Batch b;
  b.AppendRow(R({int64_t{1}}));
  EXPECT_TRUE(b.TypesMatch(R({int64_t{2}})));
  EXPECT_FALSE(b.TypesMatch(R({std::string("s")})));
  EXPECT_FALSE(b.TypesMatch(R({int64_t{1}, int64_t{2}})));
}

// Evaluates every expression-kernel shape over randomized rows and checks
// the vectorized result cell-for-cell against the per-row interpreter.
TEST(ExpressionTest, EvalBatchMatchesEvalOracle) {
  Rng rng(99);
  const std::vector<std::string> strings = {"a", "b", "c"};
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(R({rng.Uniform(-5, 5), rng.Uniform(0, 10),
                      static_cast<double>(rng.Uniform(-100, 100)) / 4,
                      Value(strings[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(strings.size()) - 1))])}));
  }
  Batch batch;
  for (const Row& row : rows) batch.AppendRow(row);

  const std::vector<ExprPtr> exprs = {
      Col(0),
      Col(3),
      Lit(Value(int64_t{7})),
      Lit(Value(1.5)),
      Lit(Value("b")),
      Add(Col(0), Col(1)),
      Sub(Col(0), Lit(Value(int64_t{2}))),
      Mul(Col(0), Col(1)),
      Add(Col(0), Col(2)),  // int + double promotes
      Mul(Col(2), Lit(Value(2.0))),
      Lt(Col(0), Col(1)),
      Le(Col(2), Lit(Value(0.5))),
      Gt(Col(2), Col(0)),
      Ge(Col(1), Lit(Value(int64_t{5}))),
      Eq(Col(3), Lit(Value("a"))),
      Ne(Col(3), Lit(Value("c"))),
      Lt(Col(3), Lit(Value("b"))),
      Eq(Col(0), Col(3)),  // mixed int/string: row-fallback path
      And(Lt(Col(0), Col(1)), Eq(Col(3), Lit(Value("a")))),
      Or(Ge(Col(0), Lit(Value(int64_t{4}))), Eq(Col(3), Lit(Value("b")))),
      Not(Eq(Col(3), Lit(Value("c")))),
      Between(Col(0), Value(int64_t{-1}), Value(int64_t{3})),
      InList(Col(3), {Value("a"), Value("c")}),
      InList(Col(0), {Value(int64_t{0}), Value(int64_t{2})}),
  };
  for (const ExprPtr& e : exprs) {
    ColumnVector vec;
    e->EvalBatch(batch, &vec);
    ASSERT_EQ(vec.size(), rows.size()) << e->ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value want = e->Eval(rows[i]);
      const Value got = vec.GetValue(i);
      ASSERT_EQ(want.type(), got.type()) << e->ToString() << " row " << i;
      ASSERT_EQ(want, got) << e->ToString() << " row " << i;
    }
  }
}

using PlanFactory = std::function<OperatorPtr()>;

std::vector<Row> RunWithMode(const PlanFactory& make, bool vectorized,
                             size_t batch_rows, WorkMeter* meter) {
  ExecContext ctx{meter};
  ctx.vectorized = vectorized;
  ctx.batch_rows = batch_rows;
  OperatorPtr plan = make();
  return Collect(plan.get(), &ctx);
}

void ExpectSameMeter(const WorkMeter& got, const WorkMeter& want) {
  EXPECT_EQ(got.rows_read, want.rows_read);
  EXPECT_EQ(got.rows_written, want.rows_written);
  EXPECT_EQ(got.index_nodes, want.index_nodes);
  EXPECT_EQ(got.index_writes, want.index_writes);
  EXPECT_EQ(got.column_values, want.column_values);
  EXPECT_EQ(got.output_rows, want.output_rows);
  EXPECT_EQ(got.hash_probes, want.hash_probes);
  EXPECT_EQ(got.version_hops, want.version_hops);
  EXPECT_EQ(got.Total(), want.Total());
}

/// Runs `make`'s plan through the row oracle and through the vectorized
/// path at degenerate, tiny, odd, and default batch sizes; results and
/// metered work must match exactly in every configuration. Returns the
/// oracle's rows.
std::vector<Row> ExpectBatchMatchesRowOracle(const PlanFactory& make) {
  WorkMeter oracle_meter;
  const std::vector<Row> oracle =
      RunWithMode(make, /*vectorized=*/false, 1, &oracle_meter);
  for (const size_t batch_rows :
       {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    WorkMeter meter;
    const std::vector<Row> got =
        RunWithMode(make, /*vectorized=*/true, batch_rows, &meter);
    EXPECT_EQ(got.size(), oracle.size());
    for (size_t i = 0; i < std::min(got.size(), oracle.size()); ++i) {
      EXPECT_EQ(got[i], oracle[i]) << "row " << i;
      if (got[i] != oracle[i]) break;  // report the first difference only
    }
    ExpectSameMeter(meter, oracle_meter);
  }
  return oracle;
}

TEST(BatchDifferentialTest, FilterProject) {
  std::vector<Row> rows;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    rows.push_back(R({rng.Uniform(0, 50), rng.Uniform(0, 100)}));
  }
  ExpectBatchMatchesRowOracle([&] {
    return MakeProject(
        MakeFilter(MakeValuesScan(rows),
                   And(Ge(Col(0), Lit(Value(int64_t{10}))),
                       Lt(Col(1), Lit(Value(int64_t{80}))))),
        {Add(Col(0), Col(1)), Mul(Col(0), Lit(Value(int64_t{3})))});
  });
}

TEST(BatchDifferentialTest, FilterRejectingEverything) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(R({int64_t{i}}));
  ExpectBatchMatchesRowOracle([&] {
    return MakeFilter(MakeValuesScan(rows), Lt(Col(0), Lit(Value(int64_t{0}))));
  });
}

TEST(BatchDifferentialTest, JoinAggregateOrderBy) {
  Rng rng(42);
  std::vector<Row> fact;
  std::vector<Row> dim;
  for (int i = 0; i < 25; ++i) {
    dim.push_back(R({int64_t{i}, Value(i % 4 == 0 ? "g0" : "g1")}));
  }
  for (int i = 0; i < 600; ++i) {
    fact.push_back(R({rng.Uniform(0, 30), rng.Uniform(1, 100)}));
  }
  ExpectBatchMatchesRowOracle([&] {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(1)});
    aggs.push_back({AggSpec::Kind::kCount, nullptr});
    aggs.push_back({AggSpec::Kind::kMin, Col(1)});
    aggs.push_back({AggSpec::Kind::kMax, Col(1)});
    return MakeOrderBy(
        MakeHashAggregate(
            MakeHashJoin(MakeValuesScan(fact), 0, MakeValuesScan(dim), 0),
            {Col(3)}, std::move(aggs)),
        {{Col(1), false}});
  });
}

TEST(BatchDifferentialTest, GlobalAggregateEmptyInput) {
  ExpectBatchMatchesRowOracle([] {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(0)});
    return MakeHashAggregate(MakeValuesScan({}), {}, std::move(aggs));
  });
}

TEST_F(ScanTest, RowScanBatchMatchesRowOracle) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 100, 1500}};
  spec.str_in = {{2, {"even"}}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, ColumnScanBatchMatchesRowOracle) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.projection = {0, 1, 2};
  spec.ranges = {{0, 900, 2100}, {1, 0.0, 1000.0}};
  spec.str_in = {{2, {"odd"}}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, ColumnScanBatchPrunesLikeRowOracle) {
  // Predicate selects only the first zone-map block, so pruning parity is
  // load-bearing for the meter comparison inside the harness.
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 0, 10}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, IndexScanBatchMatchesRowOracle) {
  // The index range scan's native batch path (rid fetches through
  // RowTable::VisitRids, rows by reference) against its Read-based row
  // path.
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 400}};
  spec.index_hint = "t_k";
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });

  // It is the batch path that ran: the profile counts the index scan's
  // batches (row-at-a-time Next calls count none).
  obs::PlanProfile profile;
  ExecContext ctx;
  ctx.batch_rows = 1024;
  ctx.profile = &profile;
  OperatorPtr plan = source.Scan(spec);
  EXPECT_EQ(Collect(plan.get(), &ctx).size(), 351u);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile.node(0).name, "IndexScan");
  EXPECT_EQ(profile.node(0).batches, 1u);
}

TEST_F(ScanTest, RowStoreScansOverVersionChainsMatchRowOracle) {
  // Give the table every kind of chain a row-store scan resolves: full
  // updates, delta runs, tombstones, and pending and aborted heads. The
  // key column (0) keeps its value, so the index still finds every rid.
  Rng rng(5);
  int pending = 0;
  for (Rid rid = 0; rid < 2500; rid += 3) {
    const Ts ts = 2 + static_cast<Ts>(rng.Uniform(0, 8));
    const Row after{int64_t(rid), static_cast<double>(rid) + 0.25,
                    std::string(rid % 2 == 0 ? "even" : "odd")};
    switch (rng.Uniform(0, 4)) {
      case 0:
        ASSERT_TRUE(table_->AddVersion(rid, after, ts, nullptr).ok());
        break;
      case 1:
        ASSERT_TRUE(
            table_->AddDeltaVersion(rid, 1, Value(1.5), ts, nullptr).ok());
        ASSERT_TRUE(
            table_->AddDeltaVersion(rid, 1, Value(2.0), ts + 1, nullptr)
                .ok());
        break;
      case 2:
        ASSERT_TRUE(table_->MarkDeleted(rid, ts, nullptr).ok());
        break;
      case 3: {
        mvcc::VersionNode* node =
            table_->TryInstallFull(rid, after, &pending, kMaxTs, nullptr);
        ASSERT_NE(node, nullptr);
        mvcc::Withdraw(node);
        break;
      }
      default:
        ASSERT_NE(table_->TryInstallFull(rid, after, &pending, kMaxTs,
                                         nullptr),
                  nullptr);  // left in flight
        break;
    }
  }
  for (const Ts snapshot : {Ts{1}, Ts{4}, Ts{7}, Ts{20}}) {
    SCOPED_TRACE("snapshot=" + std::to_string(snapshot));
    RowDataSource source(&catalog_, snapshot);
    ScanSpec heap = BaseSpec();
    heap.projection = {0, 1, 2};
    heap.ranges = {{1, 100, 1000}};
    EXPECT_FALSE(
        ExpectBatchMatchesRowOracle([&] { return source.Scan(heap); })
            .empty());
    ScanSpec index = heap;
    index.ranges = {{0, 150, 1700}, {1, 100, 800}};
    index.str_in = {{2, {"odd"}}};
    index.index_hint = "t_k";
    EXPECT_FALSE(
        ExpectBatchMatchesRowOracle([&] { return source.Scan(index); })
            .empty());
  }
}

TEST_F(ScanTest, FullPlanOverColumnScanMatchesRowOracle) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ExpectBatchMatchesRowOracle([&] {
    ScanSpec spec;
    spec.table = "t";
    spec.projection = {0, 1, 2};
    spec.ranges = {{0, 0, 2000}};
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(1)});
    aggs.push_back({AggSpec::Kind::kCount, nullptr});
    return MakeHashAggregate(
        MakeFilter(source.Scan(spec), Eq(Col(2), Lit(Value("even")))),
        {Col(2)}, std::move(aggs));
  });
}

// --------------------------------------------------------------------------
// Typed hash join and group-by: the batch path (typed open-addressing
// tables, index-gather output) against the row oracle, plus the key-type
// rule both paths share.
// --------------------------------------------------------------------------

TEST(HashTableTest, KeyIndexFindsEveryKeyAcrossGrowth) {
  KeyIndex<int64_t> index;
  for (int64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(index.FindOrInsert(k * 7919 - 20000, static_cast<uint32_t>(k)),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(index.size(), 5000u);
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(index.Find(k * 7919 - 20000), static_cast<uint32_t>(k));
    // A present key keeps its id; the fresh id is ignored.
    ASSERT_EQ(index.FindOrInsert(k * 7919 - 20000, 99999),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(index.Find(1), KeyIndex<int64_t>::kNone);
}

TEST(HashTableTest, DoubleKeysCompareByBitPattern) {
  // Same equivalence as the encoded key bytes of the row path.
  KeyIndex<double> index;
  index.FindOrInsert(0.0, 0);
  EXPECT_EQ(index.Find(0.0), 0u);
  EXPECT_EQ(index.Find(-0.0), KeyIndex<double>::kNone);
}

TEST(HashTableTest, JoinTableChainsDuplicatesInInsertionOrder) {
  JoinTable<std::string> table;
  table.Build({"a", "b", "a", "c", "a"});
  std::vector<uint32_t> chain;
  for (uint32_t r = table.First("a"); r != JoinTable<std::string>::kNone;
       r = table.Next(r)) {
    chain.push_back(r);
  }
  EXPECT_EQ(chain, (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(table.First("b"), 1u);
  EXPECT_EQ(table.Next(1), JoinTable<std::string>::kNone);
  EXPECT_EQ(table.First("z"), JoinTable<std::string>::kNone);
}

OperatorPtr JoinOf(const std::vector<Row>& probe,
                   const std::vector<Row>& build) {
  return MakeHashJoin(MakeValuesScan(probe), 0, MakeValuesScan(build), 0);
}

TEST(TypedJoinTest, DuplicateBuildKeysStraddleOutputBatches) {
  // Five matches per probe row: at batch_rows 1, 2 and 7 the chains are
  // cut by full output batches and must resume in insertion order.
  std::vector<Row> build;
  for (int i = 0; i < 5; ++i) {
    build.push_back(R({int64_t{1}, std::string(1, "abcde"[i])}));
    build.push_back(R({int64_t{2}, std::string(1, "vwxyz"[i])}));
  }
  std::vector<Row> probe = {R({int64_t{1}, int64_t{10}}),
                            R({int64_t{3}, int64_t{11}}),
                            R({int64_t{2}, int64_t{12}}),
                            R({int64_t{1}, int64_t{13}})};
  const std::vector<Row> out =
      ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, build); });
  ASSERT_EQ(out.size(), 15u);
  EXPECT_EQ(out[0][3].AsString(), "a");
  EXPECT_EQ(out[4][3].AsString(), "e");
  EXPECT_EQ(out[5][1].AsInt(), 12);
  EXPECT_EQ(out[5][3].AsString(), "v");
  EXPECT_EQ(out[14][1].AsInt(), 13);
  EXPECT_EQ(out[14][3].AsString(), "e");
}

TEST(TypedJoinTest, EmptyBuildSideStillProbesEveryRow) {
  std::vector<Row> probe;
  for (int i = 0; i < 40; ++i) probe.push_back(R({int64_t{i}}));
  EXPECT_TRUE(ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, {}); })
                  .empty());
  WorkMeter meter;
  RunPlan(JoinOf(probe, {}), &meter);
  EXPECT_EQ(meter.hash_probes, 40u);
}

TEST(TypedJoinTest, EmptyProbeSide) {
  std::vector<Row> build = {R({int64_t{1}, 1.5}), R({int64_t{2}, 2.5})};
  EXPECT_TRUE(ExpectBatchMatchesRowOracle([&] { return JoinOf({}, build); })
                  .empty());
}

TEST(TypedJoinTest, FullyFilteredProbeBatches) {
  // The filter rejects long runs of probe rows, so at small widths whole
  // probe batches vanish before the join and the surviving batches carry
  // sparse selection vectors; a further run survives but never matches.
  std::vector<Row> probe;
  for (int64_t i = 0; i < 300; ++i) probe.push_back(R({i % 40, i}));
  std::vector<Row> build;
  for (int i = 0; i < 30; ++i) build.push_back(R({int64_t{i}, int64_t{-i}}));
  const std::vector<Row> out = ExpectBatchMatchesRowOracle([&] {
    return MakeHashJoin(
        MakeFilter(MakeValuesScan(probe),
                   Or(Lt(Col(1), Lit(Value(int64_t{3}))),
                      Between(Col(1), Value(int64_t{150}),
                              Value(int64_t{175})))),
        0, MakeValuesScan(build), 0);
  });
  // Rows 0..2 match; of rows 150..175, keys 30..39 (rows 150..159) miss.
  EXPECT_EQ(out.size(), 3u + 16u);
}

TEST(TypedJoinTest, DoubleKeys) {
  Rng rng(5);
  std::vector<Row> build;
  for (int i = 0; i < 20; ++i) {
    build.push_back(R({static_cast<double>(i) / 4 - 2, int64_t{i}}));
  }
  build.push_back(R({0.25, int64_t{100}}));  // duplicate key
  std::vector<Row> probe;
  for (int i = 0; i < 200; ++i) {
    probe.push_back(R({static_cast<double>(rng.Uniform(-12, 20)) / 4,
                       std::string("p") + std::to_string(i)}));
  }
  EXPECT_FALSE(ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, build); })
                   .empty());
}

TEST(TypedJoinTest, StringKeys) {
  Rng rng(6);
  const std::vector<std::string> names = {"", "a", "ab", "abc",
                                          std::string("a\0b", 3),
                                          "a-much-longer-key-than-sso"};
  std::vector<Row> build;
  for (size_t i = 0; i < names.size(); ++i) {
    build.push_back(R({Value(names[i]), static_cast<double>(i)}));
  }
  build.push_back(R({Value(std::string("ab")), 99.0}));  // duplicate key
  std::vector<Row> probe;
  for (int i = 0; i < 200; ++i) {
    const int64_t pick = rng.Uniform(0, static_cast<int64_t>(names.size()));
    probe.push_back(R({Value(pick == static_cast<int64_t>(names.size())
                                 ? std::string("miss")
                                 : names[static_cast<size_t>(pick)]),
                       int64_t{i}}));
  }
  EXPECT_FALSE(ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, build); })
                   .empty());
}

/// SUM/COUNT/MIN/MAX of column 1 grouped by the given columns.
OperatorPtr GroupOf(const std::vector<Row>& rows, std::vector<size_t> cols) {
  std::vector<ExprPtr> group_by;
  for (const size_t c : cols) group_by.push_back(Col(c));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  aggs.push_back({AggSpec::Kind::kCount, nullptr});
  aggs.push_back({AggSpec::Kind::kMin, Col(1)});
  aggs.push_back({AggSpec::Kind::kMax, Col(1)});
  return MakeHashAggregate(MakeValuesScan(rows), std::move(group_by),
                           std::move(aggs));
}

TEST(TypedGroupByTest, IntDoubleAndStringKeysMatchRowOrder) {
  Rng rng(8);
  const std::vector<std::string> strings = {"b", "a", "", "ba", "aa"};
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(R({rng.Uniform(-6, 6),
                      static_cast<double>(rng.Uniform(-40, 40)) / 8,
                      static_cast<double>(rng.Uniform(-3, 3)) / 2,
                      Value(strings[static_cast<size_t>(rng.Uniform(0, 4))])}));
  }
  for (const std::vector<size_t>& cols :
       std::vector<std::vector<size_t>>{{0}, {2}, {3}, {3, 0}, {2, 3, 0}, {}}) {
    SCOPED_TRACE("group columns: " + std::to_string(cols.size()));
    const std::vector<Row> out =
        ExpectBatchMatchesRowOracle([&] { return GroupOf(rows, cols); });
    ASSERT_FALSE(out.empty());
  }
  // Int groups come out in numeric order (negatives first).
  const std::vector<Row> by_int =
      ExpectBatchMatchesRowOracle([&] { return GroupOf(rows, {0}); });
  ASSERT_EQ(by_int.size(), 13u);
  for (size_t g = 0; g < by_int.size(); ++g) {
    EXPECT_EQ(by_int[g][0].AsInt(), static_cast<int64_t>(g) - 6);
  }
}

TEST(TypedGroupByTest, PartialAggregateOnEmptyInputIsEmpty) {
  ExpectBatchMatchesRowOracle([] {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kMin, Col(0)});
    return MakePartialHashAggregate(MakeValuesScan({}), {}, std::move(aggs));
  });
}

// int64 0x4000000000000000 and double 2.0 have identical EncodeValue
// bytes; the typed keys keep them apart on both paths.
constexpr int64_t kTwoAsDoubleBits = int64_t{0x4000000000000000};

TEST(KeyTypeRuleTest, IntAndDoubleNeverJoin) {
  const std::vector<Row> probe = {R({kTwoAsDoubleBits, std::string("int")}),
                                  R({2.0, std::string("double")}),
                                  R({int64_t{2}, std::string("small")})};
  const std::vector<Row> doubles = {R({2.0, std::string("build")})};
  const std::vector<Row> out =
      ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, doubles); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsString(), "double");

  const std::vector<Row> ints = {R({kTwoAsDoubleBits, std::string("build")})};
  const std::vector<Row> out2 =
      ExpectBatchMatchesRowOracle([&] { return JoinOf(probe, ints); });
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0][1].AsString(), "int");
}

TEST(KeyTypeRuleTest, IntAndDoubleNeverGroup) {
  const std::vector<Row> rows = {R({kTwoAsDoubleBits, int64_t{1}}),
                                 R({2.0, int64_t{10}}),
                                 R({kTwoAsDoubleBits, int64_t{100}}),
                                 R({int64_t{2}, int64_t{1000}})};
  const std::vector<Row> out =
      ExpectBatchMatchesRowOracle([&] { return GroupOf(rows, {0}); });
  // Typed-key order: int64 groups (2, then 2^62) before the double group.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0], Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 1000.0);
  EXPECT_EQ(out[1][0], Value(kTwoAsDoubleBits));
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 101.0);
  EXPECT_EQ(out[2][0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(out[2][1].AsDouble(), 10.0);
}

TEST(TypedJoinDeathTest, TypeSkewedBuildSideAborts) {
  // The values scan cuts its batches at the int -> string change, so the
  // build side's second batch disagrees with the first. The batch path
  // refuses it in every build type rather than gather a mistyped column.
  const std::vector<Row> build = {R({int64_t{1}}), R({std::string("x")})};
  EXPECT_DEATH(RunPlan(JoinOf({R({int64_t{1}})}, build)),
               "HashJoinOp: build-side batch column types differ");
}

TEST(BatchTest, ParseBatchRowsAcceptsPositiveIntegers) {
  EXPECT_EQ(ParseBatchRows("1"), 1u);
  EXPECT_EQ(ParseBatchRows("4096"), 4096u);
}

TEST(BatchDeathTest, ParseBatchRowsAbortsOnBadValues) {
  // A typo in HATTRICK_BATCH_ROWS must not silently run another width.
  EXPECT_DEATH(ParseBatchRows("0"),
               "HATTRICK_BATCH_ROWS: invalid value '0' \\(expected a "
               "positive integer\\)");
  EXPECT_DEATH(ParseBatchRows("-3"), "invalid value '-3'");
  EXPECT_DEATH(ParseBatchRows("banana"), "invalid value 'banana'");
  EXPECT_DEATH(ParseBatchRows("12x"), "invalid value '12x'");
  EXPECT_DEATH(ParseBatchRows(""), "invalid value ''");
}

}  // namespace
}  // namespace hattrick
