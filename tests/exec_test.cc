// Tests for the execution layer: expressions, relational operators
// (including randomized checks against naive reference implementations),
// and the row/column scan sources with pushdowns, zone-map pruning, and
// index-assisted scans.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/hash_table.h"
#include "exec/join_filter.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "storage/catalog.h"
#include "storage/column_table.h"
#include "tests/ssb_reference.h"

namespace hattrick {
namespace {

Row R(std::initializer_list<Value> values) { return Row(values); }

/// A predicate's truth on one row: a non-zero int result.
bool EvalBool(const Expr& e, const Row& row) {
  return e.Eval(row).AsInt() != 0;
}

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

  /// Reference for a scan of `spec` over table t: the rows visible at
  /// `snapshot` as RowTable::Scan hands them out (rid order, which is
  /// also key order), filtered by the pushdowns and projected.
  std::vector<Row> Reference(Ts snapshot, const ScanSpec& spec) const {
    std::vector<Row> out;
    table_->Scan(
        snapshot,
        [&](Rid, const Row& row) {
          for (const NumRange& r : spec.ranges) {
            const double v = row[r.column].AsDouble();
            if (v < r.lo || v > r.hi) return true;
          }
          for (const StrIn& p : spec.str_in) {
            const std::string& v = row[p.column].AsString();
            if (std::find(p.values.begin(), p.values.end(), v) ==
                p.values.end()) {
              return true;
            }
          }
          Row projected;
          for (const size_t c : spec.projection) projected.push_back(row[c]);
          out.push_back(std::move(projected));
          return true;
        },
        nullptr);
    return out;
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
// Batch execution: EvalBatch must match the per-row interpreter, and the
// operators must return the rows of plain-loop references, charging the
// same metered work at any batch size.
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
// the batch kernels cell-for-cell against the per-row interpreter.
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

std::vector<Row> RunAtWidth(const PlanFactory& make, size_t batch_rows,
                            WorkMeter* meter) {
  ExecContext ctx{meter};
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

/// Runs `make`'s plan at degenerate, tiny, odd, and default batch sizes:
/// every size must return exactly `want` (computed by a plain-loop
/// reference in the test) and charge exactly the width-1 run's metered
/// work. Returns the width-1 run's meter for further checks.
WorkMeter ExpectWidthsMatch(const PlanFactory& make,
                            const std::vector<Row>& want) {
  WorkMeter unit;
  for (const size_t batch_rows :
       {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    WorkMeter meter;
    EXPECT_EQ(DiffRows(RunAtWidth(make, batch_rows, &meter), want), "");
    if (batch_rows == 1) {
      unit = meter;
    } else {
      ExpectSameMeter(meter, unit);
    }
  }
  return unit;
}

/// Reference equijoin: for each probe row in order, every build row in
/// order whose key has the same type and value (doubles by bit pattern),
/// output as probe row + build row.
std::vector<Row> RefJoin(const std::vector<Row>& probe, size_t probe_key,
                         const std::vector<Row>& build, size_t build_key) {
  const auto same_key = [](const Value& a, const Value& b) {
    if (a.type() != b.type()) return false;
    if (!a.is_double()) return a == b;
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  std::vector<Row> out;
  for (const Row& p : probe) {
    for (const Row& b : build) {
      if (!same_key(p[probe_key], b[build_key])) continue;
      Row row = p;
      row.insert(row.end(), b.begin(), b.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// Group keys order by type (int64, double, string), then by value,
/// column by column.
struct TypedKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t c = 0; c < a.size(); ++c) {
      if (a[c].type() != b[c].type()) return a[c].type() < b[c].type();
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

/// Reference for GroupOf below: SUM (1e-4 fixed point), COUNT, MIN and
/// MAX of column 1 grouped by `cols`, in group-key order.
std::vector<Row> RefGroup(const std::vector<Row>& rows,
                          const std::vector<size_t>& cols) {
  struct Acc {
    int64_t sum = 0;
    int64_t count = 0;
    double min = 0;
    double max = 0;
  };
  std::map<Row, Acc, TypedKeyLess> groups;
  for (const Row& row : rows) {
    Row key;
    for (const size_t c : cols) key.push_back(row[c]);
    const double v = row[1].AsDouble();
    const auto [it, inserted] = groups.try_emplace(std::move(key));
    Acc& acc = it->second;
    if (inserted) acc.min = acc.max = v;
    acc.sum += std::llround(v * 1e4);
    ++acc.count;
    acc.min = std::min(acc.min, v);
    acc.max = std::max(acc.max, v);
  }
  std::vector<Row> out;
  for (const auto& [key, acc] : groups) {
    Row row = key;
    row.emplace_back(static_cast<double>(acc.sum) / 1e4);
    row.emplace_back(static_cast<double>(acc.count));
    row.emplace_back(acc.min);
    row.emplace_back(acc.max);
    out.push_back(std::move(row));
  }
  return out;
}

TEST(BatchDifferentialTest, FilterProject) {
  std::vector<Row> rows;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    rows.push_back(R({rng.Uniform(0, 50), rng.Uniform(0, 100)}));
  }
  std::vector<Row> want;
  for (const Row& row : rows) {
    const int64_t a = row[0].AsInt();
    const int64_t b = row[1].AsInt();
    if (a >= 10 && b < 80) want.push_back(R({a + b, a * 3}));
  }
  ExpectWidthsMatch(
      [&] {
        return MakeProject(
            MakeFilter(MakeValuesScan(rows),
                       And(Ge(Col(0), Lit(Value(int64_t{10}))),
                           Lt(Col(1), Lit(Value(int64_t{80}))))),
            {Add(Col(0), Col(1)), Mul(Col(0), Lit(Value(int64_t{3})))});
      },
      want);
}

TEST(BatchDifferentialTest, FilterRejectingEverything) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(R({int64_t{i}}));
  ExpectWidthsMatch(
      [&] {
        return MakeFilter(MakeValuesScan(rows),
                          Lt(Col(0), Lit(Value(int64_t{0}))));
      },
      {});
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
  // Reference: the join's rows (fact, then dim) grouped by the dim label,
  // aggregated over the fact value, by descending sum.
  std::vector<Row> joined;
  for (const Row& row : RefJoin(fact, 0, dim, 0)) {
    joined.push_back(R({row[3], row[1]}));
  }
  std::vector<Row> want = RefGroup(joined, {0});
  std::sort(want.begin(), want.end(), [](const Row& a, const Row& b) {
    return a[1].AsDouble() > b[1].AsDouble();
  });
  ASSERT_EQ(want.size(), 2u);
  ASSERT_NE(want[0][1].AsDouble(), want[1][1].AsDouble());
  const WorkMeter meter = ExpectWidthsMatch(
      [&] {
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
      },
      want);
  // One probe per build row and per probe row, one per aggregated row.
  EXPECT_EQ(meter.hash_probes, dim.size() + fact.size() + joined.size());
}

TEST(BatchDifferentialTest, GlobalAggregateEmptyInput) {
  ExpectWidthsMatch(
      [] {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggSpec::Kind::kSum, Col(0)});
        return MakeHashAggregate(MakeValuesScan({}), {}, std::move(aggs));
      },
      {R({0.0})});
}

TEST_F(ScanTest, RowScanMatchesReferenceAtEveryWidth) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 100, 1500}};
  spec.str_in = {{2, {"even"}}};
  const std::vector<Row> want = Reference(1, spec);
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return source.Scan(spec); }, want);
  // Every visible row is read once; every emitted row is one output row.
  EXPECT_EQ(meter.rows_read, 2500u);
  EXPECT_EQ(meter.output_rows, want.size());
}

TEST_F(ScanTest, ColumnScanMatchesReferenceAtEveryWidth) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.projection = {0, 1, 2};
  spec.ranges = {{0, 900, 2100}, {1, 0.0, 1000.0}};
  spec.str_in = {{2, {"odd"}}};
  const std::vector<Row> want = Reference(1, spec);
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return source.Scan(spec); }, want);
  EXPECT_EQ(meter.output_rows, want.size());
}

TEST_F(ScanTest, ColumnScanPrunesAtEveryWidth) {
  // The predicate selects only the first zone-map block: every width must
  // skip the other blocks, so the pruned run's meter is the one each
  // width is held to.
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 0, 10}};
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return source.Scan(spec); }, Reference(1, spec));
  // One predicate value per row of the one scanned block, plus the two
  // projected values of each of the 11 matches.
  EXPECT_EQ(meter.column_values, ColumnTable::kBlockRows + 11u * 2u);
}

TEST_F(ScanTest, IndexScanMatchesReferenceAtEveryWidth) {
  // The index range scan's batch path (rid fetches through
  // RowTable::VisitRids, rows by reference).
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 400}};
  spec.index_hint = "t_k";
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return source.Scan(spec); }, Reference(1, spec));
  // Each fetched rid is read once: only the 351 keys in range.
  EXPECT_EQ(meter.rows_read, 351u);
  EXPECT_GT(meter.index_nodes, 0u);

  // The index scan ran (not a heap scan), one batch at the default
  // width.
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

TEST_F(ScanTest, RowStoreScansOverVersionChainsMatchReference) {
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
    const std::vector<Row> heap_rows = Reference(snapshot, heap);
    EXPECT_FALSE(heap_rows.empty());
    ExpectWidthsMatch([&] { return source.Scan(heap); }, heap_rows);
    ScanSpec index = heap;
    index.ranges = {{0, 150, 1700}, {1, 100, 800}};
    index.str_in = {{2, {"odd"}}};
    index.index_hint = "t_k";
    const std::vector<Row> index_rows = Reference(snapshot, index);
    EXPECT_FALSE(index_rows.empty());
    ExpectWidthsMatch([&] { return source.Scan(index); }, index_rows);
  }
}

TEST_F(ScanTest, FullPlanOverColumnScanMatchesReference) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec;
  spec.table = "t";
  spec.projection = {0, 1, 2};
  spec.ranges = {{0, 0, 2000}};
  // Rows k = 0..2000 with v = k / 2; the 1001 even ones have v = 0, 1,
  // ..., 1000, summing to 500500.
  ExpectWidthsMatch(
      [&] {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggSpec::Kind::kSum, Col(1)});
        aggs.push_back({AggSpec::Kind::kCount, nullptr});
        return MakeHashAggregate(
            MakeFilter(source.Scan(spec), Eq(Col(2), Lit(Value("even")))),
            {Col(2)}, std::move(aggs));
      },
      {R({Value("even"), 500500.0, 1001.0})});
}

// --------------------------------------------------------------------------
// Typed hash join and group-by (typed open-addressing tables,
// index-gather output) against plain-loop references at every batch
// width, plus the key-type rule.
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

TEST(HashTableTest, ReservedTableMatchesUnreserved) {
  // Keys with duplicates: each distinct key gets the id of its first
  // insertion in both tables, whether or not the slots were pre-sized.
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 3000; ++k) keys.push_back((k * 7919) % 2111 - 500);
  KeyIndex<int64_t> reserved;
  reserved.Reserve(keys.size());
  KeyIndex<int64_t> grown;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t fresh = static_cast<uint32_t>(i);
    ASSERT_EQ(reserved.FindOrInsert(keys[i], fresh),
              grown.FindOrInsert(keys[i], fresh));
  }
  EXPECT_EQ(reserved.size(), grown.size());
  for (const int64_t k : keys) {
    ASSERT_NE(reserved.Find(k), KeyIndex<int64_t>::kNone);
    ASSERT_EQ(reserved.Find(k), grown.Find(k));
  }
  EXPECT_EQ(reserved.Find(1 << 20), KeyIndex<int64_t>::kNone);

  // JoinTable::Build pre-sizes its index; every key's chain still lists
  // its build rows in insertion order, as the growing table did.
  JoinTable<int64_t> table;
  table.Build(keys);
  EXPECT_EQ(table.num_keys(), reserved.size());
  std::map<int64_t, std::vector<uint32_t>> want;
  for (size_t row = 0; row < keys.size(); ++row) {
    want[keys[row]].push_back(static_cast<uint32_t>(row));
  }
  for (const auto& [key, rows] : want) {
    std::vector<uint32_t> chain;
    for (uint32_t r = table.First(key); r != JoinTable<int64_t>::kNone;
         r = table.Next(r)) {
      chain.push_back(r);
    }
    ASSERT_EQ(chain, rows) << "key " << key;
  }
}

OperatorPtr JoinOf(const std::vector<Row>& probe,
                   const std::vector<Row>& build) {
  return MakeHashJoin(MakeValuesScan(probe), 0, MakeValuesScan(build), 0);
}

/// JoinOf(probe, build) against the reference join at every width: one
/// hash probe per build and per probe row, one output row per match.
/// Returns the (checked) result rows.
std::vector<Row> ExpectJoinMatches(const std::vector<Row>& probe,
                                   const std::vector<Row>& build) {
  const std::vector<Row> want = RefJoin(probe, 0, build, 0);
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return JoinOf(probe, build); }, want);
  EXPECT_EQ(meter.hash_probes, probe.size() + build.size());
  EXPECT_EQ(meter.output_rows, want.size());
  return want;
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
  const std::vector<Row> out = ExpectJoinMatches(probe, build);
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
  EXPECT_TRUE(ExpectJoinMatches(probe, {}).empty());
  WorkMeter meter;
  RunPlan(JoinOf(probe, {}), &meter);
  EXPECT_EQ(meter.hash_probes, 40u);
}

TEST(TypedJoinTest, EmptyProbeSide) {
  std::vector<Row> build = {R({int64_t{1}, 1.5}), R({int64_t{2}, 2.5})};
  EXPECT_TRUE(ExpectJoinMatches({}, build).empty());
}

TEST(TypedJoinTest, FullyFilteredProbeBatches) {
  // The filter rejects long runs of probe rows, so at small widths whole
  // probe batches vanish before the join and the surviving batches carry
  // sparse selection vectors; a further run survives but never matches.
  std::vector<Row> probe;
  for (int64_t i = 0; i < 300; ++i) probe.push_back(R({i % 40, i}));
  std::vector<Row> build;
  for (int i = 0; i < 30; ++i) build.push_back(R({int64_t{i}, int64_t{-i}}));
  std::vector<Row> kept;
  for (const Row& row : probe) {
    const int64_t i = row[1].AsInt();
    if (i < 3 || (i >= 150 && i <= 175)) kept.push_back(row);
  }
  const std::vector<Row> want = RefJoin(kept, 0, build, 0);
  const WorkMeter meter = ExpectWidthsMatch(
      [&] {
        return MakeHashJoin(
            MakeFilter(MakeValuesScan(probe),
                       Or(Lt(Col(1), Lit(Value(int64_t{3}))),
                          Between(Col(1), Value(int64_t{150}),
                                  Value(int64_t{175})))),
            0, MakeValuesScan(build), 0);
      },
      want);
  // Rows 0..2 match; of rows 150..175, keys 30..39 (rows 150..159) miss.
  EXPECT_EQ(want.size(), 3u + 16u);
  EXPECT_EQ(meter.hash_probes, build.size() + kept.size());
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
  EXPECT_FALSE(ExpectJoinMatches(probe, build).empty());
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
  EXPECT_FALSE(ExpectJoinMatches(probe, build).empty());
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

/// GroupOf(rows, cols) against RefGroup at every width: one hash probe
/// per input row, one output row per group. Returns the (checked) result
/// rows.
std::vector<Row> ExpectGroupMatches(const std::vector<Row>& rows,
                                    const std::vector<size_t>& cols) {
  const std::vector<Row> want = RefGroup(rows, cols);
  const WorkMeter meter =
      ExpectWidthsMatch([&] { return GroupOf(rows, cols); }, want);
  EXPECT_EQ(meter.hash_probes, rows.size());
  EXPECT_EQ(meter.output_rows, want.size());
  return want;
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
    ASSERT_FALSE(ExpectGroupMatches(rows, cols).empty());
  }
  // Int groups come out in numeric order (negatives first).
  const std::vector<Row> by_int = ExpectGroupMatches(rows, {0});
  ASSERT_EQ(by_int.size(), 13u);
  for (size_t g = 0; g < by_int.size(); ++g) {
    EXPECT_EQ(by_int[g][0].AsInt(), static_cast<int64_t>(g) - 6);
  }
}

TEST(TypedGroupByTest, PartialAggregateOnEmptyInputIsEmpty) {
  ExpectWidthsMatch(
      [] {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggSpec::Kind::kMin, Col(0)});
        return MakePartialHashAggregate(MakeValuesScan({}), {},
                                        std::move(aggs));
      },
      {});
}

// int64 0x4000000000000000 and double 2.0 have identical EncodeValue
// bytes; the typed keys keep them apart.
constexpr int64_t kTwoAsDoubleBits = int64_t{0x4000000000000000};

TEST(KeyTypeRuleTest, IntAndDoubleNeverJoin) {
  const std::vector<Row> probe = {R({kTwoAsDoubleBits, std::string("int")}),
                                  R({2.0, std::string("double")}),
                                  R({int64_t{2}, std::string("small")})};
  const std::vector<Row> doubles = {R({2.0, std::string("build")})};
  const std::vector<Row> out = ExpectJoinMatches(probe, doubles);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsString(), "double");

  const std::vector<Row> ints = {R({kTwoAsDoubleBits, std::string("build")})};
  const std::vector<Row> out2 = ExpectJoinMatches(probe, ints);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0][1].AsString(), "int");
}

TEST(KeyTypeRuleTest, IntAndDoubleNeverGroup) {
  const std::vector<Row> rows = {R({kTwoAsDoubleBits, int64_t{1}}),
                                 R({2.0, int64_t{10}}),
                                 R({kTwoAsDoubleBits, int64_t{100}}),
                                 R({int64_t{2}, int64_t{1000}})};
  const std::vector<Row> out = ExpectGroupMatches(rows, {0});
  // Typed-key order: int64 groups (2, then 2^62) before the double group.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0], Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 1000.0);
  EXPECT_EQ(out[1][0], Value(kTwoAsDoubleBits));
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 101.0);
  EXPECT_EQ(out[2][0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(out[2][1].AsDouble(), 10.0);
}

// --------------------------------------------------------------------------
// Runtime join-key filters: the fact scan drops the rows the joins above
// it exclude, charged so that results, meter totals and the per-node
// profile (logical rows_out, inclusive work) equal those of the same plan
// built without filters.
// --------------------------------------------------------------------------

TEST(JoinKeyFilterTest, PublishRules) {
  JoinKeyFilter f;
  ASSERT_TRUE(f.Publish({-3, 5, 64, 0}, 4));
  for (const int64_t k : {-3, 5, 64, 0}) EXPECT_TRUE(f.Contains(k)) << k;
  for (const int64_t k :
       std::vector<int64_t>{-4, -2, 1, 63, 65, int64_t{1} << 40}) {
    EXPECT_FALSE(f.Contains(k)) << k;
  }
  // Duplicate keys: the join is not 1:1, so nothing is published.
  EXPECT_FALSE(f.Publish({1, 2, 2}, 2));
  EXPECT_FALSE(f.published());
  // The span bound is inclusive: 2 rows may span 2 * kMaxSpanPerRow keys.
  const int64_t edge = 2 * static_cast<int64_t>(JoinKeyFilter::kMaxSpanPerRow);
  EXPECT_TRUE(f.Publish({0, edge - 1}, 2));
  EXPECT_FALSE(f.Publish({0, edge}, 2));
  EXPECT_FALSE(f.Publish({INT64_MIN, INT64_MAX}, 2));
  // The empty build side publishes the empty set.
  ASSERT_TRUE(f.Publish({}, 0));
  EXPECT_FALSE(f.Contains(0));
  f.AddDropped(3);
  f.Reset();
  EXPECT_FALSE(f.published());
  EXPECT_EQ(f.dropped(), 0u);
}

class JoinFilterTest : public ::testing::Test {
 protected:
  static constexpr int kFactRows = 2500;

  // Fact columns: 0=id 1=a 2=b 3=c 4=v (double) 5=s (string).
  static Row FactRow(int64_t i) {
    return Row{i,
               i % 40,
               i % 7,
               (i * 13) % 61,
               static_cast<double>(i % 9),
               std::string(i % 3 == 0 ? "x" : "y")};
  }

  void SetUp() override {
    table_ = catalog_.CreateTable(
        "f", Schema({{"id", DataType::kInt64},
                     {"a", DataType::kInt64},
                     {"b", DataType::kInt64},
                     {"c", DataType::kInt64},
                     {"v", DataType::kDouble},
                     {"s", DataType::kString}}));
    column_ = std::make_unique<ColumnTable>(table_->schema());
    for (int64_t i = 0; i < kFactRows; ++i) {
      table_->Insert(FactRow(i), 1, nullptr);
      ASSERT_TRUE(column_->Append(FactRow(i), nullptr).ok());
    }
  }

  /// Dimension rows {key, label} for `keys`.
  static std::vector<Row> Dim(const std::vector<Value>& keys) {
    std::vector<Row> rows;
    for (size_t i = 0; i < keys.size(); ++i) {
      rows.push_back(R({keys[i], std::string("d") + std::to_string(i)}));
    }
    return rows;
  }

  static std::vector<Row> IntDim(int64_t lo, int64_t hi, int64_t step) {
    std::vector<Value> keys;
    for (int64_t k = lo; k <= hi; k += step) keys.emplace_back(k);
    return Dim(keys);
  }

  /// One dimension join: the fact column it probes with, and its rows.
  struct DimJoin {
    size_t fact_column;
    std::vector<Row> rows;
  };

  /// Star plan: the fact scan (projection a, b, c, v, s; `spec` supplies
  /// pushdowns) under one hash join per entry of `joins`, in order, with
  /// one runtime filter per join unless `filtered` is false. A filtered
  /// plan keeps its filter set in filters_.
  OperatorPtr StarPlan(const DataSource& source,
                       const std::vector<DimJoin>& joins,
                       ScanSpec spec = ScanSpec(), bool filtered = true) {
    spec.table = "f";
    spec.projection = {1, 2, 3, 4, 5};
    std::shared_ptr<JoinFilterSet> filters;
    if (filtered) {
      std::vector<size_t> columns;
      for (const DimJoin& j : joins) columns.push_back(j.fact_column);
      filters = std::make_shared<JoinFilterSet>(columns);
      filters_ = filters;
    }
    spec.join_filters = filters;
    OperatorPtr plan = source.Scan(spec);
    for (size_t i = 0; i < joins.size(); ++i) {
      plan = MakeHashJoin(std::move(plan), joins[i].fact_column - 1,
                          MakeValuesScan(joins[i].rows), 0,
                          filtered ? JoinFilterRef{filters, i}
                                   : JoinFilterRef{});
    }
    return plan;
  }

  struct ProfiledRun {
    std::vector<Row> rows;
    WorkMeter meter;
    obs::PlanProfile profile;
  };

  static void RunProfiled(const PlanFactory& make, size_t batch_rows,
                          ProfiledRun* run) {
    ExecContext ctx{&run->meter};
    ctx.batch_rows = batch_rows;
    ctx.profile = &run->profile;
    OperatorPtr plan = make();
    run->rows = Collect(plan.get(), &ctx);
  }

  /// Expects `got` to equal the reference run `want`: rows, meter totals,
  /// and every profile node's name, logical rows_out and inclusive work.
  static void ExpectSameRun(const ProfiledRun& got, const ProfiledRun& want) {
    EXPECT_EQ(DiffRows(got.rows, want.rows), "");
    ExpectSameMeter(got.meter, want.meter);
    ASSERT_EQ(got.profile.size(), want.profile.size());
    for (size_t i = 0; i < want.profile.size(); ++i) {
      const obs::PlanProfileNode& g = got.profile.node(i);
      const obs::PlanProfileNode& w = want.profile.node(i);
      EXPECT_EQ(g.name, w.name) << "node " << i;
      EXPECT_EQ(g.rows_out, w.rows_out) << "node " << i << " " << g.name;
      EXPECT_EQ(g.work_units, w.work_units) << "node " << i << " " << g.name;
    }
  }

  /// Runs StarPlan(source, joins, spec) with and without runtime filters
  /// at batch sizes 1, 2, 7 and 1024: every run must equal the unfiltered
  /// width-1 run in rows, meter totals and every profile node's rows_out
  /// and inclusive work. The unfiltered plan drops nothing; the filtered
  /// runs drop the same rows at every size, which this returns.
  uint64_t ExpectMatchesUnfiltered(const DataSource& source,
                                   const std::vector<DimJoin>& joins,
                                   const ScanSpec& spec = ScanSpec()) {
    const auto make = [&](bool filtered) {
      return StarPlan(source, joins, spec, filtered);
    };
    ProfiledRun reference;
    RunProfiled([&] { return make(false); }, 1, &reference);
    uint64_t dropped = 0;
    for (const size_t batch_rows :
         {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
      ProfiledRun unfiltered;
      RunProfiled([&] { return make(false); }, batch_rows, &unfiltered);
      ExpectSameRun(unfiltered, reference);
      for (size_t i = 0; i < unfiltered.profile.size(); ++i) {
        EXPECT_EQ(unfiltered.profile.node(i).join_filter_dropped, 0u);
      }
      ProfiledRun got;
      RunProfiled([&] { return make(true); }, batch_rows, &got);
      ExpectSameRun(got, reference);
      uint64_t run_dropped = 0;
      for (size_t i = 0; i < got.profile.size(); ++i) {
        run_dropped += got.profile.node(i).join_filter_dropped;
      }
      if (batch_rows == 1) dropped = run_dropped;
      EXPECT_EQ(run_dropped, dropped);
    }
    return dropped;
  }

  /// The three int64 joins the tests vary: a (even keys), b (1, 3, 5)
  /// and c (multiples of 3).
  static std::vector<DimJoin> IntJoins() {
    return {{1, IntDim(0, 38, 2)}, {2, IntDim(1, 5, 2)}, {3, IntDim(0, 60, 3)}};
  }

  Catalog catalog_;
  RowTable* table_ = nullptr;
  std::unique_ptr<ColumnTable> column_;
  std::shared_ptr<JoinFilterSet> filters_;
};

TEST_F(JoinFilterTest, PublishedFiltersDropRowsOnBothStores) {
  ColumnDataSource columns;
  columns.AddTable("f", column_.get(), column_->num_rows());
  RowDataSource rows(&catalog_, /*snapshot=*/1);
  for (const DataSource* source :
       std::vector<const DataSource*>{&columns, &rows}) {
    SCOPED_TRACE(source == &columns ? "column store" : "row store");
    const uint64_t dropped = ExpectMatchesUnfiltered(*source, IntJoins());
    // Every filter was published and dropped rows.
    ASSERT_EQ(filters_->PublishedPrefix(), 3u);
    for (size_t i = 0; i < 3; ++i) EXPECT_GT(filters_->filter(i).dropped(), 0u);
    EXPECT_EQ(dropped, filters_->DroppedFrom(0));
  }
}

TEST_F(JoinFilterTest, DuplicateBuildKeysStopTheAppliedPrefix) {
  ColumnDataSource source;
  source.AddTable("f", column_.get(), column_->num_rows());
  // A duplicate key in the first join: no filter applies at all, though
  // the later joins publish theirs.
  std::vector<DimJoin> joins = IntJoins();
  joins[0].rows.push_back(R({int64_t{4}, std::string("dup")}));
  EXPECT_EQ(ExpectMatchesUnfiltered(source, joins), 0u);
  EXPECT_FALSE(filters_->filter(0).published());
  EXPECT_TRUE(filters_->filter(2).published());

  // A duplicate key in the second join: only the first filter applies.
  joins = IntJoins();
  joins[1].rows.push_back(R({int64_t{3}, std::string("dup")}));
  EXPECT_GT(ExpectMatchesUnfiltered(source, joins), 0u);
  EXPECT_GT(filters_->filter(0).dropped(), 0u);
  EXPECT_FALSE(filters_->filter(1).published());
  EXPECT_TRUE(filters_->filter(2).published());
  EXPECT_EQ(filters_->filter(2).dropped(), 0u);
}

TEST_F(JoinFilterTest, EmptyBuildSideDropsEverythingThatReachesIt) {
  ColumnDataSource source;
  source.AddTable("f", column_.get(), column_->num_rows());
  std::vector<DimJoin> joins = IntJoins();
  joins[1].rows.clear();
  EXPECT_EQ(ExpectMatchesUnfiltered(source, joins),
            static_cast<uint64_t>(kFactRows));
  EXPECT_TRUE(filters_->filter(1).published());
  // Filter 0 drops the odd a keys; the empty set drops the rest.
  EXPECT_EQ(filters_->filter(0).dropped(), kFactRows / 2u);
  EXPECT_EQ(filters_->filter(1).dropped(), kFactRows / 2u);
}

TEST_F(JoinFilterTest, KeySpanOverTheBoundPublishesNothing) {
  ColumnDataSource source;
  source.AddTable("f", column_.get(), column_->num_rows());
  const int64_t far =
      2 * static_cast<int64_t>(JoinKeyFilter::kMaxSpanPerRow);
  std::vector<DimJoin> joins = IntJoins();
  joins[0].rows = Dim({Value(int64_t{0}), Value(far)});
  EXPECT_EQ(ExpectMatchesUnfiltered(source, joins), 0u);
  EXPECT_FALSE(filters_->filter(0).published());
  // One key closer and the span is within the bound.
  joins[0].rows = Dim({Value(int64_t{0}), Value(far - 1)});
  EXPECT_GT(ExpectMatchesUnfiltered(source, joins), 0u);
  EXPECT_TRUE(filters_->filter(0).published());
}

TEST_F(JoinFilterTest, DoubleAndStringKeysPublishNothing) {
  ColumnDataSource columns;
  columns.AddTable("f", column_.get(), column_->num_rows());
  RowDataSource rows(&catalog_, /*snapshot=*/1);
  const std::vector<DimJoin> joins = {
      {4, Dim({Value(0.0), Value(2.0), Value(4.0)})},
      {5, Dim({Value(std::string("x"))})},
      {1, IntDim(0, 38, 2)}};
  for (const DataSource* source :
       std::vector<const DataSource*>{&columns, &rows}) {
    SCOPED_TRACE(source == &columns ? "column store" : "row store");
    EXPECT_EQ(ExpectMatchesUnfiltered(*source, joins), 0u);
    EXPECT_FALSE(filters_->filter(0).published());
    EXPECT_FALSE(filters_->filter(1).published());
    // The int join publishes, but it is behind the unpublished ones.
    EXPECT_TRUE(filters_->filter(2).published());
  }
}

TEST_F(JoinFilterTest, BitmapScanFiltersOverrideAndInsertRows) {
  // Dirty rids in every base block, overrides with changed join keys and
  // an insert segment. The id range keeps blocks 0 and 1 and prunes block
  // 2 by its zone map, so block 2's overrides go through the dirty-only
  // lane, blocks 0 and 1 through mixed runs.
  auto delta = std::make_shared<ColumnDeltaSnapshot>();
  delta->base_rows = kFactRows;
  delta->dirty.assign((kFactRows + 63) / 64, 0);
  for (size_t r = 5; r < kFactRows; r += 17) {
    delta->dirty[r >> 6] |= uint64_t{1} << (r & 63);
    Row row = FactRow(static_cast<int64_t>(r));
    row[0] = Value(static_cast<int64_t>(r % 1500));
    row[1] = Value(static_cast<int64_t>((r * 3) % 40));
    delta->overrides.emplace(r, std::move(row));
  }
  for (int64_t i = 0; i < 300; ++i) {
    Row row = FactRow(kFactRows + i);
    row[0] = Value(i);
    delta->inserts.push_back(std::move(row));
  }
  delta->bound = kFactRows + delta->inserts.size();
  ColumnDataSource source;
  source.AddTable("f", column_.get(), delta->bound, delta);
  ScanSpec spec;
  spec.ranges = {{0, 0, 1500}};
  EXPECT_GT(ExpectMatchesUnfiltered(source, IntJoins(), spec), 0u);
  EXPECT_EQ(filters_->PublishedPrefix(), 3u);

  // The scan saw every lane.
  ProfiledRun run;
  RunProfiled([&] { return StarPlan(source, IntJoins(), spec); }, 1024,
              &run);
  const obs::PlanProfileNode* scan = nullptr;
  for (size_t i = 0; i < run.profile.size(); ++i) {
    if (run.profile.node(i).name == "ColumnScan") scan = &run.profile.node(i);
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(scan->rows_override, 0u);
  EXPECT_GT(scan->rows_insert, 0u);
  EXPECT_GT(scan->blocks_pruned, 0u);
  EXPECT_GT(scan->join_filter_dropped, 0u);
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
