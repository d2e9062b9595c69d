// Tests for the columnar table: typed storage, dictionary encoding, zone
// maps (correctness of pruning bounds), in-place updates and copies.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/column_table.h"

namespace hattrick {
namespace {

Schema Mixed() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
}

TEST(ColumnTableTest, AppendAndAccess) {
  ColumnTable table(Mixed());
  ASSERT_TRUE(table.Append(Row{int64_t{1}, 1.5, std::string("a")},
                           nullptr).ok());
  ASSERT_TRUE(table.Append(Row{int64_t{2}, 2.5, std::string("b")},
                           nullptr).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.GetInt(0, 0), 1);
  EXPECT_DOUBLE_EQ(table.GetDouble(1, 1), 2.5);
  EXPECT_EQ(table.GetString(2, 1), "b");
}

TEST(ColumnTableTest, AppendValidatesSchema) {
  ColumnTable table(Mixed());
  EXPECT_EQ(table.Append(Row{int64_t{1}}, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      table.Append(Row{1.0, 1.5, std::string("a")}, nullptr).code(),
      StatusCode::kInvalidArgument);
}

TEST(ColumnTableTest, DictionaryEncodesStrings) {
  ColumnTable table(Mixed());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table
                    .Append(Row{int64_t{i}, 0.0,
                                std::string(i % 2 == 0 ? "even" : "odd")},
                            nullptr)
                    .ok());
  }
  EXPECT_EQ(table.DictionarySize(2), 2u);
  const uint32_t* codes = table.CodeData(2);
  EXPECT_EQ(codes[0], codes[2]);
  EXPECT_NE(codes[0], codes[1]);
  EXPECT_EQ(table.FindStringCode(2, "even"), static_cast<int64_t>(codes[0]));
  EXPECT_EQ(table.FindStringCode(2, "absent"), -1);
}

TEST(ColumnTableTest, GetRowMaterializes) {
  ColumnTable table(Mixed());
  ASSERT_TRUE(table.Append(Row{int64_t{7}, 3.5, std::string("x")},
                           nullptr).ok());
  const Row row = table.GetRow(0);
  EXPECT_EQ(row[0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(row[1].AsDouble(), 3.5);
  EXPECT_EQ(row[2].AsString(), "x");
}

TEST(ColumnTableTest, ZoneMapsBoundValues) {
  ColumnTable table(Mixed());
  Rng rng(5);
  std::vector<int64_t> values;
  const size_t n = ColumnTable::kBlockRows * 3 + 17;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = rng.Uniform(-1000, 1000);
    values.push_back(v);
    ASSERT_TRUE(
        table.Append(Row{v, static_cast<double>(v), std::string("s")},
                     nullptr).ok());
  }
  const size_t blocks = ColumnTable::NumBlocks(n);
  EXPECT_EQ(blocks, 4u);
  for (size_t b = 0; b < blocks; ++b) {
    double mn;
    double mx;
    ASSERT_TRUE(table.BlockMinMax(0, b, &mn, &mx));
    const size_t lo = b * ColumnTable::kBlockRows;
    const size_t hi = std::min(n, lo + ColumnTable::kBlockRows);
    for (size_t r = lo; r < hi; ++r) {
      EXPECT_GE(static_cast<double>(values[r]), mn);
      EXPECT_LE(static_cast<double>(values[r]), mx);
    }
  }
  // String columns have no zone maps.
  double mn;
  double mx;
  EXPECT_FALSE(table.BlockMinMax(2, 0, &mn, &mx));
}

TEST(ColumnTableTest, UpdateRowOverwritesAndWidensZoneMap) {
  ColumnTable table(Mixed());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .Append(Row{int64_t{i}, static_cast<double>(i),
                                std::string("a")},
                            nullptr)
                    .ok());
  }
  ASSERT_TRUE(
      table.UpdateRow(3, Row{int64_t{500}, -7.0, std::string("new")},
                      nullptr).ok());
  EXPECT_EQ(table.GetInt(0, 3), 500);
  EXPECT_DOUBLE_EQ(table.GetDouble(1, 3), -7.0);
  EXPECT_EQ(table.GetString(2, 3), "new");
  double mn;
  double mx;
  ASSERT_TRUE(table.BlockMinMax(0, 0, &mn, &mx));
  EXPECT_LE(mn, 0.0);
  EXPECT_GE(mx, 500.0);  // widened to cover the update
  ASSERT_TRUE(table.BlockMinMax(1, 0, &mn, &mx));
  EXPECT_LE(mn, -7.0);
}

TEST(ColumnTableTest, UpdateRowOutOfRange) {
  ColumnTable table(Mixed());
  EXPECT_EQ(table.UpdateRow(0, Row{int64_t{1}, 0.0, std::string("x")},
                            nullptr)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(ColumnTableTest, CopyFromIsDeep) {
  ColumnTable a(Mixed());
  ASSERT_TRUE(a.Append(Row{int64_t{1}, 1.0, std::string("x")},
                       nullptr).ok());
  ColumnTable b(Mixed());
  b.CopyFrom(a);
  ASSERT_TRUE(b.Append(Row{int64_t{2}, 2.0, std::string("y")},
                       nullptr).ok());
  ASSERT_TRUE(
      b.UpdateRow(0, Row{int64_t{9}, 9.0, std::string("z")}, nullptr).ok());
  EXPECT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.GetInt(0, 0), 1);  // original untouched
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.GetInt(0, 0), 9);
}

TEST(ColumnTableTest, TruncateToDropsTail) {
  ColumnTable table(Mixed());
  const size_t n = ColumnTable::kBlockRows + 100;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table
                    .Append(Row{static_cast<int64_t>(i),
                                static_cast<double>(i), std::string("s")},
                            nullptr)
                    .ok());
  }
  table.TruncateTo(ColumnTable::kBlockRows / 2);
  EXPECT_EQ(table.num_rows(), ColumnTable::kBlockRows / 2);
  double mn;
  double mx;
  ASSERT_TRUE(table.BlockMinMax(0, 0, &mn, &mx));
  EXPECT_DOUBLE_EQ(mn, 0.0);
  EXPECT_DOUBLE_EQ(mx, static_cast<double>(ColumnTable::kBlockRows / 2 - 1));
  // Truncating to a larger bound is a no-op.
  table.TruncateTo(10000);
  EXPECT_EQ(table.num_rows(), ColumnTable::kBlockRows / 2);
}

TEST(ColumnTableTest, MeterCountsCells) {
  ColumnTable table(Mixed());
  WorkMeter meter;
  ASSERT_TRUE(table.Append(Row{int64_t{1}, 1.0, std::string("x")},
                           &meter).ok());
  EXPECT_EQ(meter.rows_written, 1u);
  EXPECT_EQ(meter.column_values, 3u);
}

}  // namespace
}  // namespace hattrick
