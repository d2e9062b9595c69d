#include "tests/ssb_reference.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>

#include "hattrick/hattrick_schema.h"
#include "storage/row_table.h"

namespace hattrick {

namespace {

/// One lineorder row with the dimension rows it joins (null where the
/// query does not join that dimension).
struct Joined {
  const Row* lo = nullptr;
  const Row* c = nullptr;
  const Row* s = nullptr;
  const Row* p = nullptr;
  const Row* d = nullptr;
};

/// A query as the plans in hattrick/queries.cc define it: which
/// dimensions it joins (DATE always), its predicates over the joined row,
/// its group key and the SUM's argument.
struct QuerySpec {
  bool join_c = false;
  bool join_s = false;
  bool join_p = false;
  std::function<bool(const Joined&)> where;
  std::function<Row(const Joined&)> group_by;
  std::function<double(const Row&)> measure;
};

using KeyMap = std::map<int64_t, const Row*>;

/// Dimension rows by their key column (column 0 of every SSB dimension).
KeyMap ByKey(const std::vector<Row>& rows) {
  KeyMap out;
  for (const Row& row : rows) out[row[0].AsInt()] = &row;
  return out;
}

const Row* Lookup(const KeyMap& map, const Value& key) {
  const auto it = map.find(key.AsInt());
  return it == map.end() ? nullptr : it->second;
}

const std::string& Str(const Row* row, size_t col) {
  return (*row)[col].AsString();
}

int64_t Int(const Row* row, size_t col) { return (*row)[col].AsInt(); }

bool OneOf(const std::string& v, const std::vector<std::string>& set) {
  for (const std::string& s : set) {
    if (v == s) return true;
  }
  return false;
}

bool InRange(int64_t v, int64_t lo, int64_t hi) { return v >= lo && v <= hi; }

double Revenue(const Row& lo) { return lo[lo::kRevenue].AsDouble(); }

double Profit(const Row& lo) {
  return lo[lo::kRevenue].AsDouble() - lo[lo::kSupplyCost].AsDouble();
}

/// SSB Q1: SUM(extendedprice * discount), no group-by; the date
/// predicate reads the DATE row's attributes.
QuerySpec Q1(std::function<bool(const Row* d)> date_pred, int64_t disc_lo,
             int64_t disc_hi, int64_t qty_lo, int64_t qty_hi) {
  QuerySpec q;
  q.where = [=](const Joined& j) {
    return date_pred(j.d) &&
           InRange(Int(j.lo, lo::kDiscount), disc_lo, disc_hi) &&
           InRange(Int(j.lo, lo::kQuantity), qty_lo, qty_hi);
  };
  q.group_by = [](const Joined&) { return Row{}; };
  q.measure = [](const Row& lo) {
    return lo[lo::kExtendedPrice].AsDouble() *
           static_cast<double>(lo[lo::kDiscount].AsInt());
  };
  return q;
}

/// SSB Q2: SUM(revenue) by (d_year, p_brand1).
QuerySpec Q2(size_t p_col, std::vector<std::string> p_values,
             std::string s_region) {
  QuerySpec q;
  q.join_s = true;
  q.join_p = true;
  q.where = [=](const Joined& j) {
    return OneOf(Str(j.p, p_col), p_values) &&
           Str(j.s, supp::kRegion) == s_region;
  };
  q.group_by = [](const Joined& j) {
    return Row{Int(j.d, date::kYear), Str(j.p, part::kBrand1)};
  };
  q.measure = Revenue;
  return q;
}

/// SSB Q3: SUM(revenue) by customer locale, supplier locale and d_year.
/// The plans group by the attribute they filter on (`c_col`/`s_col`), so
/// Q3.1 groups by region and Q3.2 by nation; the reference follows the
/// plans.
QuerySpec Q3(size_t c_col, std::vector<std::string> c_values, size_t s_col,
             std::vector<std::string> s_values,
             std::function<bool(const Row* d)> date_pred) {
  QuerySpec q;
  q.join_c = true;
  q.join_s = true;
  q.where = [=](const Joined& j) {
    return OneOf(Str(j.c, c_col), c_values) &&
           OneOf(Str(j.s, s_col), s_values) && date_pred(j.d);
  };
  q.group_by = [=](const Joined& j) {
    return Row{Str(j.c, c_col), Str(j.s, s_col), Int(j.d, date::kYear)};
  };
  q.measure = Revenue;
  return q;
}

/// SSB Q4: SUM(revenue - supplycost) with customer region AMERICA.
QuerySpec Q4(size_t s_col, std::vector<std::string> s_values, size_t p_col,
             std::vector<std::string> p_values, int64_t year_lo,
             std::function<Row(const Joined&)> group_by) {
  QuerySpec q;
  q.join_c = true;
  q.join_s = true;
  q.join_p = true;
  q.where = [=](const Joined& j) {
    return Str(j.c, cust::kRegion) == "AMERICA" &&
           OneOf(Str(j.s, s_col), s_values) &&
           OneOf(Str(j.p, p_col), p_values) &&
           Int(j.d, date::kYear) >= year_lo;
  };
  q.group_by = std::move(group_by);
  q.measure = Profit;
  return q;
}

std::function<bool(const Row*)> YearIn(int64_t lo, int64_t hi) {
  return [=](const Row* d) { return InRange(Int(d, date::kYear), lo, hi); };
}

QuerySpec SpecFor(int query_id) {
  const std::vector<std::string> mfgr12 = {"MFGR#1", "MFGR#2"};
  const std::vector<std::string> ki = {"UNITED KI1", "UNITED KI5"};
  switch (query_id) {
    case 0:  // Q1.1
      return Q1(YearIn(1993, 1993), 1, 3, 1, 24);
    case 1:  // Q1.2
      return Q1(
          [](const Row* d) { return Int(d, date::kYearMonthNum) == 199401; },
          4, 6, 26, 35);
    case 2:  // Q1.3
      return Q1(
          [](const Row* d) {
            return Int(d, date::kWeekNumInYear) == 6 &&
                   Int(d, date::kYear) == 1994;
          },
          5, 7, 26, 35);
    case 3:  // Q2.1
      return Q2(part::kCategory, {"MFGR#12"}, "AMERICA");
    case 4: {  // Q2.2
      std::vector<std::string> brands;
      for (int b = 21; b <= 28; ++b) {
        brands.push_back("MFGR#22" + std::to_string(b));
      }
      return Q2(part::kBrand1, brands, "ASIA");
    }
    case 5:  // Q2.3
      return Q2(part::kBrand1, {"MFGR#2239"}, "EUROPE");
    case 6:  // Q3.1
      return Q3(cust::kRegion, {"ASIA"}, supp::kRegion, {"ASIA"},
                YearIn(1992, 1997));
    case 7:  // Q3.2
      return Q3(cust::kNation, {"UNITED STATES"}, supp::kNation,
                {"UNITED STATES"}, YearIn(1992, 1997));
    case 8:  // Q3.3
      return Q3(cust::kCity, ki, supp::kCity, ki, YearIn(1992, 1997));
    case 9:  // Q3.4
      return Q3(cust::kCity, ki, supp::kCity, ki, [](const Row* d) {
        return Str(d, date::kYearMonth) == "Dec1997";
      });
    case 10:  // Q4.1
      return Q4(supp::kRegion, {"AMERICA"}, part::kMfgr, mfgr12, 1992,
                [](const Joined& j) {
                  return Row{Int(j.d, date::kYear), Str(j.c, cust::kNation)};
                });
    case 11:  // Q4.2
      return Q4(supp::kRegion, {"AMERICA"}, part::kMfgr, mfgr12, 1997,
                [](const Joined& j) {
                  return Row{Int(j.d, date::kYear), Str(j.s, supp::kNation),
                             Str(j.p, part::kCategory)};
                });
    default:  // Q4.3
      return Q4(supp::kNation, {"UNITED STATES"}, part::kCategory,
                {"MFGR#14"}, 1997, [](const Joined& j) {
                  return Row{Int(j.d, date::kYear), Str(j.s, supp::kCity),
                             Str(j.p, part::kBrand1)};
                });
  }
}

std::vector<Row> ScanAll(const Catalog& catalog, const char* table,
                         Ts snapshot) {
  std::vector<Row> rows;
  catalog.GetTable(table)->Scan(
      snapshot,
      [&](Rid, const Row& row) {
        rows.push_back(row);
        return true;
      },
      nullptr);
  return rows;
}

}  // namespace

SsbTables SsbTablesOf(const Dataset& dataset) {
  return SsbTables{dataset.lineorder, dataset.customer, dataset.supplier,
                   dataset.part, dataset.date};
}

SsbTables SsbTablesAt(const Catalog& catalog, Ts snapshot) {
  return SsbTables{ScanAll(catalog, kLineorder, snapshot),
                   ScanAll(catalog, kCustomer, snapshot),
                   ScanAll(catalog, kSupplier, snapshot),
                   ScanAll(catalog, kPart, snapshot),
                   ScanAll(catalog, kDate, snapshot)};
}

ReferenceResult ReferenceQuery(int query_id, const SsbTables& tables) {
  const QuerySpec q = SpecFor(query_id);
  const KeyMap customers = ByKey(tables.customer);
  const KeyMap suppliers = ByKey(tables.supplier);
  const KeyMap parts = ByKey(tables.part);
  const KeyMap dates = ByKey(tables.date);
  ReferenceResult result;
  // Group key -> SUM in 1e-4 units, ordered by key.
  std::map<Row, int64_t> sums;
  for (const Row& lo : tables.lineorder) {
    Joined j;
    j.lo = &lo;
    j.d = Lookup(dates, lo[lo::kOrderDate]);
    if (j.d == nullptr) continue;
    if (q.join_c && (j.c = Lookup(customers, lo[lo::kCustKey])) == nullptr) {
      continue;
    }
    if (q.join_s && (j.s = Lookup(suppliers, lo[lo::kSuppKey])) == nullptr) {
      continue;
    }
    if (q.join_p && (j.p = Lookup(parts, lo[lo::kPartKey])) == nullptr) {
      continue;
    }
    if (!q.where(j)) continue;
    ++result.fact_rows;
    sums[q.group_by(j)] += std::llround(q.measure(lo) * 1e4);
  }
  // The Q1 flight (ids 0-2) is a global aggregate: one row even over no
  // input.
  if (query_id <= 2 && sums.empty()) sums[Row{}] = 0;
  for (const auto& [key, sum] : sums) {
    Row row = key;
    row.emplace_back(static_cast<double>(sum) / 1e4);
    result.rows.push_back(std::move(row));
  }
  return result;
}

DatagenConfig ReferenceDatasetConfig() {
  DatagenConfig config;
  config.scale_factor = 10.0;
  config.lineorders_per_sf = 6000;
  config.seed = 52;
  config.num_freshness_tables = 4;
  return config;
}

std::string DiffRows(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = got[i][c].type() == want[i][c].type() &&
             got[i][c].Compare(want[i][c]) == 0;
    }
    if (!same) {
      return "row " + std::to_string(i) + ": got " + RowToString(got[i]) +
             ", want " + RowToString(want[i]);
    }
  }
  return "";
}

}  // namespace hattrick
