#include "hattrick/queries.h"

#include <cassert>
#include <functional>
#include <memory>

#include "exec/parallel.h"
#include "hattrick/hattrick_schema.h"

namespace hattrick {

namespace {

// ---------------------------------------------------------------------------
// Plan-building helpers. Column positions after MakeHashJoin are
// probe-columns followed by build-columns; each plan documents its layout.
// ---------------------------------------------------------------------------

/// One worker's share of the fact-table scan in a morsel-parallel plan.
/// When non-null, the builders restrict the LINEORDER scan to this
/// worker's morsels and end the shard in a partial aggregate (merged by
/// MakeGatherMerge); dimension scans are repeated per shard — they are
/// tiny next to the fact table, and repeating them keeps shards
/// independent. Null builds the ordinary serial plan.
struct FactShard {
  std::shared_ptr<MorselSet> morsels;
  uint32_t worker = 0;
};

void ApplyShard(const FactShard* shard, ScanSpec* spec) {
  if (shard == nullptr) return;
  spec->morsels = shard->morsels;
  spec->worker = shard->worker;
}

OperatorPtr MakeFinalOrPartialAggregate(const FactShard* shard,
                                        OperatorPtr child,
                                        std::vector<ExprPtr> group_by,
                                        std::vector<AggSpec> aggs) {
  if (shard != nullptr) {
    return MakePartialHashAggregate(std::move(child), std::move(group_by),
                                    std::move(aggs));
  }
  return MakeHashAggregate(std::move(child), std::move(group_by),
                           std::move(aggs));
}

/// SSB Q1 flight: revenue = SUM(LO_EXTENDEDPRICE * LO_DISCOUNT) over a
/// one-table scan. The D_YEAR / D_YEARMONTHNUM / D_WEEKNUMINYEAR filters
/// are rewritten to LO_ORDERDATE ranges (datekey encodes the date), the
/// standard SSB Q1 rewrite that eliminates the DATE join; the orderdate
/// index is hinted for the "all indexes" physical schema.
OperatorPtr BuildQ1(const DataSource& source, const FactShard* shard,
                    int64_t date_lo, int64_t date_hi, int64_t disc_lo,
                    int64_t disc_hi, int64_t qty_lo, int64_t qty_hi) {
  ScanSpec spec;
  spec.table = kLineorder;
  spec.projection = {lo::kExtendedPrice, lo::kDiscount};
  spec.ranges = {
      {lo::kOrderDate, static_cast<double>(date_lo),
       static_cast<double>(date_hi)},
      {lo::kDiscount, static_cast<double>(disc_lo),
       static_cast<double>(disc_hi)},
      {lo::kQuantity, static_cast<double>(qty_lo),
       static_cast<double>(qty_hi)},
  };
  spec.index_hint = "lineorder_orderdate";
  ApplyShard(shard, &spec);
  OperatorPtr scan = source.Scan(spec);
  // Layout: 0=extendedprice, 1=discount.
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggSpec::Kind::kSum, Mul(Col(0), Col(1))});
  return MakeFinalOrPartialAggregate(shard, std::move(scan), {},
                                     std::move(aggs));
}

// Star joins declare one runtime join-key filter per dimension join on
// the fact scan, in join order (exec/join_filter.h): each join publishes
// its build keys and the scan drops the fact rows they exclude.

/// SSB Q2 flight: SUM(LO_REVENUE) grouped by D_YEAR, P_BRAND1, with a
/// part filter (category, brand, or brand range) and a supplier region
/// filter. Join order: part (most selective) -> supplier -> date.
OperatorPtr BuildQ2(const DataSource& source, const FactShard* shard,
                    StrIn part_filter, const std::string& supp_region) {
  ScanSpec lo_spec;
  lo_spec.table = kLineorder;
  lo_spec.projection = {lo::kPartKey, lo::kSuppKey, lo::kOrderDate,
                        lo::kRevenue};
  const auto filters = std::make_shared<JoinFilterSet>(
      std::vector<size_t>{lo::kPartKey, lo::kSuppKey, lo::kOrderDate});
  lo_spec.join_filters = filters;
  ApplyShard(shard, &lo_spec);
  OperatorPtr plan = source.Scan(lo_spec);
  // Layout: 0=partkey 1=suppkey 2=orderdate 3=revenue.

  ScanSpec part_spec;
  part_spec.table = kPart;
  part_spec.projection = {part::kPartKey, part::kBrand1};
  part_spec.str_in = {std::move(part_filter)};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/0, source.Scan(part_spec),
                      /*build_key=*/0, {filters, 0});
  // Layout: +4=p_partkey 5=p_brand1.

  ScanSpec supp_spec;
  supp_spec.table = kSupplier;
  supp_spec.projection = {supp::kSuppKey};
  supp_spec.str_in = {{supp::kRegion, {supp_region}}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/1, source.Scan(supp_spec),
                      /*build_key=*/0, {filters, 1});
  // Layout: +6=s_suppkey.

  ScanSpec date_spec;
  date_spec.table = kDate;
  date_spec.projection = {date::kDateKey, date::kYear};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/2, source.Scan(date_spec),
                      /*build_key=*/0, {filters, 2});
  // Layout: +7=d_datekey 8=d_year.

  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggSpec::Kind::kSum, Col(3)});
  return MakeFinalOrPartialAggregate(shard, std::move(plan),
                                     {Col(8), Col(5)}, std::move(aggs));
}

/// SSB Q3 flight: SUM(LO_REVENUE) grouped by customer locale, supplier
/// locale and D_YEAR, with locale filters and a date range.
/// `c_col`/`s_col` select the locale attribute (nation or city).
OperatorPtr BuildQ3(const DataSource& source, const FactShard* shard,
                    size_t c_col, std::vector<std::string> c_values,
                    size_t s_col, std::vector<std::string> s_values,
                    int64_t date_lo, int64_t date_hi) {
  ScanSpec lo_spec;
  lo_spec.table = kLineorder;
  lo_spec.projection = {lo::kCustKey, lo::kSuppKey, lo::kOrderDate,
                        lo::kRevenue};
  lo_spec.ranges = {{lo::kOrderDate, static_cast<double>(date_lo),
                     static_cast<double>(date_hi)}};
  const auto filters = std::make_shared<JoinFilterSet>(
      std::vector<size_t>{lo::kCustKey, lo::kSuppKey, lo::kOrderDate});
  lo_spec.join_filters = filters;
  ApplyShard(shard, &lo_spec);
  OperatorPtr plan = source.Scan(lo_spec);
  // Layout: 0=custkey 1=suppkey 2=orderdate 3=revenue.

  ScanSpec cust_spec;
  cust_spec.table = kCustomer;
  cust_spec.projection = {cust::kCustKey, c_col};
  cust_spec.str_in = {{c_col, std::move(c_values)}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/0, source.Scan(cust_spec),
                      /*build_key=*/0, {filters, 0});
  // Layout: +4=c_custkey 5=c_locale.

  ScanSpec supp_spec;
  supp_spec.table = kSupplier;
  supp_spec.projection = {supp::kSuppKey, s_col};
  supp_spec.str_in = {{s_col, std::move(s_values)}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/1, source.Scan(supp_spec),
                      /*build_key=*/0, {filters, 1});
  // Layout: +6=s_suppkey 7=s_locale.

  ScanSpec date_spec;
  date_spec.table = kDate;
  date_spec.projection = {date::kDateKey, date::kYear};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/2, source.Scan(date_spec),
                      /*build_key=*/0, {filters, 2});
  // Layout: +8=d_datekey 9=d_year.

  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggSpec::Kind::kSum, Col(3)});
  return MakeFinalOrPartialAggregate(shard, std::move(plan),
                                     {Col(5), Col(7), Col(9)},
                                     std::move(aggs));
}

/// SSB Q4 flight: profit = SUM(LO_REVENUE - LO_SUPPLYCOST) with customer,
/// supplier and part filters; group-by columns are picked per query from
/// the post-join layout.
struct Q4Filters {
  std::vector<std::string> c_region;
  size_t s_col = supp::kRegion;
  std::vector<std::string> s_values;
  size_t p_col = part::kMfgr;
  std::vector<std::string> p_values;
  int64_t date_lo = 19920101;
  int64_t date_hi = 19981231;
};

/// Post-join layout for Q4 plans:
/// 0=custkey 1=suppkey 2=partkey 3=orderdate 4=revenue 5=supplycost
/// 6=c_custkey 7=c_nation  8=s_suppkey 9=s_city 10=s_nation
/// 11=p_partkey 12=p_category 13=p_brand1  14=d_datekey 15=d_year
OperatorPtr BuildQ4(const DataSource& source, const FactShard* shard,
                    const Q4Filters& f, std::vector<ExprPtr> group_by) {
  ScanSpec lo_spec;
  lo_spec.table = kLineorder;
  lo_spec.projection = {lo::kCustKey, lo::kSuppKey,  lo::kPartKey,
                        lo::kOrderDate, lo::kRevenue, lo::kSupplyCost};
  lo_spec.ranges = {{lo::kOrderDate, static_cast<double>(f.date_lo),
                     static_cast<double>(f.date_hi)}};
  const auto filters = std::make_shared<JoinFilterSet>(std::vector<size_t>{
      lo::kCustKey, lo::kSuppKey, lo::kPartKey, lo::kOrderDate});
  lo_spec.join_filters = filters;
  ApplyShard(shard, &lo_spec);
  OperatorPtr plan = source.Scan(lo_spec);

  ScanSpec cust_spec;
  cust_spec.table = kCustomer;
  cust_spec.projection = {cust::kCustKey, cust::kNation};
  cust_spec.str_in = {{cust::kRegion, f.c_region}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/0, source.Scan(cust_spec),
                      /*build_key=*/0, {filters, 0});

  ScanSpec supp_spec;
  supp_spec.table = kSupplier;
  supp_spec.projection = {supp::kSuppKey, supp::kCity, supp::kNation};
  supp_spec.str_in = {{f.s_col, f.s_values}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/1, source.Scan(supp_spec),
                      /*build_key=*/0, {filters, 1});

  ScanSpec part_spec;
  part_spec.table = kPart;
  part_spec.projection = {part::kPartKey, part::kCategory, part::kBrand1};
  part_spec.str_in = {{f.p_col, f.p_values}};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/2, source.Scan(part_spec),
                      /*build_key=*/0, {filters, 2});

  ScanSpec date_spec;
  date_spec.table = kDate;
  date_spec.projection = {date::kDateKey, date::kYear};
  plan = MakeHashJoin(std::move(plan), /*probe_key=*/3, source.Scan(date_spec),
                      /*build_key=*/0, {filters, 3});

  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggSpec::Kind::kSum, Sub(Col(4), Col(5))});
  return MakeFinalOrPartialAggregate(shard, std::move(plan),
                                     std::move(group_by), std::move(aggs));
}

std::vector<std::string> Brands(int mfgr, int category, int from, int to) {
  std::vector<std::string> out;
  for (int b = from; b <= to; ++b) {
    out.push_back("MFGR#" + std::to_string(mfgr) + std::to_string(category) +
                  std::to_string(b));
  }
  return out;
}

/// Builds query `query_id` as one shard of a parallel plan (or the serial
/// plan when `shard` is null).
OperatorPtr BuildShardPlan(int query_id, const DataSource& source,
                           const FactShard* shard) {
  switch (query_id) {
    // --- Q1 flight ---
    case 0:  // Q1.1: d_year=1993, discount 1-3, quantity < 25
      return BuildQ1(source, shard, 19930101, 19931231, 1, 3, 1, 24);
    case 1:  // Q1.2: d_yearmonthnum=199401, discount 4-6, quantity 26-35
      return BuildQ1(source, shard, 19940101, 19940131, 4, 6, 26, 35);
    case 2:  // Q1.3: d_weeknuminyear=6, d_year=1994 (Feb 5-11), disc 5-7
      return BuildQ1(source, shard, 19940205, 19940211, 5, 7, 26, 35);
    // --- Q2 flight ---
    case 3:  // Q2.1: p_category='MFGR#12', s_region='AMERICA'
      return BuildQ2(source, shard, {part::kCategory, {"MFGR#12"}},
                     "AMERICA");
    case 4:  // Q2.2: p_brand1 in MFGR#2221..MFGR#2228, s_region='ASIA'
      return BuildQ2(source, shard, {part::kBrand1, Brands(2, 2, 21, 28)},
                     "ASIA");
    case 5:  // Q2.3: p_brand1='MFGR#2239', s_region='EUROPE'
      return BuildQ2(source, shard, {part::kBrand1, {"MFGR#2239"}},
                     "EUROPE");
    // --- Q3 flight ---
    case 6:  // Q3.1: c_region/s_region ASIA, 1992-1997, by nation
      return BuildQ3(source, shard, cust::kRegion, {"ASIA"}, supp::kRegion,
                     {"ASIA"}, 19920101, 19971231);
    case 7:  // Q3.2: nation UNITED STATES, by city
      return BuildQ3(source, shard, cust::kNation, {"UNITED STATES"},
                     supp::kNation, {"UNITED STATES"}, 19920101, 19971231);
    case 8:  // Q3.3: cities UNITED KI1/UNITED KI5
      return BuildQ3(source, shard, cust::kCity,
                     {"UNITED KI1", "UNITED KI5"}, supp::kCity,
                     {"UNITED KI1", "UNITED KI5"}, 19920101, 19971231);
    case 9:  // Q3.4: same cities, d_yearmonth='Dec1997'
      return BuildQ3(source, shard, cust::kCity,
                     {"UNITED KI1", "UNITED KI5"}, supp::kCity,
                     {"UNITED KI1", "UNITED KI5"}, 19971201, 19971231);
    // --- Q4 flight ---
    case 10: {  // Q4.1: regions AMERICA, mfgr 1-2, by d_year, c_nation
      Q4Filters f;
      f.c_region = {"AMERICA"};
      f.s_col = supp::kRegion;
      f.s_values = {"AMERICA"};
      f.p_col = part::kMfgr;
      f.p_values = {"MFGR#1", "MFGR#2"};
      return BuildQ4(source, shard, f, {Col(15), Col(7)});
    }
    case 11: {  // Q4.2: + years 1997-1998, by d_year, s_nation, p_category
      Q4Filters f;
      f.c_region = {"AMERICA"};
      f.s_col = supp::kRegion;
      f.s_values = {"AMERICA"};
      f.p_col = part::kMfgr;
      f.p_values = {"MFGR#1", "MFGR#2"};
      f.date_lo = 19970101;
      f.date_hi = 19981231;
      return BuildQ4(source, shard, f, {Col(15), Col(10), Col(12)});
    }
    case 12: {  // Q4.3: s_nation='UNITED STATES', p_category='MFGR#14'
      Q4Filters f;
      f.c_region = {"AMERICA"};
      f.s_col = supp::kNation;
      f.s_values = {"UNITED STATES"};
      f.p_col = part::kCategory;
      f.p_values = {"MFGR#14"};
      f.date_lo = 19970101;
      f.date_hi = 19981231;
      return BuildQ4(source, shard, f, {Col(15), Col(9), Col(13)});
    }
    default:
      assert(false && "bad query id");
      return nullptr;
  }
}

/// Number of group-by columns in each query's result (the merge operator
/// needs the key width; every SSB aggregate is a single SUM).
size_t QueryGroupColumns(int query_id) {
  switch (query_id) {
    case 0:
    case 1:
    case 2:
      return 0;  // Q1 flight: global revenue
    case 3:
    case 4:
    case 5:
      return 2;  // Q2 flight: d_year, p_brand1
    case 10:
      return 2;  // Q4.1: d_year, c_nation
    default:
      return 3;  // Q3 flight and Q4.2/4.3
  }
}

/// Scatter/gather over a horizontally partitioned source (the sharded
/// engine): one single-worker subplan per shard view — the view's whole
/// fact extent is its morsel set, so each subplan scans exactly its
/// shard's fact partition — merged by the same gather-merge exchange as
/// the morsel-parallel plans. Partial aggregation per shard keeps the
/// merge semantics identical to the intra-node parallel path, and the
/// fixed-point SUM accumulation makes the merged result bit-identical
/// to an unsharded scan regardless of the partitioning.
OperatorPtr BuildScatterGatherPlan(
    int query_id, const std::vector<const DataSource*>& views) {
  std::vector<OperatorPtr> shards;
  shards.reserve(views.size());
  for (const DataSource* view : views) {
    const size_t extent = view->ScanExtent(kLineorder);
    auto morsels = std::make_shared<MorselSet>(
        extent, /*num_workers=*/1, /*dynamic=*/false,
        MorselSet::PickMorselRows(extent, 1));
    FactShard shard{morsels, 0};
    shards.push_back(BuildShardPlan(query_id, *view, &shard));
  }
  return MakeGatherMerge(std::move(shards), QueryGroupColumns(query_id),
                         {AggSpec::Kind::kSum});
}

}  // namespace

const char* QueryName(int query_id) {
  static const char* const kNames[kNumQueries] = {
      "Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1",
      "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2", "Q4.3"};
  assert(query_id >= 0 && query_id < kNumQueries);
  return kNames[query_id];
}

OperatorPtr BuildQueryPlan(int query_id, const DataSource& source) {
  return BuildShardPlan(query_id, source, /*shard=*/nullptr);
}

OperatorPtr BuildParallelQueryPlan(int query_id, const DataSource& source,
                                   int dop, bool dynamic_morsels) {
  const size_t extent = source.ScanExtent(kLineorder);
  if (dop <= 1 || extent == 0) return BuildQueryPlan(query_id, source);

  auto morsels = std::make_shared<MorselSet>(
      extent, static_cast<uint32_t>(dop), dynamic_morsels,
      MorselSet::PickMorselRows(extent, static_cast<uint32_t>(dop)));
  std::vector<OperatorPtr> shards;
  shards.reserve(static_cast<size_t>(dop));
  for (int w = 0; w < dop; ++w) {
    FactShard shard{morsels, static_cast<uint32_t>(w)};
    shards.push_back(BuildShardPlan(query_id, source, &shard));
  }
  return MakeGatherMerge(std::move(shards), QueryGroupColumns(query_id),
                         {AggSpec::Kind::kSum});
}

QueryResult RunQuery(int query_id, const DataSource& source,
                     uint32_t num_freshness_tables, ExecContext* ctx) {
  QueryResult result;
  result.query_id = query_id;
  if (ctx->profile != nullptr) ctx->profile->set_label(QueryName(query_id));

  // A horizontally partitioned source always plans scatter/gather over
  // its per-shard views: cross-shard parallelism replaces intra-node dop
  // (each shard subplan runs single-worker on its own exchange thread).
  const std::vector<const DataSource*> views = source.ShardViews();
  OperatorPtr plan =
      views.size() > 1
          ? BuildScatterGatherPlan(query_id, views)
          : (ctx->dop > 1 ? BuildParallelQueryPlan(query_id, source, ctx->dop,
                                                   ctx->dynamic_morsels)
                          : BuildQueryPlan(query_id, source));
  plan->Open(ctx);
  const std::hash<std::string> hasher;
  const auto fold = [&](const Row& r) {
    ++result.rows;
    for (const Value& v : r) {
      switch (v.type()) {
        case DataType::kInt64:
          result.checksum += static_cast<double>(v.AsInt());
          break;
        case DataType::kDouble:
          result.checksum += v.AsDouble();
          break;
        case DataType::kString:
          result.checksum +=
              static_cast<double>(hasher(v.AsString()) % 1000003);
          break;
      }
    }
  };
  Batch b;
  Row row;
  while (plan->NextBatch(ctx, &b)) {
    const size_t n = b.ActiveRows();
    for (size_t k = 0; k < n; ++k) {
      b.MaterializeRow(b.ActiveIndex(k), &row);
      fold(row);
    }
  }

  // FRESHNESS_j read-back (Section 4.2). The tables hold exactly one row,
  // so pulling one batch drains — and meters — the whole scan. The
  // read-back scans are bookkeeping, not part of the query plan, so they
  // stay out of the EXPLAIN ANALYZE profile (which then has exactly one
  // root: the plan's).
  obs::PlanProfile* saved_profile = ctx->profile;
  ctx->profile = nullptr;
  result.freshness.reserve(num_freshness_tables);
  for (uint32_t j = 1; j <= num_freshness_tables; ++j) {
    ScanSpec spec;
    spec.table = FreshnessTableName(j);
    spec.projection = {fresh::kTxnNum};
    OperatorPtr scan = source.Scan(spec);
    scan->Open(ctx);
    int64_t txn_num = 0;
    if (scan->NextBatch(ctx, &b) && b.ActiveRows() > 0) {
      txn_num = b.cols[0].GetValue(b.ActiveIndex(0)).AsInt();
    }
    result.freshness.push_back(txn_num);
  }
  ctx->profile = saved_profile;
  return result;
}

}  // namespace hattrick
