#include "hattrick/transactions.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "hattrick/hattrick_schema.h"

namespace hattrick {

namespace {

const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECI", "5-LOW"};
const char* const kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                   "TRUCK",   "MAIL", "FOB"};

/// Finds the first visible row with row[col] == value, via `index` when
/// available, else by scanning the table (the no-index fallback).
Status LookupByValue(TxnContext* txn, TableId table_id,
                     const IndexInfo* index, size_t col, const Value& value,
                     Rid* rid_out, Row* row_out, WorkMeter* meter) {
  if (index != nullptr) {
    bool found = false;
    txn->IndexLookup(*index, {value},
                     [&](Rid rid, const Row& row) {
                       *rid_out = rid;
                       *row_out = row;
                       found = true;
                       return false;  // first match suffices
                     },
                     meter);
    return found ? Status::OK() : Status::NotFound("key not found");
  }
  // Sequential scan fallback.
  bool found = false;
  txn->ScanVisible(
      table_id,
      [&](Rid rid, const Row& row) {
        if (row[col] == value) {
          *rid_out = rid;
          *row_out = row;
          found = true;
          return false;
        }
        return true;
      },
      meter);
  return found ? Status::OK() : Status::NotFound("key not found");
}

/// Appends the FRESHNESS_j update (Section 4.2): every transaction writes
/// its client-local sequence number into its client's single-row table.
Status UpdateFreshness(TxnContext* txn, const EngineHandles& handles,
                       uint32_t client, uint64_t txn_num, WorkMeter* meter) {
  assert(client >= 1 && client <= handles.freshness.size());
  const TableId table_id = handles.freshness[client - 1];
  Row old_row;
  HATTRICK_RETURN_IF_ERROR(txn->Read(table_id, /*rid=*/0, &old_row, meter));
  txn->BufferUpdate(table_id, /*rid=*/0, old_row,
                    Row{static_cast<int64_t>(txn_num)});
  return Status::OK();
}

Status RunNewOrder(const TxnParams& params, const EngineHandles& handles,
                   uint32_t client, uint64_t txn_num, TxnContext* txn,
                   WorkMeter* meter) {
  // Customer by name (secondary index seek).
  Rid rid;
  Row customer;
  HATTRICK_RETURN_IF_ERROR(
      LookupByValue(txn, handles.customer, handles.customer_name,
                    cust::kName, Value(params.customer_name), &rid,
                    &customer, meter));
  const int64_t custkey = customer[cust::kCustKey].AsInt();

  // Order date must exist in DATE.
  Row date_row;
  HATTRICK_RETURN_IF_ERROR(
      LookupByValue(txn, handles.date, handles.date_pk, date::kDateKey,
                    Value(params.orderdate), &rid, &date_row, meter));

  // Resolve each line's part (price) and supplier, compute totals.
  struct ResolvedLine {
    int64_t partkey;
    int64_t suppkey;
    double extended;
  };
  std::vector<ResolvedLine> resolved;
  resolved.reserve(params.lines.size());
  double total = 0;
  for (const TxnParams::OrderLine& line : params.lines) {
    Row part_row;
    HATTRICK_RETURN_IF_ERROR(
        LookupByValue(txn, handles.part, handles.part_pk, part::kPartKey,
                      Value(line.partkey), &rid, &part_row, meter));
    Row supplier_row;
    HATTRICK_RETURN_IF_ERROR(LookupByValue(
        txn, handles.supplier, handles.supplier_name, supp::kName,
        Value(line.supplier_name), &rid, &supplier_row, meter));
    const double price = part_row[part::kPrice].AsDouble();
    const double extended = price * static_cast<double>(line.quantity);
    total += extended;
    resolved.push_back(ResolvedLine{line.partkey,
                                    supplier_row[supp::kSuppKey].AsInt(),
                                    extended});
  }

  // Insert the order's lineorders with the computed totals.
  for (size_t i = 0; i < params.lines.size(); ++i) {
    const TxnParams::OrderLine& line = params.lines[i];
    const ResolvedLine& r = resolved[i];
    const double revenue =
        r.extended * (100.0 - static_cast<double>(line.discount)) / 100.0;
    txn->BufferInsert(handles.lineorder,
                     Row{
                         params.orderkey,
                         static_cast<int64_t>(i + 1),
                         custkey,
                         r.partkey,
                         r.suppkey,
                         params.orderdate,
                         line.priority,
                         int64_t{0},
                         line.quantity,
                         r.extended,
                         total,
                         line.discount,
                         revenue,
                         0.6 * r.extended,
                         line.tax,
                         params.orderdate,
                         line.shipmode,
                     });
  }
  return UpdateFreshness(txn, handles, client, txn_num, meter);
}

Status RunPayment(const TxnParams& params, const EngineHandles& handles,
                  uint32_t client, uint64_t txn_num, TxnContext* txn,
                  WorkMeter* meter) {
  // Customer by name 60% of the time, by key otherwise (Section 5.2.1).
  Rid cust_rid;
  Row customer;
  if (params.by_custkey) {
    HATTRICK_RETURN_IF_ERROR(
        LookupByValue(txn, handles.customer, handles.customer_pk,
                      cust::kCustKey, Value(params.custkey), &cust_rid,
                      &customer, meter));
  } else {
    HATTRICK_RETURN_IF_ERROR(
        LookupByValue(txn, handles.customer, handles.customer_name,
                      cust::kName, Value(params.customer_name), &cust_rid,
                      &customer, meter));
  }
  if (params.use_deltas) {
    txn->BufferDelta(handles.customer, cust_rid, cust::kPaymentCnt,
                    Value(int64_t{1}));
  } else {
    Row new_customer = customer;
    new_customer[cust::kPaymentCnt] =
        Value(customer[cust::kPaymentCnt].AsInt() + 1);
    txn->BufferUpdate(handles.customer, cust_rid, customer,
                     std::move(new_customer));
  }

  // Supplier year-to-date balance: the benchmark's hot-row write (a few
  // suppliers absorb most payments at low scale factors). As a
  // commutative delta it commits regardless of concurrent payments on
  // the same supplier; as a full update it is the dominant source of
  // write-write aborts.
  Rid supp_rid;
  Row supplier;
  HATTRICK_RETURN_IF_ERROR(
      LookupByValue(txn, handles.supplier, handles.supplier_pk,
                    supp::kSuppKey, Value(params.suppkey), &supp_rid,
                    &supplier, meter));
  if (params.use_deltas) {
    txn->BufferDelta(handles.supplier, supp_rid, supp::kYtd,
                    Value(params.amount));
  } else {
    Row new_supplier = supplier;
    new_supplier[supp::kYtd] =
        Value(supplier[supp::kYtd].AsDouble() + params.amount);
    txn->BufferUpdate(handles.supplier, supp_rid, supplier,
                     std::move(new_supplier));
  }

  // Payment history.
  txn->BufferInsert(handles.history,
                   Row{params.payment_orderkey,
                       customer[cust::kCustKey].AsInt(), params.amount});
  return UpdateFreshness(txn, handles, client, txn_num, meter);
}

Status RunCountOrders(const TxnParams& params, const EngineHandles& handles,
                      uint32_t client, uint64_t txn_num, TxnContext* txn,
                      WorkMeter* meter) {
  Rid rid;
  Row customer;
  HATTRICK_RETURN_IF_ERROR(
      LookupByValue(txn, handles.customer, handles.customer_name,
                    cust::kName, Value(params.customer_name), &rid,
                    &customer, meter));
  const int64_t custkey = customer[cust::kCustKey].AsInt();

  // Count the customer's distinct orders in LINEORDER: collect the order
  // keys of its lines, then sort and deduplicate once.
  std::vector<int64_t> orders;
  if (handles.lineorder_custkey != nullptr) {
    txn->IndexLookup(*handles.lineorder_custkey, {Value(custkey)},
                    [&](Rid, const Row& row) {
                      orders.push_back(row[lo::kOrderKey].AsInt());
                      return true;
                    },
                    meter);
  } else {
    txn->ScanVisible(
        handles.lineorder,
        [&](Rid, const Row& row) {
          if (row[lo::kCustKey].AsInt() == custkey) {
            orders.push_back(row[lo::kOrderKey].AsInt());
          }
          return true;
        },
        meter);
  }
  std::sort(orders.begin(), orders.end());
  const size_t distinct_orders =
      std::unique(orders.begin(), orders.end()) - orders.begin();
  (void)distinct_orders;  // the count is the client-visible result
  return UpdateFreshness(txn, handles, client, txn_num, meter);
}

}  // namespace

const char* TxnTypeName(TxnType type) {
  switch (type) {
    case TxnType::kNewOrder:
      return "new_order";
    case TxnType::kPayment:
      return "payment";
    case TxnType::kCountOrders:
      return "count_orders";
  }
  return "?";
}

EngineHandles EngineHandles::Resolve(const Catalog& catalog,
                                     uint32_t num_freshness_tables) {
  EngineHandles h;
  h.lineorder = catalog.GetTableId(kLineorder);
  h.customer = catalog.GetTableId(kCustomer);
  h.supplier = catalog.GetTableId(kSupplier);
  h.part = catalog.GetTableId(kPart);
  h.date = catalog.GetTableId(kDate);
  h.history = catalog.GetTableId(kHistory);
  h.freshness.reserve(num_freshness_tables);
  for (uint32_t j = 1; j <= num_freshness_tables; ++j) {
    h.freshness.push_back(catalog.GetTableId(FreshnessTableName(j)));
  }
  h.customer_pk = catalog.GetIndex("customer_pk");
  h.customer_name = catalog.GetIndex("customer_name");
  h.supplier_pk = catalog.GetIndex("supplier_pk");
  h.supplier_name = catalog.GetIndex("supplier_name");
  h.part_pk = catalog.GetIndex("part_pk");
  h.date_pk = catalog.GetIndex("date_pk");
  h.lineorder_custkey = catalog.GetIndex("lineorder_custkey");
  return h;
}

TxnParams GenerateTxnParams(WorkloadContext* ctx, Rng* rng) {
  TxnParams params;
  const double p = rng->NextDouble();
  if (p < 0.48) {
    params.type = TxnType::kNewOrder;
    params.orderkey = ctx->next_orderkey.fetch_add(1);
    params.customer_name = CustomerName(
        rng->Uniform(1, static_cast<int64_t>(ctx->num_customers)));
    params.orderdate = DateKeyAt(static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(DatagenConfig::NumDates()) - 1)));
    const int num_lines = static_cast<int>(rng->Uniform(1, 7));
    params.lines.reserve(num_lines);
    const std::string priority = kPriorities[rng->Uniform(0, 4)];
    for (int i = 0; i < num_lines; ++i) {
      TxnParams::OrderLine line;
      line.partkey = rng->Uniform(1, static_cast<int64_t>(ctx->num_parts));
      line.supplier_name = SupplierName(
          rng->Uniform(1, static_cast<int64_t>(ctx->num_suppliers)));
      line.quantity = rng->Uniform(1, 50);
      line.discount = rng->Uniform(0, 10);
      line.tax = rng->Uniform(0, 8);
      line.shipmode = kShipModes[rng->Uniform(0, 6)];
      line.priority = priority;
      params.lines.push_back(std::move(line));
    }
  } else if (p < 0.96) {
    params.type = TxnType::kPayment;
    params.use_deltas = ctx->payment_deltas;
    params.by_custkey = rng->NextDouble() >= 0.60;
    params.custkey =
        rng->Uniform(1, static_cast<int64_t>(ctx->num_customers));
    params.customer_name = CustomerName(params.custkey);
    params.suppkey =
        rng->Uniform(1, static_cast<int64_t>(ctx->num_suppliers));
    params.payment_orderkey =
        rng->Uniform(1, ctx->next_orderkey.load() - 1);
    params.amount =
        static_cast<double>(rng->Uniform(100, 500000)) / 100.0;
  } else {
    params.type = TxnType::kCountOrders;
    params.customer_name = CustomerName(
        rng->Uniform(1, static_cast<int64_t>(ctx->num_customers)));
  }
  return params;
}

TxnBody MakeTxnBody(const TxnParams& params, const EngineHandles& handles,
                    uint32_t client, uint64_t txn_num) {
  return [params, &handles, client, txn_num](TxnContext* txn,
                                             WorkMeter* meter) -> Status {
    switch (params.type) {
      case TxnType::kNewOrder:
        return RunNewOrder(params, handles, client, txn_num, txn, meter);
      case TxnType::kPayment:
        return RunPayment(params, handles, client, txn_num, txn, meter);
      case TxnType::kCountOrders:
        return RunCountOrders(params, handles, client, txn_num, txn, meter);
    }
    return Status::Internal("unknown txn type");
  };
}

}  // namespace hattrick
