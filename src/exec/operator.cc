#include "exec/operator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "exec/hash_table.h"
#include "exec/op_profiler.h"

namespace hattrick {

int64_t QuantizeSumValue(double v) {
  return std::llround(v * kSumFixedPointScale);
}

namespace {

/// Boolean truth of the i-th cell of an evaluated predicate vector,
/// matching EvalBool's Value::AsInt semantics for non-int results.
bool BoolAt(const ColumnVector& v, size_t i) {
  if (v.type() == DataType::kInt64) return v.ints[i] != 0;
  return v.GetValue(i).AsInt() != 0;
}

/// Numeric value of the i-th cell, matching Value::AsDouble (int
/// promotion) for the aggregate-input path.
double DoubleAt(const ColumnVector& v, size_t i) {
  if (v.is_numeric()) return v.NumericAt(i);
  return v.GetValue(i).AsDouble();
}

class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "Filter");
    child_->Open(ctx);
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      while (child_->Next(ctx, out)) {
        if (EvalBool(*predicate_, *out)) return true;
      }
      return false;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      while (child_->NextBatch(ctx, out)) {
        predicate_->EvalBatch(*out, &pred_);
        // Refine the selection in place: keep the active rows where the
        // predicate holds. Payloads are untouched (no compaction).
        keep_.clear();
        const size_t n = out->ActiveRows();
        for (size_t k = 0; k < n; ++k) {
          const size_t i = out->ActiveIndex(k);
          if (BoolAt(pred_, i)) keep_.push_back(static_cast<uint32_t>(i));
        }
        if (keep_.empty()) continue;  // fully filtered batch: pull the next
        out->sel.idx = keep_;
        out->filtered = true;
        return true;
      }
      return false;
    });
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ColumnVector pred_;
  std::vector<uint32_t> keep_;
  OpProfiler prof_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "Project", "exprs=" + std::to_string(exprs_.size()));
    child_->Open(ctx);
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      Row in;
      if (!child_->Next(ctx, &in)) return false;
      out->clear();
      out->reserve(exprs_.size());
      for (const ExprPtr& e : exprs_) out->push_back(e->Eval(in));
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      if (!child_->NextBatch(ctx, &in_)) return false;
      // One kernel sweep per output expression over the whole batch; the
      // input selection carries over (expressions are pure, so values
      // computed at unselected rows are never read).
      out->cols.resize(exprs_.size());
      for (size_t i = 0; i < exprs_.size(); ++i) {
        exprs_[i]->EvalBatch(in_, &out->cols[i]);
      }
      out->rows = in_.rows;
      out->sel = in_.sel;
      out->filtered = in_.filtered;
      return true;
    });
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Batch in_;
  OpProfiler prof_;
};

class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, size_t probe_key, OperatorPtr build,
             size_t build_key)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        probe_key_(probe_key),
        build_key_(build_key) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "HashJoin",
                    "probe_key=" + std::to_string(probe_key_) +
                        " build_key=" + std::to_string(build_key_));
    probe_->Open(ctx);
    build_->Open(ctx);
    if (ctx->vectorized) {
      BuildTyped(ctx);
    } else {
      BuildRows(ctx);
    }
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      while (true) {
        if (matches_ != nullptr && match_pos_ < matches_->size()) {
          *out = probe_row_;
          const Row& build_row = (*matches_)[match_pos_++];
          out->insert(out->end(), build_row.begin(), build_row.end());
          if (ctx->meter != nullptr) ++ctx->meter->output_rows;
          return true;
        }
        if (!probe_->Next(ctx, &probe_row_)) return false;
        std::string key;
        AppendTypedKey(probe_row_[probe_key_], &key);
        if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
        const auto it = row_table_.find(key);
        matches_ = it == row_table_.end() ? nullptr : &it->second;
        match_pos_ = 0;
      }
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] { return NextBatchImpl(ctx, out); });
  }

 private:
  static constexpr uint32_t kNone = KeyIndex<int64_t>::kNone;

  /// Row oracle: typed key -> build rows in insertion order.
  void BuildRows(ExecContext* ctx) {
    Row row;
    while (build_->Next(ctx, &row)) {
      std::string key;
      AppendTypedKey(row[build_key_], &key);
      row_table_[std::move(key)].push_back(row);
      if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
    }
  }

  /// Drains the build side into columns (active rows, in batch order)
  /// and indexes them by the typed key column.
  void BuildTyped(ExecContext* ctx) {
    Batch b;
    std::vector<uint32_t> active;
    while (build_->NextBatch(ctx, &b)) {
      if (build_rows_ == 0) {
        build_cols_.resize(b.num_cols());
        for (size_t c = 0; c < b.num_cols(); ++c) {
          build_cols_[c].Reset(b.cols[c].type());
        }
      }
      CheckBuildTypes(b);
      b.ActiveIndices(&active);
      for (size_t c = 0; c < b.num_cols(); ++c) {
        build_cols_[c].AppendGather(b.cols[c], active);
      }
      build_rows_ += active.size();
      if (ctx->meter != nullptr) ctx->meter->hash_probes += active.size();
    }
    if (build_rows_ == 0) return;
    const ColumnVector& keys = build_cols_[build_key_];
    switch (keys.type()) {
      case DataType::kInt64:
        int_table_.Build(keys.ints);
        break;
      case DataType::kDouble:
        double_table_.Build(keys.doubles);
        break;
      case DataType::kString:
        string_table_.Build(keys.strings);
        break;
    }
  }

  /// Every scan emits schema-typed batches; a type-skewed build side
  /// would need a second (dynamically typed) join and is not supported.
  /// Checked in release builds too: gathering a mistyped column would
  /// read past an empty payload.
  void CheckBuildTypes(const Batch& b) const {
    bool match = b.num_cols() == build_cols_.size();
    for (size_t c = 0; match && c < b.num_cols(); ++c) {
      match = b.cols[c].type() == build_cols_[c].type();
    }
    if (!match) {
      std::fprintf(stderr,
                   "HashJoinOp: build-side batch column types differ from "
                   "the first build batch (type-skewed build side)\n");
      std::abort();
    }
  }

  bool NextBatchImpl(ExecContext* ctx, Batch* out) {
    out->Clear();
    while (out->rows < ctx->batch_rows) {
      if (chain_ == kNone && probe_pos_ >= probe_batch_.ActiveRows()) {
        if (!probe_->NextBatch(ctx, &probe_batch_)) break;
        probe_pos_ = 0;
        // Output columns are typed by the probe batch: close the batch
        // at a probe-side type skew.
        if (out->rows > 0 && !ProbeTypesMatch(*out)) break;
      }
      if (out->rows == 0) ResetOutputTypes(out);
      pair_probe_.clear();
      pair_build_.clear();
      Probe(ctx, ctx->batch_rows - out->rows);
      if (pair_probe_.empty()) continue;
      // Index gather: probe columns, then build columns.
      const size_t np = probe_batch_.num_cols();
      for (size_t c = 0; c < np; ++c) {
        out->cols[c].AppendGather(probe_batch_.cols[c], pair_probe_);
      }
      for (size_t c = 0; c < build_cols_.size(); ++c) {
        out->cols[np + c].AppendGather(build_cols_[c], pair_build_);
      }
      out->rows += pair_probe_.size();
      if (ctx->meter != nullptr) {
        ctx->meter->output_rows += pair_probe_.size();
      }
    }
    return out->rows > 0;
  }

  bool ProbeTypesMatch(const Batch& out) const {
    if (out.num_cols() != probe_batch_.num_cols() + build_cols_.size()) {
      return false;
    }
    for (size_t c = 0; c < probe_batch_.num_cols(); ++c) {
      if (out.cols[c].type() != probe_batch_.cols[c].type()) return false;
    }
    return true;
  }

  void ResetOutputTypes(Batch* out) const {
    const size_t np = probe_batch_.num_cols();
    out->cols.resize(np + build_cols_.size());
    for (size_t c = 0; c < np; ++c) {
      out->cols[c].Reset(probe_batch_.cols[c].type());
    }
    for (size_t c = 0; c < build_cols_.size(); ++c) {
      out->cols[np + c].Reset(build_cols_[c].type());
    }
  }

  /// Appends up to `room` (probe row, build row) matches to the pair
  /// vectors, resuming a duplicate-key chain cut by the previous batch.
  void Probe(ExecContext* ctx, size_t room) {
    const ColumnVector& keys = probe_batch_.cols[probe_key_];
    if (build_rows_ == 0 || keys.type() != build_cols_[build_key_].type()) {
      // Nothing can match (keys of different types never do); every
      // remaining probe row still costs its probe, as on the row path.
      const size_t n = probe_batch_.ActiveRows();
      if (ctx->meter != nullptr) ctx->meter->hash_probes += n - probe_pos_;
      probe_pos_ = n;
      return;
    }
    switch (keys.type()) {
      case DataType::kInt64:
        ProbeTyped(ctx, int_table_, keys.ints, room);
        break;
      case DataType::kDouble:
        ProbeTyped(ctx, double_table_, keys.doubles, room);
        break;
      case DataType::kString:
        ProbeTyped(ctx, string_table_, keys.strings, room);
        break;
    }
  }

  template <typename K>
  void ProbeTyped(ExecContext* ctx, const JoinTable<K>& table,
                  const std::vector<K>& keys, size_t room) {
    const size_t n = probe_batch_.ActiveRows();
    uint64_t probes = 0;
    while (pair_probe_.size() < room) {
      if (chain_ != kNone) {
        pair_probe_.push_back(chain_probe_row_);
        pair_build_.push_back(chain_);
        chain_ = table.Next(chain_);
        continue;
      }
      if (probe_pos_ >= n) break;
      chain_probe_row_ =
          static_cast<uint32_t>(probe_batch_.ActiveIndex(probe_pos_++));
      ++probes;
      chain_ = table.First(keys[chain_probe_row_]);
    }
    if (ctx->meter != nullptr) ctx->meter->hash_probes += probes;
  }

  OperatorPtr probe_;
  OperatorPtr build_;
  size_t probe_key_;
  size_t build_key_;

  // Row oracle state.
  std::unordered_map<std::string, std::vector<Row>> row_table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;

  // Typed batch state: the build side as columns, indexed by the table
  // matching its key type.
  std::vector<ColumnVector> build_cols_;
  size_t build_rows_ = 0;
  JoinTable<int64_t> int_table_;
  JoinTable<double> double_table_;
  JoinTable<std::string> string_table_;
  Batch probe_batch_;
  size_t probe_pos_ = 0;       // next active probe row to look up
  uint32_t chain_ = kNone;     // next build row of the current match chain
  uint32_t chain_probe_row_ = 0;
  std::vector<uint32_t> pair_probe_;
  std::vector<uint32_t> pair_build_;
  OpProfiler prof_;
};

class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                  std::vector<AggSpec> aggregates, bool partial)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        partial_(partial) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, partial_ ? "PartialHashAggregate" : "HashAggregate",
                    "groups=" + std::to_string(group_by_.size()) +
                        " aggs=" + std::to_string(aggregates_.size()));
    child_->Open(ctx);
    if (ctx->vectorized) {
      DrainBatches(ctx);
    } else {
      DrainRows(ctx);
    }
    Emit();
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= output_.size()) return false;
      *out = std::move(output_[pos_++]);
      if (ctx->meter != nullptr) ++ctx->meter->output_rows;
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < output_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(output_[pos_])) break;
        out->AppendRow(output_[pos_++]);
      }
      if (ctx->meter != nullptr) ctx->meter->output_rows += out->rows;
      return out->rows > 0;
    });
  }

 private:
  /// Per-column dictionary of the batch path: one KeyIndex per value
  /// type, sharing one dense code space, so values of different types
  /// get different codes (the key-type rule).
  struct ColumnDict {
    KeyIndex<int64_t> ints;
    KeyIndex<double> doubles;
    KeyIndex<std::string> strings;
    uint32_t next_code = 0;
  };

  /// Appends a new group with identity aggregate state.
  void AddGroup(Row key_values) {
    group_keys_.push_back(std::move(key_values));
    for (const AggSpec& agg : aggregates_) {
      exact_.push_back(0);
      switch (agg.kind) {
        case AggSpec::Kind::kMin:
          accum_.push_back(std::numeric_limits<double>::infinity());
          break;
        case AggSpec::Kind::kMax:
          accum_.push_back(-std::numeric_limits<double>::infinity());
          break;
        default:
          accum_.push_back(0);
      }
    }
  }

  /// Folds one input value of aggregate `i` into group `g`.
  void Update(size_t g, size_t i, double v) {
    const size_t slot = g * aggregates_.size() + i;
    switch (aggregates_[i].kind) {
      case AggSpec::Kind::kSum:
        // Fixed-point: exactly associative, so partial aggregates merge
        // bit-identically to a serial sum (see operator.h).
        exact_[slot] += QuantizeSumValue(v);
        break;
      case AggSpec::Kind::kCount:
        exact_[slot] += 1;
        break;
      case AggSpec::Kind::kMin:
        accum_[slot] = std::min(accum_[slot], v);
        break;
      case AggSpec::Kind::kMax:
        accum_[slot] = std::max(accum_[slot], v);
        break;
    }
  }

  /// Row oracle: groups keyed by their typed encoded key.
  void DrainRows(ExecContext* ctx) {
    std::unordered_map<std::string, size_t> groups;
    Row row;
    while (child_->Next(ctx, &row)) {
      std::string key;
      Row key_values;
      key_values.reserve(group_by_.size());
      for (const ExprPtr& e : group_by_) {
        Value v = e->Eval(row);
        AppendTypedKey(v, &key);
        key_values.push_back(std::move(v));
      }
      const auto [it, inserted] =
          groups.emplace(std::move(key), group_keys_.size());
      if (inserted) AddGroup(std::move(key_values));
      if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        const AggSpec& agg = aggregates_[i];
        const bool count = agg.kind == AggSpec::Kind::kCount;
        Update(it->second, i, count ? 0.0 : agg.arg->Eval(row).AsDouble());
      }
    }
  }

  /// Batch path: one kernel sweep per group-by / aggregate-input
  /// expression, then column-at-a-time passes that map each active row to
  /// a dense group id through typed dictionaries and fold the inputs.
  void DrainBatches(ExecContext* ctx) {
    const size_t m = group_by_.size();
    dicts_.resize(m);
    levels_.resize(m > 0 ? m - 1 : 0);
    Batch b;
    std::vector<ColumnVector> keys(m);
    std::vector<ColumnVector> args(aggregates_.size());
    std::vector<uint32_t> active;
    std::vector<uint32_t> codes;
    std::vector<uint32_t> gids;
    while (child_->NextBatch(ctx, &b)) {
      for (size_t j = 0; j < m; ++j) group_by_[j]->EvalBatch(b, &keys[j]);
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (aggregates_[i].kind != AggSpec::Kind::kCount) {
          aggregates_[i].arg->EvalBatch(b, &args[i]);
        }
      }
      b.ActiveIndices(&active);
      const size_t n = active.size();
      gids.assign(n, 0);
      // Group id of a row = its column-0 code, refined by each further
      // column: gid' = levels_[j-1][(gid, code_j)], all dense.
      for (size_t j = 0; j < m; ++j) {
        EncodeColumn(keys[j], active, &dicts_[j], j == 0 ? &gids : &codes);
        if (j == 0) continue;
        KeyIndex<uint64_t>& level = levels_[j - 1];
        for (size_t k = 0; k < n; ++k) {
          const uint64_t pair = (uint64_t{gids[k]} << 32) | codes[k];
          gids[k] =
              level.FindOrInsert(pair, static_cast<uint32_t>(level.size()));
        }
      }
      // Ids are handed out in first-seen order, so a new group is the one
      // whose id equals the current group count.
      for (size_t k = 0; k < n; ++k) {
        if (gids[k] < group_keys_.size()) continue;
        assert(gids[k] == group_keys_.size());
        Row key_values;
        key_values.reserve(m);
        for (size_t j = 0; j < m; ++j) {
          key_values.push_back(keys[j].GetValue(active[k]));
        }
        AddGroup(std::move(key_values));
      }
      if (ctx->meter != nullptr) ctx->meter->hash_probes += n;
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        const bool count = aggregates_[i].kind == AggSpec::Kind::kCount;
        for (size_t k = 0; k < n; ++k) {
          Update(gids[k], i, count ? 0.0 : DoubleAt(args[i], active[k]));
        }
      }
    }
  }

  /// Maps column `col`'s active cells to their dictionary codes.
  static void EncodeColumn(const ColumnVector& col,
                           const std::vector<uint32_t>& active,
                           ColumnDict* dict, std::vector<uint32_t>* codes) {
    codes->resize(active.size());
    const auto encode = [&](auto& index, const auto& values) {
      for (size_t k = 0; k < active.size(); ++k) {
        const uint32_t code =
            index.FindOrInsert(values[active[k]], dict->next_code);
        if (code == dict->next_code) ++dict->next_code;
        (*codes)[k] = code;
      }
    };
    switch (col.type()) {
      case DataType::kInt64:
        encode(dict->ints, col.ints);
        break;
      case DataType::kDouble:
        encode(dict->doubles, col.doubles);
        break;
      case DataType::kString:
        encode(dict->strings, col.strings);
        break;
    }
  }

  /// Materializes the groups in deterministic (typed encoded-key) order,
  /// which both paths share, so their output is bit-identical.
  void Emit() {
    const size_t a = aggregates_.size();
    // Global aggregate with no input rows still emits one (zero) row —
    // except in partial mode, where the merge operator owns that row.
    if (group_by_.empty() && group_keys_.empty() && !partial_) {
      group_keys_.emplace_back();
      exact_.assign(a, 0);
      accum_.assign(a, 0.0);
    }
    std::vector<std::pair<std::string, size_t>> order(group_keys_.size());
    for (size_t g = 0; g < group_keys_.size(); ++g) {
      for (const Value& v : group_keys_[g]) AppendTypedKey(v, &order[g].first);
      order[g].second = g;
    }
    std::sort(order.begin(), order.end());
    output_.reserve(order.size());
    for (const auto& [key, g] : order) {
      Row out = std::move(group_keys_[g]);
      for (size_t i = 0; i < a; ++i) {
        switch (aggregates_[i].kind) {
          case AggSpec::Kind::kSum:
            out.emplace_back(static_cast<double>(exact_[g * a + i]) /
                             kSumFixedPointScale);
            break;
          case AggSpec::Kind::kCount:
            out.emplace_back(static_cast<double>(exact_[g * a + i]));
            break;
          default:
            out.emplace_back(accum_[g * a + i]);
        }
      }
      output_.push_back(std::move(out));
    }
  }

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggregates_;
  bool partial_;
  // Groups in first-seen order: key values plus per-aggregate state,
  // flattened group-major (group g's aggregate i at g * aggs + i).
  std::vector<Row> group_keys_;
  std::vector<int64_t> exact_;  // sum (fixed-point) and count
  std::vector<double> accum_;   // min/max
  // Batch-path group-key dictionaries (see DrainBatches).
  std::vector<ColumnDict> dicts_;
  std::vector<KeyIndex<uint64_t>> levels_;
  std::vector<Row> output_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

class OrderByOp final : public Operator {
 public:
  OrderByOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "OrderBy", "keys=" + std::to_string(keys_.size()));
    child_->Open(ctx);
    if (ctx->vectorized) {
      Batch b;
      while (child_->NextBatch(ctx, &b)) b.AppendActiveRows(&rows_);
    } else {
      Row row;
      while (child_->Next(ctx, &row)) rows_.push_back(std::move(row));
    }
    std::sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
      for (const SortKey& k : keys_) {
        const int c = k.expr->Eval(a).Compare(k.expr->Eval(b));
        if (c != 0) return k.ascending ? c < 0 : c > 0;
      }
      return false;
    });
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= rows_.size()) return false;
      *out = std::move(rows_[pos_++]);
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < rows_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(rows_[pos_])) break;
        out->AppendRow(rows_[pos_++]);
      }
      return out->rows > 0;
    });
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

class ValuesScanOp final : public Operator {
 public:
  explicit ValuesScanOp(std::vector<Row> rows) : rows_(std::move(rows)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "ValuesScan",
                    "rows=" + std::to_string(rows_.size()));
    pos_ = 0;
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= rows_.size()) return false;
      *out = rows_[pos_++];
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < rows_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(rows_[pos_])) break;
        out->AppendRow(rows_[pos_++]);
      }
      return out->rows > 0;
    });
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

}  // namespace

OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}

OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs));
}

OperatorPtr MakeHashJoin(OperatorPtr probe, size_t probe_key,
                         OperatorPtr build, size_t build_key) {
  return std::make_unique<HashJoinOp>(std::move(probe), probe_key,
                                      std::move(build), build_key);
}

OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> group_by,
                              std::vector<AggSpec> aggregates) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_by),
                                           std::move(aggregates),
                                           /*partial=*/false);
}

OperatorPtr MakePartialHashAggregate(OperatorPtr child,
                                     std::vector<ExprPtr> group_by,
                                     std::vector<AggSpec> aggregates) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_by),
                                           std::move(aggregates),
                                           /*partial=*/true);
}

OperatorPtr MakeOrderBy(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<OrderByOp>(std::move(child), std::move(keys));
}

OperatorPtr MakeValuesScan(std::vector<Row> rows) {
  return std::make_unique<ValuesScanOp>(std::move(rows));
}

std::vector<Row> Collect(Operator* op, ExecContext* ctx) {
  std::vector<Row> out;
  op->Open(ctx);
  if (ctx->vectorized) {
    Batch b;
    while (op->NextBatch(ctx, &b)) b.AppendActiveRows(&out);
  } else {
    Row row;
    while (op->Next(ctx, &row)) out.push_back(row);
  }
  return out;
}

std::vector<Batch> CollectBatches(Operator* op, ExecContext* ctx) {
  std::vector<Batch> out;
  op->Open(ctx);
  Batch b;
  while (op->NextBatch(ctx, &b)) {
    out.push_back(std::move(b));
    b = Batch();
  }
  return out;
}

}  // namespace hattrick
