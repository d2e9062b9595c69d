#include "exec/scan.h"

#include <algorithm>
#include <cassert>

#include "common/key_encoding.h"
#include "exec/op_profiler.h"

namespace hattrick {

namespace {

/// Applies a spec's pushdown predicates to a full row.
bool MatchesPushdowns(const Row& row, const ScanSpec& spec) {
  for (const NumRange& r : spec.ranges) {
    const double v = row[r.column].AsDouble();
    if (v < r.lo || v > r.hi) return false;
  }
  for (const StrIn& p : spec.str_in) {
    const std::string& v = row[p.column].AsString();
    bool found = false;
    for (const std::string& cand : p.values) {
      if (v == cand) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Schema types of a spec's projected columns: the column types of the
/// batches a row-store scan emits.
std::vector<DataType> ProjectedTypes(const RowTable& table,
                                     const ScanSpec& spec) {
  std::vector<DataType> types;
  types.reserve(spec.projection.size());
  for (size_t col : spec.projection) {
    types.push_back(table.schema().column(col).type);
  }
  return types;
}

/// Appends `row`'s projected cells to the typed vectors of *out as one
/// output row. Only the projected cells are copied, so a scan can pass
/// the version payload RowTable hands out by reference.
void AppendProjected(const Row& row, const ScanSpec& spec, Batch* out) {
  for (size_t j = 0; j < spec.projection.size(); ++j) {
    out->cols[j].PushValue(row[spec.projection[j]]);
  }
  ++out->rows;
}

/// Scan over an MVCC row table.
///
/// Row mode: the first Next() materializes the projected columns of the
/// visible, predicate-passing rows in one pass over the table, so no
/// full-row copies are made for filtered-out or projected-away cells.
///
/// Batch mode: Open() only positions a slot cursor; NextBatch fills
/// column vectors by covering the slot space with batch-sized ScanRange
/// chunks. Pushdowns evaluate on the visible row as RowTable hands it out
/// (by reference, no copy for an unfolded chain head), and only the
/// projected cells are appended. RowTable::ScanRange guarantees a
/// disjoint cover meters exactly like one Scan, and output_rows is
/// charged per emitted row either way, so both modes charge identical
/// WorkMeter totals.
class RowScanOp final : public Operator {
 public:
  RowScanOp(const RowTable* table, Ts snapshot, ScanSpec spec)
      : table_(table),
        snapshot_(snapshot),
        spec_(std::move(spec)),
        types_(ProjectedTypes(*table_, spec_)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "RowScan", "table=" + spec_.table);
    rows_.clear();
    pos_ = 0;
    materialized_ = false;
    cursor_ = 0;
    limit_ = 0;
    serial_pending_ = spec_.morsels == nullptr;
    claim_ = MorselSet::ClaimState{};
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] { return NextImpl(ctx, out); });
  }

  bool NextImpl(ExecContext* ctx, Row* out) {
    // Row path: materialize on first pull (same scan, same meter totals
    // as materializing in Open — just charged at the first Next).
    if (!materialized_) {
      materialized_ = true;
      const auto visit = [&](Rid, const Row& row) {
        if (!MatchesPushdowns(row, spec_)) return true;
        Row projected;
        projected.reserve(spec_.projection.size());
        for (size_t col : spec_.projection) projected.push_back(row[col]);
        rows_.push_back(std::move(projected));
        return true;
      };
      if (spec_.morsels != nullptr) {
        // Parallel shard: scan only the rid ranges this worker claims.
        MorselSet::ClaimState claim;
        size_t begin;
        size_t end;
        while (spec_.morsels->Claim(spec_.worker, &claim, &begin, &end)) {
          table_->ScanRange(snapshot_, begin, end, visit, ctx->meter);
        }
      } else {
        table_->Scan(snapshot_, visit, ctx->meter);
      }
      if (ctx->meter != nullptr) ctx->meter->output_rows += rows_.size();
    }
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_++]);
    return true;
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] { return NextBatchImpl(ctx, out); });
  }

  bool NextBatchImpl(ExecContext* ctx, Batch* out) {
    out->ResetTypes(types_);
    size_t emitted = 0;
    const auto visit = [&](Rid, const Row& row) {
      if (!MatchesPushdowns(row, spec_)) return true;
      AppendProjected(row, spec_, out);
      ++emitted;
      return true;
    };
    while (out->rows < ctx->batch_rows) {
      if (cursor_ >= limit_) {
        if (!NextSlotRange()) break;
        continue;
      }
      // Never scan more slots than the batch has room for: every slot
      // can yield at most one visible row.
      const size_t end =
          std::min(limit_, cursor_ + (ctx->batch_rows - out->rows));
      table_->ScanRange(snapshot_, cursor_, end, visit, ctx->meter);
      cursor_ = end;
    }
    if (ctx->meter != nullptr) ctx->meter->output_rows += emitted;
    return out->rows > 0;
  }

 private:
  /// Advances the cursor to the next slot range: the whole table in
  /// serial mode (once), or this worker's next claimed morsel.
  bool NextSlotRange() {
    if (spec_.morsels != nullptr) {
      size_t begin;
      size_t end;
      if (!spec_.morsels->Claim(spec_.worker, &claim_, &begin, &end)) {
        return false;
      }
      cursor_ = begin;
      limit_ = end;
      return true;
    }
    if (!serial_pending_) return false;
    serial_pending_ = false;
    cursor_ = 0;
    limit_ = table_->NumSlots();
    return cursor_ < limit_;
  }

  const RowTable* table_;
  Ts snapshot_;
  ScanSpec spec_;
  std::vector<DataType> types_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  bool materialized_ = false;
  // Batch-mode cursor state.
  size_t cursor_ = 0;
  size_t limit_ = 0;
  bool serial_pending_ = false;
  MorselSet::ClaimState claim_;
  OpProfiler prof_;
};

/// Streaming scan over a column table with zone-map block pruning.
///
/// Batch mode processes block-bounded runs of rows: one tight loop per
/// pushdown predicate over the raw column payloads (string predicates on
/// dictionary codes), then a gather of the survivors' projected columns
/// straight into the output vectors. Runs never cross a zone-map block
/// boundary, so pruning decisions — and metered column_values — are
/// identical to the row-at-a-time path at any batch size.
///
/// With a visibility snapshot (bitmap merge mode) the scan has three row
/// classes, all charged like their eager-merge equivalents so metered
/// totals stay invariant across batch size, dop and execution mode:
///  - clean base rows: the vectorized lanes above, with the run's
///    selection pre-intersected against the snapshot's dirty bitmap;
///  - overridden base rows: evaluated per row on the snapshot's version
///    row by value (their strings may be absent from the dictionary);
///  - insert-segment rows ([base_rows, bound)): evaluated per row on the
///    snapshot's insert rows; no zone maps exist there, so no pruning.
/// A zone-map-pruned block with dirty bits still evaluates its dirty
/// rows (the override values may match where the stale base could not);
/// an impossible dictionary predicate prunes only the clean base lanes.
class ColumnScanOp final : public Operator {
 public:
  ColumnScanOp(const ColumnTable* table, size_t bound,
               const ColumnDeltaSnapshot* delta, ScanSpec spec)
      : table_(table),
        bound_(bound),
        delta_(delta),
        base_rows_(delta != nullptr ? delta->base_rows : bound),
        spec_(std::move(spec)) {
    types_.reserve(spec_.projection.size());
    for (size_t col : spec_.projection) {
      types_.push_back(table_->schema().column(col).type);
    }
  }

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "ColumnScan", "table=" + spec_.table);
    OpenImpl();
    prof_.OpenEnd(ctx);
  }

  void OpenImpl() {
    // Serial scans cover [0, bound_); morsel shards start empty and claim
    // ranges lazily in Next. Morsels are block-aligned (kDefaultMorselRows
    // is a multiple of kBlockRows), so zone-map pruning behaves — and
    // meters — identically at any dop.
    row_ = 0;
    limit_ = spec_.morsels != nullptr ? 0 : bound_;
    claim_ = MorselSet::ClaimState{};
    pruned_ = false;
    // Resolve string predicates to dictionary code sets once. The
    // dictionary cannot grow during the session: folds are excluded by
    // the session pin, and unfolded versions never touch it.
    code_preds_.clear();
    impossible_ = false;
    for (const StrIn& p : spec_.str_in) {
      CodePred cp;
      cp.column = p.column;
      for (const std::string& v : p.values) {
        const int64_t code = table_->FindStringCode(p.column, v);
        if (code >= 0) cp.codes.push_back(static_cast<uint32_t>(code));
      }
      if (cp.codes.empty()) {
        impossible_ = true;  // predicate value absent from the dictionary
        return;
      }
      code_preds_.push_back(std::move(cp));
    }
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] { return NextImpl(ctx, out); });
  }

  bool NextImpl(ExecContext* ctx, Row* out) {
    if (impossible_ && delta_ == nullptr) return false;
    obs::PlanProfileNode* node = prof_.node();
    while (true) {
      while (row_ < limit_) {
        // Zone-map pruning at block boundaries (mid-block resume
        // positions keep the block's pruned_ state).
        if (row_ < base_rows_ && row_ % ColumnTable::kBlockRows == 0) {
          SkipPrunedCleanBlocks();
          if (row_ >= limit_) break;
        }
        const size_t r = row_++;
        if (r >= base_rows_) {
          if (node != nullptr) node->rows_insert++;
          if (EvalDeltaRow(delta_->InsertRow(r), ctx, out)) return true;
          continue;
        }
        if (delta_ != nullptr && delta_->DirtyBit(r)) {
          if (node != nullptr) node->rows_override++;
          if (EvalDeltaRow(delta_->OverrideRow(r), ctx, out)) return true;
          continue;
        }
        if (pruned_) continue;  // clean row in a pruned-dirty block
        if (node != nullptr) node->rows_clean++;
        if (!Matches(r, ctx)) continue;
        out->clear();
        out->reserve(spec_.projection.size());
        for (size_t col : spec_.projection) {
          switch (table_->schema().column(col).type) {
            case DataType::kInt64:
              out->emplace_back(table_->GetInt(col, r));
              break;
            case DataType::kDouble:
              out->emplace_back(table_->GetDouble(col, r));
              break;
            case DataType::kString:
              out->emplace_back(table_->GetString(col, r));
              break;
          }
        }
        if (ctx->meter != nullptr) {
          ctx->meter->column_values += spec_.projection.size();
          ++ctx->meter->output_rows;
        }
        return true;
      }
      if (!ClaimNextRange()) return false;
    }
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] { return NextBatchImpl(ctx, out); });
  }

  bool NextBatchImpl(ExecContext* ctx, Batch* out) {
    out->ResetTypes(types_);
    if (impossible_ && delta_ == nullptr) return false;
    while (true) {
      while (row_ < limit_) {
        // Same pruning condition as the row path.
        if (row_ < base_rows_ && row_ % ColumnTable::kBlockRows == 0) {
          SkipPrunedCleanBlocks();
          if (row_ >= limit_) break;
        }
        // Run end: block boundary, range limit, remaining batch room, or
        // the base/insert segment boundary (the segments scan
        // differently, so runs never straddle it).
        const size_t block_end =
            (row_ / ColumnTable::kBlockRows + 1) * ColumnTable::kBlockRows;
        size_t end = std::min(
            {limit_, block_end, row_ + (ctx->batch_rows - out->rows)});
        if (row_ < base_rows_) {
          end = std::min(end, base_rows_);
          if (pruned_) {
            ScanDirtyOnlyRun(row_, end, ctx, out);
          } else {
            ScanRun(row_, end, ctx, out);
          }
        } else {
          ScanInsertRun(row_, end, ctx, out);
        }
        row_ = end;
        if (out->rows >= ctx->batch_rows) return true;
      }
      if (!ClaimNextRange()) return out->rows > 0;
    }
  }

 private:
  struct CodePred {
    size_t column;
    std::vector<uint32_t> codes;
  };

  /// A survivor of a dirty run's predicates, in ascending rid order:
  /// `row` is null for clean base rids (gather from the raw payloads)
  /// and points at the snapshot's version row otherwise.
  struct EmitRef {
    uint32_t rid;
    const Row* row;
  };

  /// Predicate count charged for rows evaluated by value (version rows).
  /// Equals ranges + code_preds when the dictionary resolution succeeded,
  /// and stays well defined when it did not (impossible_): version rows
  /// compare strings directly, so an absent dictionary entry prunes only
  /// the base lanes.
  size_t NumPredsByValue() const {
    return spec_.ranges.size() + spec_.str_in.size();
  }

  /// Advances row_ past consecutive base blocks that are zone-map-pruned
  /// (or dictionary-impossible) AND have no dirty bits; stops at the
  /// first block that must be visited and records whether it is pruned
  /// (pruned_ == true means only its dirty rows are evaluated). Never
  /// advances past base_rows_: the insert segment has no zone maps and
  /// is always scanned.
  void SkipPrunedCleanBlocks() {
    // Each base block is entered at most once per scan (morsel claims
    // are block-aligned, resumes mid-block skip this call), so counting
    // here attributes every block to exactly one outcome — identically
    // in row and batch mode, at any dop.
    obs::PlanProfileNode* node = prof_.node();
    while (row_ < limit_ && row_ < base_rows_) {
      const size_t block = row_ / ColumnTable::kBlockRows;
      const size_t block_end = (block + 1) * ColumnTable::kBlockRows;
      const size_t base_end = std::min({limit_, block_end, base_rows_});
      const bool block_pruned = impossible_ || BlockPruned(block);
      if (block_pruned &&
          (delta_ == nullptr || !delta_->AnyDirtyInRange(row_, base_end))) {
        if (node != nullptr) node->blocks_pruned++;
        row_ = base_end;
        continue;
      }
      pruned_ = block_pruned;
      if (node != nullptr) {
        // A pruned block with dirty bits still skips its clean lanes.
        if (block_pruned) {
          node->blocks_pruned++;
        } else {
          node->blocks_scanned++;
        }
      }
      return;
    }
  }

  /// Evaluates the pushdown predicates over rows [begin, end) and gathers
  /// the survivors' projected columns into *out. Metering matches the row
  /// path: every evaluated row charges one column_values per predicate,
  /// every emitted row charges the projection width plus one output row.
  /// Rows with a set dirty bit are excluded from the vectorized lanes and
  /// evaluated on their override rows instead, then merged back in rid
  /// order; the per-run charge is identical either way.
  void ScanRun(size_t begin, size_t end, ExecContext* ctx, Batch* out) {
    if (delta_ != nullptr && delta_->AnyDirtyInRange(begin, end)) {
      ScanMixedRun(begin, end, ctx, out);
      return;
    }
    if (prof_.enabled()) prof_.node()->rows_clean += end - begin;
    match_.clear();
    for (size_t r = begin; r < end; ++r) {
      match_.push_back(static_cast<uint32_t>(r));
    }
    for (const NumRange& pred : spec_.ranges) {
      size_t kept = 0;
      if (table_->schema().column(pred.column).type == DataType::kInt64) {
        const int64_t* data = table_->IntData(pred.column);
        for (const uint32_t r : match_) {
          const double v = static_cast<double>(data[r]);
          if (v >= pred.lo && v <= pred.hi) match_[kept++] = r;
        }
      } else {
        const double* data = table_->DoubleData(pred.column);
        for (const uint32_t r : match_) {
          if (data[r] >= pred.lo && data[r] <= pred.hi) match_[kept++] = r;
        }
      }
      match_.resize(kept);
    }
    for (const CodePred& pred : code_preds_) {
      const uint32_t* codes = table_->CodeData(pred.column);
      size_t kept = 0;
      for (const uint32_t r : match_) {
        const uint32_t code = codes[r];
        bool found = false;
        for (const uint32_t c : pred.codes) {
          if (c == code) {
            found = true;
            break;
          }
        }
        if (found) match_[kept++] = r;
      }
      match_.resize(kept);
    }
    for (size_t j = 0; j < spec_.projection.size(); ++j) {
      const size_t col = spec_.projection[j];
      ColumnVector& dst = out->cols[j];
      switch (types_[j]) {
        case DataType::kInt64: {
          const int64_t* data = table_->IntData(col);
          for (const uint32_t r : match_) dst.ints.push_back(data[r]);
          break;
        }
        case DataType::kDouble: {
          const double* data = table_->DoubleData(col);
          for (const uint32_t r : match_) dst.doubles.push_back(data[r]);
          break;
        }
        case DataType::kString: {
          const uint32_t* codes = table_->CodeData(col);
          for (const uint32_t r : match_) {
            dst.strings.push_back(table_->DictEntry(col, codes[r]));
          }
          break;
        }
      }
    }
    out->rows += match_.size();
    if (ctx->meter != nullptr) {
      ctx->meter->column_values +=
          (end - begin) * (spec_.ranges.size() + code_preds_.size()) +
          match_.size() * spec_.projection.size();
      ctx->meter->output_rows += match_.size();
    }
  }

  /// ScanRun for a base run containing dirty rids: clean rids go through
  /// the vectorized lanes, dirty rids evaluate on their override rows,
  /// and the survivors merge back in ascending rid order so emission
  /// order matches the fully-folded scan exactly.
  void ScanMixedRun(size_t begin, size_t end, ExecContext* ctx,
                    Batch* out) {
    match_.clear();
    dirty_rows_.clear();
    for (size_t r = begin; r < end; ++r) {
      if (delta_->DirtyBit(r)) {
        dirty_rows_.push_back(static_cast<uint32_t>(r));
      } else {
        match_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (prof_.enabled()) {
      prof_.node()->rows_clean += match_.size();
      prof_.node()->rows_override += dirty_rows_.size();
    }
    for (const NumRange& pred : spec_.ranges) {
      size_t kept = 0;
      if (table_->schema().column(pred.column).type == DataType::kInt64) {
        const int64_t* data = table_->IntData(pred.column);
        for (const uint32_t r : match_) {
          const double v = static_cast<double>(data[r]);
          if (v >= pred.lo && v <= pred.hi) match_[kept++] = r;
        }
      } else {
        const double* data = table_->DoubleData(pred.column);
        for (const uint32_t r : match_) {
          if (data[r] >= pred.lo && data[r] <= pred.hi) match_[kept++] = r;
        }
      }
      match_.resize(kept);
    }
    for (const CodePred& pred : code_preds_) {
      const uint32_t* codes = table_->CodeData(pred.column);
      size_t kept = 0;
      for (const uint32_t r : match_) {
        const uint32_t code = codes[r];
        bool found = false;
        for (const uint32_t c : pred.codes) {
          if (c == code) {
            found = true;
            break;
          }
        }
        if (found) match_[kept++] = r;
      }
      match_.resize(kept);
    }
    emits_.clear();
    size_t ci = 0;  // clean survivors cursor
    for (const uint32_t r : dirty_rows_) {
      while (ci < match_.size() && match_[ci] < r) {
        emits_.push_back(EmitRef{match_[ci++], nullptr});
      }
      const Row& row = delta_->OverrideRow(r);
      if (MatchesPushdowns(row, spec_)) emits_.push_back(EmitRef{r, &row});
    }
    while (ci < match_.size()) {
      emits_.push_back(EmitRef{match_[ci++], nullptr});
    }
    for (size_t j = 0; j < spec_.projection.size(); ++j) {
      const size_t col = spec_.projection[j];
      ColumnVector& dst = out->cols[j];
      switch (types_[j]) {
        case DataType::kInt64: {
          const int64_t* data = table_->IntData(col);
          for (const EmitRef& e : emits_) {
            dst.ints.push_back(e.row == nullptr ? data[e.rid]
                                                : (*e.row)[col].AsInt());
          }
          break;
        }
        case DataType::kDouble: {
          const double* data = table_->DoubleData(col);
          for (const EmitRef& e : emits_) {
            dst.doubles.push_back(e.row == nullptr
                                      ? data[e.rid]
                                      : (*e.row)[col].AsDouble());
          }
          break;
        }
        case DataType::kString: {
          const uint32_t* codes = table_->CodeData(col);
          for (const EmitRef& e : emits_) {
            if (e.row == nullptr) {
              dst.strings.push_back(table_->DictEntry(col, codes[e.rid]));
            } else {
              dst.strings.push_back((*e.row)[col].AsString());
            }
          }
          break;
        }
      }
    }
    out->rows += emits_.size();
    if (ctx->meter != nullptr) {
      // Every row in the run — clean or dirty — charges one predicate
      // pass; NumPredsByValue() == ranges + code_preds here (the mixed
      // path is never reached when impossible_ holds).
      ctx->meter->column_values +=
          (end - begin) * NumPredsByValue() +
          emits_.size() * spec_.projection.size();
      ctx->meter->output_rows += emits_.size();
    }
  }

  /// Run over a zone-map-pruned (or dictionary-impossible) base block:
  /// only the dirty rids can match, so only they are evaluated — and
  /// only they charge predicate work, exactly like the row path.
  void ScanDirtyOnlyRun(size_t begin, size_t end, ExecContext* ctx,
                        Batch* out) {
    if (delta_ == nullptr) return;
    for (size_t r = begin; r < end; ++r) {
      if (!delta_->DirtyBit(r)) continue;
      if (prof_.enabled()) prof_.node()->rows_override++;
      if (ctx->meter != nullptr) {
        ctx->meter->column_values += NumPredsByValue();
      }
      const Row& row = delta_->OverrideRow(r);
      if (MatchesPushdowns(row, spec_)) EmitRowToBatch(row, ctx, out);
    }
  }

  /// Run over the insert segment [base_rows_, bound_): per-row value
  /// evaluation of the snapshot's insert rows (no zone maps there).
  void ScanInsertRun(size_t begin, size_t end, ExecContext* ctx,
                     Batch* out) {
    if (prof_.enabled()) prof_.node()->rows_insert += end - begin;
    for (size_t r = begin; r < end; ++r) {
      if (ctx->meter != nullptr) {
        ctx->meter->column_values += NumPredsByValue();
      }
      const Row& row = delta_->InsertRow(r);
      if (MatchesPushdowns(row, spec_)) EmitRowToBatch(row, ctx, out);
    }
  }

  /// Projects a matching version row into the batch vectors.
  void EmitRowToBatch(const Row& row, ExecContext* ctx, Batch* out) {
    for (size_t j = 0; j < spec_.projection.size(); ++j) {
      const size_t col = spec_.projection[j];
      ColumnVector& dst = out->cols[j];
      switch (types_[j]) {
        case DataType::kInt64:
          dst.ints.push_back(row[col].AsInt());
          break;
        case DataType::kDouble:
          dst.doubles.push_back(row[col].AsDouble());
          break;
        case DataType::kString:
          dst.strings.push_back(row[col].AsString());
          break;
      }
    }
    ++out->rows;
    if (ctx->meter != nullptr) {
      ctx->meter->column_values += spec_.projection.size();
      ++ctx->meter->output_rows;
    }
  }

  /// Row-path evaluation of a version row (override or insert): charges
  /// one predicate pass, and on a match projects into *out and charges
  /// like the base emit path. Returns true when a row was produced.
  bool EvalDeltaRow(const Row& row, ExecContext* ctx, Row* out) {
    if (ctx->meter != nullptr) {
      ctx->meter->column_values += NumPredsByValue();
    }
    if (!MatchesPushdowns(row, spec_)) return false;
    out->clear();
    out->reserve(spec_.projection.size());
    for (size_t col : spec_.projection) out->push_back(row[col]);
    if (ctx->meter != nullptr) {
      ctx->meter->column_values += spec_.projection.size();
      ++ctx->meter->output_rows;
    }
    return true;
  }

  bool BlockPruned(size_t block) const {
    for (const NumRange& pred : spec_.ranges) {
      double mn;
      double mx;
      if (!table_->BlockMinMax(pred.column, block, &mn, &mx)) continue;
      if (mx < pred.lo || mn > pred.hi) return true;
    }
    return false;
  }

  bool Matches(size_t r, ExecContext* ctx) const {
    if (ctx->meter != nullptr) {
      ctx->meter->column_values +=
          spec_.ranges.size() + code_preds_.size();
    }
    for (const NumRange& pred : spec_.ranges) {
      const double v = table_->GetDouble(pred.column, r);
      if (v < pred.lo || v > pred.hi) return false;
    }
    for (const CodePred& pred : code_preds_) {
      const uint32_t code = table_->GetStringCode(pred.column, r);
      bool found = false;
      for (const uint32_t c : pred.codes) {
        if (c == code) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  /// Claims this worker's next morsel and clamps it to the snapshot
  /// bound. Returns false (scan done) in serial mode or when the morsel
  /// set is exhausted.
  bool ClaimNextRange() {
    if (spec_.morsels == nullptr) return false;
    size_t begin;
    size_t end;
    while (spec_.morsels->Claim(spec_.worker, &claim_, &begin, &end)) {
      end = std::min(end, bound_);
      if (begin >= end) continue;
      row_ = begin;
      limit_ = end;
      return true;
    }
    return false;
  }

  const ColumnTable* table_;
  size_t bound_;
  /// Visibility snapshot for bitmap merge mode; null in eager mode (and
  /// when the snapshot is empty), which degrades every path to the plain
  /// merged-base scan.
  const ColumnDeltaSnapshot* delta_;
  /// First insert-segment rid: delta_->base_rows, or bound_ without one.
  size_t base_rows_;
  ScanSpec spec_;
  std::vector<DataType> types_;
  size_t row_ = 0;
  size_t limit_ = 0;
  MorselSet::ClaimState claim_;
  std::vector<CodePred> code_preds_;
  std::vector<uint32_t> match_;  // surviving row ids of the current run
  std::vector<uint32_t> dirty_rows_;  // dirty rids of the current run
  std::vector<EmitRef> emits_;        // rid-ordered survivors (mixed run)
  bool impossible_ = false;
  /// True while scanning a zone-map-pruned block that has dirty bits:
  /// clean rows are skipped, dirty rows still evaluate.
  bool pruned_ = false;
  OpProfiler prof_;
};

/// Index range scan: walks a B+-tree index over [lo, hi] of the hinted
/// range predicate, fetches visible rows, applies the residual predicates
/// and projects. Used when a query plan hints an index that exists in the
/// physical schema (Figure 6b, "all indexes").
///
/// Row mode fetches each rid with RowTable::Read (a full-row copy) and is
/// the oracle. Batch mode fetches the rids of one batch through
/// RowTable::VisitRids, which meters every rid exactly like Read but
/// hands out the visible row by reference, and appends only the
/// projected cells of the matches — so both modes emit the same rows in
/// the same batches and charge identical WorkMeter totals.
class IndexRangeScanOp final : public Operator {
 public:
  IndexRangeScanOp(const RowTable* table, const IndexInfo* index,
                   Ts snapshot, ScanSpec spec, NumRange bounds)
      : table_(table),
        index_(index),
        snapshot_(snapshot),
        spec_(std::move(spec)),
        bounds_(bounds),
        types_(ProjectedTypes(*table_, spec_)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "IndexScan",
                    "table=" + spec_.table + " index=" + spec_.index_hint);
    // Materialize candidate rids from the index (bounded range).
    rids_.clear();
    std::string lo;
    std::string hi;
    key::EncodeInt64(static_cast<int64_t>(bounds_.lo), &lo);
    key::EncodeInt64(static_cast<int64_t>(bounds_.hi) + 1, &hi);
    index_->tree->ScanRange(
        lo, hi,
        [&](const std::string&, uint64_t rid) {
          rids_.push_back(rid);
          return true;
        },
        ctx->meter);
    pos_ = 0;
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      Row row;
      while (pos_ < rids_.size()) {
        const Rid rid = rids_[pos_++];
        if (!table_->Read(rid, snapshot_, &row, ctx->meter)) continue;
        if (!MatchesPushdowns(row, spec_)) continue;
        out->clear();
        out->reserve(spec_.projection.size());
        for (size_t col : spec_.projection) out->push_back(row[col]);
        if (ctx->meter != nullptr) ++ctx->meter->output_rows;
        return true;
      }
      return false;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] { return NextBatchImpl(ctx, out); });
  }

  bool NextBatchImpl(ExecContext* ctx, Batch* out) {
    out->ResetTypes(types_);
    size_t emitted = 0;
    const auto visit = [&](Rid, const Row& row) {
      if (!MatchesPushdowns(row, spec_)) return true;
      AppendProjected(row, spec_, out);
      ++emitted;
      return true;
    };
    // Each rid yields at most one row, so fetching no more rids than the
    // batch has room for never overfills it: a batch ends after exactly
    // batch_rows matches, or at the last rid.
    while (out->rows < ctx->batch_rows && pos_ < rids_.size()) {
      const size_t n =
          std::min(rids_.size() - pos_, ctx->batch_rows - out->rows);
      table_->VisitRids(snapshot_, rids_.data() + pos_, n, visit,
                        ctx->meter);
      pos_ += n;
    }
    if (ctx->meter != nullptr) ctx->meter->output_rows += emitted;
    return out->rows > 0;
  }

 private:
  const RowTable* table_;
  const IndexInfo* index_;
  Ts snapshot_;
  ScanSpec spec_;
  NumRange bounds_;
  std::vector<DataType> types_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

}  // namespace

OperatorPtr RowDataSource::Scan(const ScanSpec& spec) const {
  const RowTable* table = catalog_->GetTable(spec.table);
  assert(table != nullptr && "unknown table in scan spec");
  if (!spec.index_hint.empty() && spec.morsels == nullptr) {
    const IndexInfo* index = catalog_->GetIndex(spec.index_hint);
    if (index != nullptr && index->key_columns.size() == 1) {
      for (const NumRange& range : spec.ranges) {
        if (range.column == index->key_columns[0]) {
          return std::make_unique<IndexRangeScanOp>(table, index, snapshot_,
                                                    spec, range);
        }
      }
    }
  }
  return std::make_unique<RowScanOp>(table, snapshot_, spec);
}

size_t RowDataSource::ScanExtent(const std::string& table) const {
  const RowTable* t = catalog_->GetTable(table);
  // NumSlots may keep growing after the plan is built, but rids appended
  // past this point carry begin_ts > snapshot_ and are invisible anyway,
  // so the morsel cover of [0, extent) misses nothing the snapshot sees.
  return t == nullptr ? 0 : t->NumSlots();
}

OperatorPtr ColumnDataSource::Scan(const ScanSpec& spec) const {
  const auto it = tables_.find(spec.table);
  assert(it != tables_.end() && "unknown table in scan spec");
  return std::make_unique<ColumnScanOp>(it->second.table, it->second.bound,
                                        it->second.delta.get(), spec);
}

size_t ColumnDataSource::ScanExtent(const std::string& table) const {
  const auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.bound;
}

}  // namespace hattrick
