#include "exec/parallel.h"

#include <algorithm>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include "exec/hash_table.h"
#include "exec/op_profiler.h"

namespace hattrick {

namespace {

/// Executes every shard plan on its own thread, then merges the partial
/// aggregate rows into final groups (see MakeGatherMerge in parallel.h).
class GatherMergeOp final : public Operator {
 public:
  GatherMergeOp(std::vector<OperatorPtr> shards, size_t group_columns,
                std::vector<AggSpec::Kind> kinds)
      : shards_(std::move(shards)),
        group_columns_(group_columns),
        kinds_(std::move(kinds)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "GatherMerge",
                    "shards=" + std::to_string(shards_.size()));
    const size_t n = shards_.size();
    // Each worker ships its partial-aggregate output as column-vector
    // batches (no per-row materialization on the worker side).
    std::vector<std::vector<Batch>> shard_batches(n);
    std::vector<WorkMeter> shard_meters(n);
    // Private per-worker profiles (workers must not share a PlanProfile);
    // grafted under this operator's node in shard order after the join,
    // so the merged tree is schedule-independent like the meters.
    std::vector<obs::PlanProfile> shard_profiles;
    if (prof_.enabled()) {
      shard_profiles.assign(n, obs::PlanProfile(ctx->profile->clock()));
    }
    {
      // Each worker gets a private context: its own meter (merged below in
      // shard order, so totals are schedule-independent) and a copy of the
      // session pin so the engine's analytical state outlives the thread.
      std::vector<std::thread> workers;
      workers.reserve(n);
      for (size_t w = 0; w < n; ++w) {
        workers.emplace_back([this, ctx, w, &shard_batches, &shard_meters,
                              &shard_profiles] {
          obs::ScopedSpan span(ctx->tracer, ctx->trace_clock, "morsel-shard",
                               "morsel",
                               ctx->trace_tid + static_cast<uint32_t>(w));
          ExecContext worker_ctx;
          worker_ctx.meter = &shard_meters[w];
          worker_ctx.dop = ctx->dop;
          worker_ctx.dynamic_morsels = ctx->dynamic_morsels;
          worker_ctx.batch_rows = ctx->batch_rows;
          worker_ctx.session_pin = ctx->session_pin;
          if (!shard_profiles.empty()) {
            worker_ctx.profile = &shard_profiles[w];
          }
          shard_batches[w] = CollectBatches(shards_[w].get(), &worker_ctx);
        });
      }
      for (std::thread& t : workers) t.join();
    }
    if (ctx->meter != nullptr) {
      for (const WorkMeter& m : shard_meters) *ctx->meter += m;
    }
    if (prof_.enabled()) ctx->profile->AbsorbShards(shard_profiles);

    // Merge partials: group key -> (key values, exact sums/counts, min/max
    // doubles). std::map keeps typed encoded-key order, matching the serial
    // HashAggregateOp's sorted output.
    struct Merged {
      Row key_values;
      std::vector<int64_t> exact;
      std::vector<double> accum;
    };
    std::map<std::string, Merged> groups;
    const auto merge_row = [&](const Row& row) {
        std::string key;
        for (size_t i = 0; i < group_columns_; ++i) {
          AppendTypedKey(row[i], &key);
        }
        auto [it, inserted] = groups.try_emplace(std::move(key));
        Merged& m = it->second;
        if (inserted) {
          m.key_values.assign(row.begin(), row.begin() + group_columns_);
          m.exact.resize(kinds_.size(), 0);
          m.accum.resize(kinds_.size());
          for (size_t i = 0; i < kinds_.size(); ++i) {
            switch (kinds_[i]) {
              case AggSpec::Kind::kMin:
                m.accum[i] = std::numeric_limits<double>::infinity();
                break;
              case AggSpec::Kind::kMax:
                m.accum[i] = -std::numeric_limits<double>::infinity();
                break;
              default:
                m.accum[i] = 0;
            }
          }
        }
        for (size_t i = 0; i < kinds_.size(); ++i) {
          const double v = row[group_columns_ + i].AsDouble();
          switch (kinds_[i]) {
            case AggSpec::Kind::kSum:
              // Partial sums are fixed-point values rendered as double;
              // re-quantizing recovers the exact integer (sums stay well
              // inside double's 2^53 exact range), so the merged total is
              // bit-identical to a serial aggregation.
              m.exact[i] += QuantizeSumValue(v);
              break;
            case AggSpec::Kind::kCount:
              m.exact[i] += static_cast<int64_t>(v);
              break;
            case AggSpec::Kind::kMin:
              m.accum[i] = std::min(m.accum[i], v);
              break;
            case AggSpec::Kind::kMax:
              m.accum[i] = std::max(m.accum[i], v);
              break;
          }
        }
    };
    // Shards merge in worker order, so the merged groups — and the
    // fixed-point partial sums — fold identically under any schedule.
    Row scratch;
    for (size_t w = 0; w < n; ++w) {
      for (const Batch& b : shard_batches[w]) {
        const size_t active = b.ActiveRows();
        for (size_t k = 0; k < active; ++k) {
          b.MaterializeRow(b.ActiveIndex(k), &scratch);
          merge_row(scratch);
        }
      }
    }

    // A global aggregate over empty input still yields the serial plan's
    // single zero row (partial shards emit nothing for empty input).
    if (group_columns_ == 0 && groups.empty()) {
      Merged zero;
      zero.exact.assign(kinds_.size(), 0);
      zero.accum.assign(kinds_.size(), 0.0);
      groups.emplace(std::string(), std::move(zero));
    }

    output_.reserve(groups.size());
    for (auto& [key, m] : groups) {
      Row out = std::move(m.key_values);
      for (size_t i = 0; i < kinds_.size(); ++i) {
        switch (kinds_[i]) {
          case AggSpec::Kind::kSum:
            out.emplace_back(static_cast<double>(m.exact[i]) /
                             kSumFixedPointScale);
            break;
          case AggSpec::Kind::kCount:
            out.emplace_back(static_cast<double>(m.exact[i]));
            break;
          default:
            out.emplace_back(m.accum[i]);
        }
      }
      output_.push_back(std::move(out));
    }
    prof_.OpenEnd(ctx);
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
  std::vector<OperatorPtr> shards_;
  size_t group_columns_;
  std::vector<AggSpec::Kind> kinds_;
  std::vector<Row> output_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

}  // namespace

OperatorPtr MakeGatherMerge(std::vector<OperatorPtr> shards,
                            size_t group_columns,
                            std::vector<AggSpec::Kind> kinds) {
  return std::make_unique<GatherMergeOp>(std::move(shards), group_columns,
                                         std::move(kinds));
}

}  // namespace hattrick
