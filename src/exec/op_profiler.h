#ifndef HATTRICK_EXEC_OP_PROFILER_H_
#define HATTRICK_EXEC_OP_PROFILER_H_

#include <string>
#include <utility>

#include "exec/operator.h"
#include "obs/plan_profile.h"

namespace hattrick {

/// Per-operator profiling hook. Every physical operator owns one and
/// brackets its Open with OpenBegin/OpenEnd and its NextBatch body with
/// the NextBatch wrapper. With profiling off
/// (ExecContext::profile == nullptr) every method reduces to one null
/// test, and with it on the hook only *reads* the work meter and the
/// profile's injected clock — execution, results, and metered totals
/// are identical either way.
class OpProfiler {
 public:
  /// Registers this operator's node under the currently open one and
  /// starts the Open bracket. Call first thing in Open, before opening
  /// children, so the profile tree nests like the Open calls do.
  void OpenBegin(ExecContext* ctx, const char* name,
                 std::string detail = std::string()) {
    if (ctx->profile == nullptr) return;
    profile_ = ctx->profile;
    node_ = profile_->BeginNode(name, std::move(detail));
    open_t0_ = profile_->NowOrZero();
    open_m0_ = MeterTotal(ctx);
    node_->opens++;
    if (!node_->has_ts) {
      node_->first_ts = open_t0_;
      node_->last_ts = open_t0_;
      node_->has_ts = true;
    }
  }

  /// Ends the Open bracket. Call last thing in Open.
  void OpenEnd(ExecContext* ctx) {
    if (node_ == nullptr) return;
    const double t1 = profile_->NowOrZero();
    node_->open_seconds += t1 - open_t0_;
    node_->work_units += MeterTotal(ctx) - open_m0_;
    node_->last_ts = t1;
    profile_->EndNode();
  }

  /// Runs a NextBatch body, accounting one call and (on
  /// true) the produced batch's active and physical rows.
  template <typename Fn>
  bool NextBatch(ExecContext* ctx, Batch* out, Fn&& fn) {
    if (node_ == nullptr) return fn();
    const double t0 = profile_->NowOrZero();
    const uint64_t m0 = MeterTotal(ctx);
    const bool ok = fn();
    node_->calls++;
    if (ok) {
      node_->batches++;
      node_->rows_out += out->ActiveRows();
      node_->phys_rows += out->rows;
    }
    FinishCall(ctx, t0, m0);
    return ok;
  }

  /// Counts `n` rows that a runtime join filter dropped below this
  /// operator and that the unfiltered plan would have produced here, so
  /// rows_out stays the unfiltered plan's count.
  void AddFilteredRows(uint64_t n) {
    if (node_ == nullptr) return;
    node_->rows_out += n;
    node_->phys_rows += n;
  }

  bool enabled() const { return node_ != nullptr; }

  /// The operator's node; null when profiling is off. Scans use it to
  /// record pruning and lane counters the generic hook cannot see.
  obs::PlanProfileNode* node() const { return node_; }

 private:
  static uint64_t MeterTotal(const ExecContext* ctx) {
    return ctx->meter != nullptr ? ctx->meter->Total() : 0;
  }

  void FinishCall(ExecContext* ctx, double t0, uint64_t m0) {
    const double t1 = profile_->NowOrZero();
    node_->next_seconds += t1 - t0;
    node_->work_units += MeterTotal(ctx) - m0;
    node_->last_ts = t1;
  }

  obs::PlanProfile* profile_ = nullptr;
  obs::PlanProfileNode* node_ = nullptr;
  double open_t0_ = 0;
  uint64_t open_m0_ = 0;
};

}  // namespace hattrick

#endif  // HATTRICK_EXEC_OP_PROFILER_H_
