#ifndef HATTRICK_OBS_PLAN_PROFILE_H_
#define HATTRICK_OBS_PLAN_PROFILE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"

namespace hattrick {
namespace obs {

/// Per-operator counters of one profiled plan execution (EXPLAIN
/// ANALYZE). Operators hold a pointer to their node for the lifetime of
/// the query and bump the counters directly — PlanProfile is
/// single-threaded by design; parallel shards profile into private
/// profiles that are grafted in afterwards (AbsorbShards).
struct PlanProfileNode {
  std::string name;    // operator, e.g. "HashJoin"
  std::string detail;  // operator-specific, e.g. "table=LINEORDER"
  int parent = -1;     // index into PlanProfile::node(); -1 for the root
  std::vector<int> children;

  uint64_t opens = 0;      // Open() calls (> 1 only in aggregates)
  uint64_t calls = 0;      // NextBatch() calls
  uint64_t batches = 0;    // successful NextBatch() returns
  uint64_t rows_out = 0;   // active rows produced
  uint64_t phys_rows = 0;  // physical rows produced (before selection)

  /// Column-scan detail: zone-map pruning at block granularity and the
  /// bitmap-snapshot lanes the scanned rows came through. Zero for
  /// every other operator.
  uint64_t blocks_scanned = 0;  // blocks whose clean lanes were evaluated
  uint64_t blocks_pruned = 0;   // blocks skipped/narrowed by the zone map
  uint64_t rows_clean = 0;      // clean base rows evaluated
  uint64_t rows_override = 0;   // dirty/override rows evaluated
  uint64_t rows_insert = 0;     // insert-segment rows evaluated

  /// Scan detail: rows a runtime join filter dropped before emission
  /// (they still count in rows_out, which stays the logical count).
  /// Zero for every other operator.
  uint64_t join_filter_dropped = 0;

  /// Inclusive work-meter units and injected-clock seconds: each covers
  /// this operator's Open + NextBatch calls, children included
  /// (blocking operators drain children inside Open, streaming ones
  /// inside NextBatch — either way the child's share nests in the parent's).
  uint64_t work_units = 0;
  double open_seconds = 0;
  double next_seconds = 0;

  /// Span bounds on the injected clock: first Open begin to the end of
  /// the last call. Used to emit per-operator child spans into a trace.
  double first_ts = 0;
  double last_ts = 0;
  bool has_ts = false;

  /// Active-row density of the produced batches in [0,1]; 1 when no
  /// physical rows were produced.
  double SelectionDensity() const {
    if (phys_rows == 0) return 1.0;
    return static_cast<double>(rows_out) / static_cast<double>(phys_rows);
  }

  double TotalSeconds() const { return open_seconds + next_seconds; }
};

/// The profile of one plan execution: a tree of PlanProfileNodes built
/// as operators Open (BeginNode/EndNode nest like the Open calls do),
/// then filled in as they produce rows. Deterministic by construction —
/// every counter derives from the metered execution and the injected
/// clock, so two same-seed simulated runs export byte-identical JSON.
///
/// Profiling must not perturb execution: nothing here writes the work
/// meter or changes operator control flow; operators only consult their
/// node pointer (null when profiling is off).
class PlanProfile {
 public:
  /// `clock` provides operator timings and span bounds; nullptr pins
  /// every timestamp to zero (counters still accumulate).
  explicit PlanProfile(const Clock* clock = nullptr) : clock_(clock) {}

  const Clock* clock() const { return clock_; }
  double NowOrZero() const { return clock_ != nullptr ? clock_->Now() : 0; }

  /// Registers an operator node under the currently open node (the plan
  /// root when none is open) and opens it; the operator's children
  /// register under it until EndNode. Returned pointer stays valid for
  /// the profile's lifetime.
  PlanProfileNode* BeginNode(const char* name, std::string detail);

  /// Closes the innermost open node.
  void EndNode();

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  const PlanProfileNode& node(size_t i) const { return nodes_[i]; }

  /// Executions folded into this profile: 1 once a tree was recorded,
  /// plus 1 per Accumulate.
  uint64_t executions() const { return executions_; }

  /// Display label (query name); empty by default.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// Grafts the element-wise sum of the identically shaped `shards`
  /// under the currently open node (the gather-merge exchange calls this
  /// with its worker-shard profiles before closing its own node).
  /// Shards with mismatched shapes are grafted individually instead.
  void AbsorbShards(const std::vector<PlanProfile>& shards);

  /// Folds another execution of the same plan into this profile: copies
  /// the tree when this profile is empty, otherwise sums counters
  /// node-by-node. Returns false (leaving this profile unchanged) when
  /// the shapes differ.
  bool Accumulate(const PlanProfile& other);

  /// EXPLAIN ANALYZE-style tree rendering.
  std::string ToText() const;

  /// Deterministic JSON export: fixed field order, entries in tree
  /// preorder, doubles in the snapshot export format.
  std::string ToJson() const;

  /// 16-hex-digit FNV-1a digest over the tree shape and row/work
  /// counters. Time fields are excluded, so the digest is stable across
  /// clock choices (virtual vs wall) and only moves when the plan shape
  /// or its metered behavior changes.
  std::string Digest() const;

  /// Emits one span per timed node onto `tracer` (category "operator",
  /// track `tid`). Parent spans contain child spans, so trace viewers
  /// nest them like the EXPLAIN tree.
  void EmitSpans(Tracer* tracer, uint32_t tid) const;

 private:
  void RenderNode(int index, int depth, std::string* out) const;

  const Clock* clock_ = nullptr;
  std::string label_;
  uint64_t executions_ = 0;
  // deque: BeginNode must not invalidate the node pointers operators hold.
  std::deque<PlanProfileNode> nodes_;
  std::vector<int> stack_;
};

}  // namespace obs
}  // namespace hattrick

#endif  // HATTRICK_OBS_PLAN_PROFILE_H_
