#ifndef HATTRICK_EXEC_OPERATOR_H_
#define HATTRICK_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/value.h"
#include "common/work_meter.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/join_filter.h"
#include "exec/morsel.h"
#include "obs/plan_profile.h"
#include "obs/trace.h"

namespace hattrick {

/// Per-query execution state: the work meter that accumulates the cost of
/// the query (fed to the simulator's cost model) plus the parallelism
/// knobs consulted when the plan is built and executed.
struct ExecContext {
  WorkMeter* meter = nullptr;

  /// Degree of intra-query parallelism. 1 (the paper-faithful default)
  /// executes the serial plan; >1 executes a morsel-parallel plan whose
  /// worker shards run on real threads (see exec/parallel.h).
  int dop = 1;

  /// Morsel scheduling: dynamic claiming (wall-clock drivers, load
  /// balance) vs static round-robin (simulated drivers, where metered
  /// work must not depend on thread scheduling).
  bool dynamic_morsels = false;

  /// Target rows per column-vector batch (>= 1). Defaults to
  /// kDefaultBatchRows unless the HATTRICK_BATCH_ROWS env override is set
  /// (the CI degenerate-batch leg). Results and WorkMeter totals do not
  /// depend on it (tests/profile_test.cc checks every plan node at
  /// widths 1, 7 and 1024).
  size_t batch_rows = DefaultBatchRows();

  /// Engine session pin (AnalyticsSession::guard). Worker threads hold a
  /// copy for their whole lifetime so the engine cannot move data (delta
  /// merge, reset) under a shard even if the issuing client releases its
  /// session early.
  std::shared_ptr<void> session_pin;

  /// Optional tracing (both null by default — benches pay nothing).
  /// When set, the gather-merge exchange records one span per worker
  /// shard on tracks trace_tid, trace_tid+1, ... using trace_clock.
  obs::Tracer* tracer = nullptr;
  const Clock* trace_clock = nullptr;
  uint32_t trace_tid = 0;

  /// Optional EXPLAIN ANALYZE profile (null by default — operators pay
  /// one pointer test per call). When set, every operator registers a
  /// PlanProfileNode in Open and accumulates rows/batches/work-meter
  /// units/injected-clock time per NextBatch (exec/op_profiler.h).
  /// Profiling never writes the meter or alters control flow, so
  /// results and metered totals are bit-identical with it on or off.
  obs::PlanProfile* profile = nullptr;
};

/// Physical operator, batch-at-a-time: NextBatch hands out column-vector
/// batches with selection vectors. Scans stream; blocking operators (hash
/// join build, aggregation, sort) drain their children in Open.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator; called once before NextBatch.
  virtual void Open(ExecContext* ctx) = 0;

  /// Produces the next batch (>= 1 active row) into *out; returns false
  /// when exhausted.
  virtual bool NextBatch(ExecContext* ctx, Batch* out) = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Numeric pushdown predicate: lo <= column <= hi (inclusive). The column
/// scan uses these to prune zone-map blocks.
struct NumRange {
  size_t column;
  double lo;
  double hi;
};

/// String pushdown predicate: column IN values (equality when single).
struct StrIn {
  size_t column;
  std::vector<std::string> values;
};

/// What a query needs from a base table: a projection plus conjunctive
/// pushdown predicates. Plans are written against the logical HATtrick
/// schema; the engine's DataSource lowers the spec onto its physical
/// representation (row store with MVCC snapshot, or column store).
struct ScanSpec {
  std::string table;
  std::vector<size_t> projection;  // output columns, in output order
  std::vector<NumRange> ranges;
  std::vector<StrIn> str_in;
  /// Optional plan hint: name of a B+-tree index whose first key column
  /// matches one of `ranges`. Row-store backends use an index range scan
  /// when the index exists (the paper's Figure 6b "all indexes"
  /// configuration accelerating analytical plans); columnar backends and
  /// reduced physical schemas ignore the hint. Ignored when `morsels` is
  /// set (parallel shards always partition the heap/column extent).
  std::string index_hint;
  /// Optional morsel restriction: when set, the scan covers only the
  /// morsels this spec's `worker` claims from the shared set, instead of
  /// the whole table. Used by the parallel plans' fact-table shards.
  std::shared_ptr<MorselSet> morsels;
  uint32_t worker = 0;
  /// Optional runtime join-key filters published by the hash joins above
  /// this scan, in join order (exec/join_filter.h). Row-store and
  /// column-store scans drop the rows they reject, charged as if emitted,
  /// so the same plan built without filters defines what a drop costs;
  /// index scans ignore them.
  std::shared_ptr<JoinFilterSet> join_filters;
};

/// Engine-provided factory for base-table scans. The 13 SSB query plans
/// are backend-agnostic: they consume whatever operators the data source
/// produces for their scan specs.
class DataSource {
 public:
  virtual ~DataSource() = default;
  virtual OperatorPtr Scan(const ScanSpec& spec) const = 0;

  /// Number of rows/slots a full scan of `table` would cover right now
  /// (the row bound for columnar sources, the slot count for row
  /// sources). Parallel plans use it to build the MorselSet partitioning
  /// the fact-table scan; 0 means the source cannot be morselized.
  virtual size_t ScanExtent(const std::string& table) const {
    (void)table;
    return 0;
  }

  /// Horizontally partitioned sources (the sharded engine) expose one
  /// view per shard; query planning then scatters a per-shard subplan
  /// over each view and gathers the partial aggregates. Single-node
  /// sources return empty (the default), which keeps ordinary planning
  /// untouched. The returned views are owned by this source and stay
  /// valid for the life of the analytics session.
  virtual std::vector<const DataSource*> ShardViews() const { return {}; }
};

/// Relational operators used by the HATtrick query plans.

/// Filters rows by a residual predicate.
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// Computes one output expression per column.
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs);

/// Hash join: materializes `build`, probes with `probe`. Output is
/// probe row concatenated with build row. Join keys must be single
/// columns on each side (all SSB joins are key/foreign-key equijoins).
/// After its build the join publishes its build keys into
/// `filter` when they qualify (JoinKeyFilter::Publish); `filter` must be
/// the entry of the scan below whose column is `probe_key`'s source.
OperatorPtr MakeHashJoin(OperatorPtr probe, size_t probe_key,
                         OperatorPtr build, size_t build_key,
                         JoinFilterRef filter = {});

/// One aggregate specification.
struct AggSpec {
  enum class Kind { kSum, kCount, kMin, kMax };
  Kind kind = Kind::kSum;
  ExprPtr arg;  // unused for kCount
};

/// Fixed-point scale of SUM accumulation: 1e-4 units (DECIMAL(.,4)).
/// Inputs must stay below ~9e11 in magnitude so the scaled value fits the
/// exact integer range of double/int64; HATtrick's monetary domain tops
/// out around 1e9.
inline constexpr double kSumFixedPointScale = 1e4;

/// Quantizes one SUM input to its exact fixed-point representation.
int64_t QuantizeSumValue(double v);

/// Hash aggregation; output = group-by values then aggregate values, with
/// groups emitted in deterministic (encoded-key) order. With no group-by
/// columns produces exactly one row (global aggregate).
///
/// SUM over kDouble inputs accumulates in fixed-point (1e-4 units, i.e.
/// DECIMAL(.,4) semantics — SSB's monetary columns are DECIMAL in the
/// spec). Integer accumulation is exactly associative, so a sum is a pure
/// function of the input *set*: serial plans, per-worker partial
/// aggregates, and any morsel schedule produce bit-identical results.
OperatorPtr MakeHashAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_by,
                              std::vector<AggSpec> aggregates);

/// Per-worker partial aggregation for morsel-parallel plans: identical to
/// MakeHashAggregate except an empty input produces no output row (not
/// even for a global aggregate), so merging partials never folds identity
/// placeholders into MIN/MAX and the gather-merge operator alone decides
/// the empty-global row.
OperatorPtr MakePartialHashAggregate(OperatorPtr child,
                                     std::vector<ExprPtr> group_by,
                                     std::vector<AggSpec> aggregates);

/// Sort specification: expression + direction.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Full sort (materializing); used for ORDER BY clauses.
OperatorPtr MakeOrderBy(OperatorPtr child, std::vector<SortKey> keys);

/// Fixed in-memory input (used by tests).
OperatorPtr MakeValuesScan(std::vector<Row> rows);

/// Drains `op` into a vector of materialized rows (helper for tests and
/// result collection): the active rows of its batches, in order.
std::vector<Row> Collect(Operator* op, ExecContext* ctx);

/// Drains `op` batch-at-a-time without materializing rows (the exchange
/// and benches use this).
std::vector<Batch> CollectBatches(Operator* op, ExecContext* ctx);

}  // namespace hattrick

#endif  // HATTRICK_EXEC_OPERATOR_H_
