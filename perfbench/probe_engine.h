#ifndef HATTRICK_PERFBENCH_PROBE_ENGINE_H_
#define HATTRICK_PERFBENCH_PROBE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "engine/htap_engine.h"

namespace hattrick {
namespace perfbench {

/// One timed call into a layer. Times are on the driver's clock (the
/// injected observability clock, wall time under ThreadedDriver).
struct CallSample {
  double end_s = 0;
  double seconds = 0;
};

/// One point read of a transaction body (TxnContext::Read or
/// IndexLookup), with the MVCC version-chain entries it walked.
struct ReadSample {
  double end_s = 0;
  double seconds = 0;
  uint64_t version_hops = 0;
};

/// One ExecuteTransaction call, with everything the decorator saw of it.
struct TxnRecord {
  double begin_s = 0;
  double end_s = 0;
  double body_s = 0;  // all body invocations (one per attempt)
  bool committed = false;
  int attempts = 1;
  double backoff_s = 0;
  double throttle_s = 0;
  int shards_touched = 1;
  uint64_t reads = 0;          // Read + IndexLookup calls
  uint64_t index_lookups = 0;  // IndexLookup calls alone
  uint64_t buffered_writes = 0;  // inserts + updates + deltas
  uint64_t deltas = 0;
  WorkMeter work;  // meter delta across the call

  double exec_s() const { return end_s - begin_s; }
  /// Commit-path self time: the call minus its bodies minus backoff.
  double commit_s() const { return exec_s() - body_s - backoff_s; }
};

/// One BeginAnalytics call.
struct BeginRecord {
  double end_s = 0;
  double seconds = 0;
  uint64_t merged_rows = 0;
};

/// One analytical query, from BeginAnalytics' return to the release of
/// its session (the driver drops the session right after the query).
struct QueryRecord {
  double end_s = 0;
  double seconds = 0;
  WorkMeter work;  // meter delta over the query's execution
};

/// One MaintenanceStep call.
struct MaintenanceRecord {
  double end_s = 0;
  double seconds = 0;
  bool useful = false;
  uint64_t applied_records = 0;  // WAL records replayed (meter delta)
  size_t pending_before = 0;     // MaintenancePending() sampled first
};

/// Everything one run's decorator recorded, merged over clients.
struct ProbeData {
  // Always recorded (cheap): call accounting and commit timestamps.
  uint64_t txn_calls = 0;
  uint64_t txn_commits = 0;
  uint64_t begin_calls = 0;
  uint64_t query_releases = 0;
  bool txn_nums_complete = true;  // every client's txn_nums were 1..calls
  std::vector<double> commit_times;
  /// Per client id (index 0 unused): the last committed txn_num.
  std::vector<uint64_t> last_committed_txn_num;

  // Recorded only by a detailed (traced) decorator.
  std::vector<TxnRecord> txns;
  std::vector<ReadSample> reads;
  std::vector<CallSample> bodies;
  std::vector<CallSample> index_lookups;
  std::vector<BeginRecord> begins;
  std::vector<QueryRecord> queries;
  std::vector<MaintenanceRecord> maintenance;
};

/// Benchmark-side decorator: an HtapEngine that forwards every virtual
/// to `inner` unchanged and times the public calls into each layer from
/// outside the program. A detailed probe wraps each TxnBody and the
/// TxnContext it receives (timing Read / IndexLookup, counting Buffer*),
/// records WorkMeter deltas at every boundary, keeps TxnOutcome fields,
/// wraps analytics sessions to time query execution, and records
/// engine spans into the driver's tracer. A plain probe only counts calls
/// and timestamps commits.
///
/// Client ids must lie in [1, max_client_id]; each id must be driven by
/// one thread at a time (the drivers' closed-loop clients are).
class ProbeEngine final : public HtapEngine {
 public:
  ProbeEngine(HtapEngine* inner, int max_client_id, bool detailed);
  ProbeEngine(const ProbeEngine&) = delete;
  ProbeEngine& operator=(const ProbeEngine&) = delete;

  const std::string& name() const override { return inner_->name(); }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override;
  TxnManager* txn_manager() override;

  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  bool MaintenanceStep(WorkMeter* meter) override;
  size_t MaintenancePending() const override;
  bool IsApplied(uint64_t lsn) const override;
  uint64_t applied_lsn() const override;
  CommitWait CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) override;

  /// Merges what the probe recorded. Call after the run's threads ended.
  ProbeData Collect() const;

  /// Driver-clock now (the probe's own wall clock outside a run).
  double Now() const {
    return obs_.clock != nullptr ? obs_.clock->Now() : own_clock_.Now();
  }

 protected:
  void OnObservabilityChanged() override;

 private:
  friend class TimedTxnContext;
  struct QueryHold;

  /// Per-client state; touched only by that client's thread during a run.
  struct ClientProbe {
    uint64_t calls = 0;
    uint64_t max_txn_num = 0;
    bool in_order = true;
    uint64_t last_committed_txn_num = 0;
    std::vector<double> commit_times;
    std::vector<TxnRecord> txns;
    std::vector<ReadSample> reads;
    std::vector<CallSample> bodies;
    std::vector<CallSample> index_lookups;
  };

  ClientProbe& Client(uint32_t client_id);
  void EndQuery(const QueryHold& hold);

  HtapEngine* const inner_;
  const bool detailed_;
  WallClock own_clock_;
  std::vector<ClientProbe> clients_;  // index = client id

  std::atomic<uint64_t> begin_calls_{0};
  std::atomic<uint64_t> query_releases_{0};

  mutable Mutex analytics_mutex_;
  std::vector<BeginRecord> begins_ GUARDED_BY(analytics_mutex_);
  std::vector<QueryRecord> queries_ GUARDED_BY(analytics_mutex_);

  mutable Mutex maintenance_mutex_;
  std::vector<MaintenanceRecord> maintenance_ GUARDED_BY(maintenance_mutex_);
};

}  // namespace perfbench
}  // namespace hattrick

#endif  // HATTRICK_PERFBENCH_PROBE_ENGINE_H_
