#ifndef HATTRICK_ENGINE_ISOLATED_ENGINE_H_
#define HATTRICK_ENGINE_ISOLATED_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "exec/scan.h"
#include "replication/standby_set.h"
#include "txn/timestamp.h"

namespace hattrick {

/// Isolated design (Section 2.2): a primary node executes transactions;
/// standby node(s) fed by streaming WAL replication serve analytics
/// (PostgreSQL-SR, Section 6.3).
///
/// - Compute isolation: the driver places transactions on the primary's
///   core pool and queries plus WAL replay on the standby's pool, so the
///   frontier approaches the bounding box at large scale factors.
/// - Freshness: analytical queries snapshot the *replayed* state of the
///   standby serving them. In ON mode replay is asynchronous, so queries
///   observe stale snapshots when a standby falls behind — the paper's
///   non-zero freshness scores. In REMOTE_APPLY mode commits wait for
///   replay on every standby (freshness == 0, lower T-throughput).
class IsolatedEngine final : public HtapEngine {
 public:
  explicit IsolatedEngine(IsolatedEngineConfig config = {});

  const std::string& name() const override { return config_.name; }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  /// One shared apply budget across the standbys; with one standby this
  /// is exactly its single-threaded applier.
  bool MaintenanceStep(WorkMeter* meter) override {
    return standbys_.Step(meter);
  }
  size_t MaintenancePending() const override { return standbys_.Pending(); }
  /// REMOTE_APPLY with several synchronous standbys: all must replay.
  bool IsApplied(uint64_t lsn) const override { return applied_lsn() >= lsn; }
  uint64_t applied_lsn() const override { return standbys_.MinAppliedLsn(); }
  /// Replication-mode wait (sync ship / remote apply) plus standby
  /// backpressure and injected ship-delay throttles for a write commit.
  CommitWait CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override { return &primary_; }
  TxnManager* txn_manager() override { return txn_manager_.get(); }

  /// The standby chain: one standby per configured replica.
  StandbySet& standbys() { return standbys_; }

 protected:
  void OnObservabilityChanged() override;

 private:
  IsolatedEngineConfig config_;
  Catalog primary_;
  TimestampOracle oracle_;
  StandbySet standbys_;
  std::unique_ptr<TxnManager> txn_manager_;
  std::atomic<uint64_t> next_session_{0};  // round-robin standby selector
  bool created_ = false;
  bool loaded_ = false;
};

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_ISOLATED_ENGINE_H_
