#include "engine/isolated_engine.h"

#include <cassert>

namespace hattrick {

IsolatedEngine::IsolatedEngine(IsolatedEngineConfig config)
    : config_(std::move(config)) {
  assert(config_.num_replicas >= 1);
}

Status IsolatedEngine::Create(const DatabaseSpec& spec) {
  if (created_) return Status::Internal("Create called twice");
  BuildCatalog(spec, /*with_indexes=*/true, &primary_);
  const size_t n = static_cast<size_t>(config_.num_replicas);
  standbys_.Create(spec, n, config_.fault);
  txn_manager_ = std::make_unique<TxnManager>(&primary_, &oracle_,
                                              standbys_.AddSink(0, n));
  created_ = true;
  return Status::OK();
}

Status IsolatedEngine::BulkLoad(const std::string& table,
                                const std::vector<Row>& rows) {
  if (!created_) return Status::Internal("Create not called");
  if (loaded_) return Status::Internal("load already finished");
  // Base backup: every node loads the same data outside the WAL channel.
  HATTRICK_RETURN_IF_ERROR(BulkLoadInto(&primary_, table, rows));
  for (size_t i = 0; i < standbys_.size(); ++i) {
    HATTRICK_RETURN_IF_ERROR(standbys_.BulkLoad(i, table, rows));
  }
  return Status::OK();
}

Status IsolatedEngine::FinishLoad() {
  if (loaded_) return Status::Internal("load already finished");
  oracle_.ResetTo(1);
  standbys_.FinishLoad();
  loaded_ = true;
  return Status::OK();
}

TxnOutcome IsolatedEngine::ExecuteTransaction(const TxnBody& body,
                                              uint32_t client_id,
                                              uint64_t txn_num,
                                              WorkMeter* meter) {
  TxnOutcome outcome;
  const uint64_t bytes_before = meter != nullptr ? meter->wal_bytes : 0;
  StatusOr<CommitResult> result = txn_manager_->RunWithRetries(
      config_.isolation, client_id, txn_num,
      [&](Transaction* txn) {
        LocalTxnContext ctx(txn_manager_.get(), txn);
        return body(&ctx, meter);
      },
      meter, TxnManager::kMaxRetries, &outcome.attempts, &outcome.backoff_s);
  if (!result.ok()) {
    outcome.status = result.status();
    return outcome;
  }
  outcome.status = Status::OK();
  outcome.commit_ts = result->commit_ts;
  outcome.lsn = result->lsn;
  outcome.write_keys = std::move(result.value().write_keys);
  outcome.delta_keys = std::move(result.value().delta_keys);
  if (result->lsn != 0) {  // write transaction: replication semantics apply
    outcome.wait = CommitWaitFor(
        result->lsn, meter != nullptr ? meter->wal_bytes - bytes_before : 0);
  }
  return outcome;
}

CommitWait IsolatedEngine::CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) {
  CommitWait wait;
  switch (config_.mode) {
    case ReplicationMode::kAsync:
      break;
    case ReplicationMode::kSyncShip:
      wait.kind = CommitWait::Kind::kShipDelay;
      wait.lsn = lsn;
      wait.bytes = wal_bytes;
      break;
    case ReplicationMode::kRemoteApply:
      wait.kind = CommitWait::Kind::kReplicaApplied;
      wait.lsn = lsn;
      break;
  }
  wait.throttle_s = standbys_.CommitThrottle(lsn);
  return wait;
}

AnalyticsSession IsolatedEngine::BeginAnalytics(WorkMeter* meter) {
  (void)meter;  // replay runs as MaintenanceStep, not inside queries
  // Round-robin load balancing across the standbys.
  const size_t index = next_session_.fetch_add(1) % standbys_.size();
  AnalyticsSession session;
  session.snapshot = standbys_.replica(index)->Snapshot();
  session.source = std::make_unique<RowDataSource>(standbys_.catalog(index),
                                                   session.snapshot);
  return session;
}

size_t IsolatedEngine::Vacuum() {
  obs::ScopedSpan span(obs_.tracer, obs_.clock, "vacuum", "maint",
                       obs::kTrackEngine);
  size_t dropped = primary_.VacuumAll(oracle_.last_committed());
  dropped += standbys_.Vacuum();
  if (obs_.metrics != nullptr) {
    obs_.metrics->GetCounter(obs::kStoreVacuumedVersions)->Inc(dropped);
  }
  span.AppendArgs("\"versions\":" + std::to_string(dropped));
  return dropped;
}

void IsolatedEngine::OnObservabilityChanged() {
  standbys_.SetObservability(obs_);
  // Standby trees split during replay too; wire them onto the same
  // counter the base class attached to the primary's indexes.
  obs::Counter* splits = obs_.metrics == nullptr
                             ? nullptr
                             : obs_.metrics->GetCounter(obs::kStoreBtreeSplits);
  for (size_t i = 0; i < standbys_.size(); ++i) {
    for (IndexInfo* index : standbys_.catalog(i)->AllIndexes()) {
      index->tree->set_split_counter(splits);
    }
  }
}

Status IsolatedEngine::Reset() {
  if (!loaded_) return Status::Internal("FinishLoad not called");
  // Every node loaded the same rows, so standby 0's post-load image is
  // the primary's too.
  primary_.CopyContentsFrom(standbys_.image(0));
  oracle_.ResetTo(1);
  txn_manager_->ResetLsn(1);
  standbys_.Reset();
  next_session_.store(0);
  return Status::OK();
}

}  // namespace hattrick
