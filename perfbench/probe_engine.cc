#include "probe_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace hattrick {
namespace perfbench {

namespace {

/// Work done between two readings of one meter.
WorkMeter Delta(const WorkMeter& after, const WorkMeter& before) {
  WorkMeter d;
  d.rows_read = after.rows_read - before.rows_read;
  d.rows_written = after.rows_written - before.rows_written;
  d.index_nodes = after.index_nodes - before.index_nodes;
  d.index_writes = after.index_writes - before.index_writes;
  d.column_values = after.column_values - before.column_values;
  d.output_rows = after.output_rows - before.output_rows;
  d.hash_probes = after.hash_probes - before.hash_probes;
  d.wal_records = after.wal_records - before.wal_records;
  d.wal_bytes = after.wal_bytes - before.wal_bytes;
  d.merged_rows = after.merged_rows - before.merged_rows;
  d.version_hops = after.version_hops - before.version_hops;
  d.predicate_locks = after.predicate_locks - before.predicate_locks;
  d.conflict_waits = after.conflict_waits - before.conflict_waits;
  return d;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

/// TxnContext decorator handed to the wrapped body: forwards every call
/// to the engine's context and records its duration and meter delta.
class TimedTxnContext final : public TxnContext {
 public:
  TimedTxnContext(TxnContext* inner, const ProbeEngine* probe,
                  ProbeEngine::ClientProbe* client, TxnRecord* record)
      : inner_(inner), probe_(probe), client_(client), record_(record) {}

  Ts snapshot() const override { return inner_->snapshot(); }
  IsolationLevel isolation() const override { return inner_->isolation(); }

  Status Read(TableId table_id, Rid rid, Row* out,
              WorkMeter* meter) override {
    const uint64_t hops0 = meter != nullptr ? meter->version_hops : 0;
    const double t0 = probe_->Now();
    Status status = inner_->Read(table_id, rid, out, meter);
    const double t1 = probe_->Now();
    const uint64_t hops = meter != nullptr ? meter->version_hops - hops0 : 0;
    client_->reads.push_back({t1, t1 - t0, hops});
    ++record_->reads;
    return status;
  }

  size_t IndexLookup(const IndexInfo& index,
                     const std::vector<Value>& key_values,
                     const std::function<bool(Rid, const Row&)>& visitor,
                     WorkMeter* meter) override {
    const uint64_t hops0 = meter != nullptr ? meter->version_hops : 0;
    const double t0 = probe_->Now();
    const size_t matches =
        inner_->IndexLookup(index, key_values, visitor, meter);
    const double t1 = probe_->Now();
    const uint64_t hops = meter != nullptr ? meter->version_hops - hops0 : 0;
    // A lookup is a point read too: the body's hot rows (customer,
    // supplier) are read through it.
    client_->reads.push_back({t1, t1 - t0, hops});
    client_->index_lookups.push_back({t1, t1 - t0});
    ++record_->reads;
    ++record_->index_lookups;
    return matches;
  }

  Rid BufferInsert(TableId table_id, Row row) override {
    ++record_->buffered_writes;
    return inner_->BufferInsert(table_id, std::move(row));
  }

  void BufferUpdate(TableId table_id, Rid rid, Row old_row,
                    Row new_row) override {
    ++record_->buffered_writes;
    inner_->BufferUpdate(table_id, rid, std::move(old_row),
                         std::move(new_row));
  }

  void BufferDelta(TableId table_id, Rid rid, uint32_t column,
                   Value increment) override {
    ++record_->buffered_writes;
    ++record_->deltas;
    inner_->BufferDelta(table_id, rid, column, std::move(increment));
  }

  void ScanVisible(TableId table_id,
                   const std::function<bool(Rid, const Row&)>& visitor,
                   WorkMeter* meter) override {
    inner_->ScanVisible(table_id, visitor, meter);
  }

 private:
  TxnContext* const inner_;
  const ProbeEngine* const probe_;
  ProbeEngine::ClientProbe* const client_;
  TxnRecord* const record_;
};

/// Owner of an analytics session's original guard. Its deleter runs when
/// the driver releases the session's last guard copy, right after the
/// query. Both drivers declare the query's WorkMeter before the session
/// and release the session before the meter, so `meter` is alive then.
struct ProbeEngine::QueryHold {
  std::shared_ptr<void> inner_guard;
  ProbeEngine* probe = nullptr;
  const WorkMeter* meter = nullptr;
  WorkMeter at_begin;
  double begin_s = 0;
};

ProbeEngine::ProbeEngine(HtapEngine* inner, int max_client_id, bool detailed)
    : inner_(inner),
      detailed_(detailed),
      clients_(static_cast<size_t>(std::max(max_client_id, 0)) + 1) {}

Status ProbeEngine::Create(const DatabaseSpec& spec) {
  return inner_->Create(spec);
}

Status ProbeEngine::BulkLoad(const std::string& table,
                             const std::vector<Row>& rows) {
  return inner_->BulkLoad(table, rows);
}

Status ProbeEngine::FinishLoad() { return inner_->FinishLoad(); }
size_t ProbeEngine::Vacuum() { return inner_->Vacuum(); }
Status ProbeEngine::Reset() { return inner_->Reset(); }
Catalog* ProbeEngine::primary_catalog() { return inner_->primary_catalog(); }
TxnManager* ProbeEngine::txn_manager() { return inner_->txn_manager(); }

void ProbeEngine::OnObservabilityChanged() {
  inner_->SetObservability(obs_);
}

ProbeEngine::ClientProbe& ProbeEngine::Client(uint32_t client_id) {
  if (client_id == 0 || client_id >= clients_.size()) {
    std::fprintf(stderr, "ProbeEngine: client id %u outside [1, %zu]\n",
                 client_id, clients_.size() - 1);
    std::abort();
  }
  return clients_[client_id];
}

TxnOutcome ProbeEngine::ExecuteTransaction(const TxnBody& body,
                                           uint32_t client_id,
                                           uint64_t txn_num,
                                           WorkMeter* meter) {
  ClientProbe& client = Client(client_id);
  ++client.calls;
  if (txn_num != client.max_txn_num + 1) client.in_order = false;
  client.max_txn_num = std::max(client.max_txn_num, txn_num);

  if (!detailed_) {
    TxnOutcome outcome =
        inner_->ExecuteTransaction(body, client_id, txn_num, meter);
    if (outcome.status.ok()) {
      client.commit_times.push_back(Now());
      client.last_committed_txn_num = txn_num;
    }
    return outcome;
  }

  TxnRecord record;
  const WorkMeter before = *meter;
  const TxnBody timed = [&](TxnContext* ctx, WorkMeter* body_meter) {
    TimedTxnContext timed_ctx(ctx, this, &client, &record);
    const double t0 = Now();
    Status status = body(&timed_ctx, body_meter);
    const double t1 = Now();
    client.bodies.push_back({t1, t1 - t0});
    record.body_s += t1 - t0;
    return status;
  };
  record.begin_s = Now();
  TxnOutcome outcome =
      inner_->ExecuteTransaction(timed, client_id, txn_num, meter);
  record.end_s = Now();

  record.committed = outcome.status.ok();
  record.attempts = outcome.attempts;
  record.backoff_s = outcome.backoff_s;
  record.throttle_s = outcome.wait.throttle_s;
  record.shards_touched = outcome.shards_touched;
  record.work = Delta(*meter, before);
  if (record.committed) {
    client.commit_times.push_back(record.end_s);
    client.last_committed_txn_num = txn_num;
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->RecordSpan(
        "execute_txn", "engine", obs::kTrackTClientBase + client_id - 1,
        record.begin_s, record.end_s,
        "\"txn_num\":" + std::to_string(txn_num));
  }
  client.txns.push_back(record);
  return outcome;
}

AnalyticsSession ProbeEngine::BeginAnalytics(WorkMeter* meter) {
  begin_calls_.fetch_add(1, std::memory_order_relaxed);
  if (!detailed_) return inner_->BeginAnalytics(meter);

  const uint64_t merged0 = meter->merged_rows;
  const double t0 = Now();
  AnalyticsSession session = inner_->BeginAnalytics(meter);
  const double t1 = Now();
  {
    MutexLock lock(&analytics_mutex_);
    begins_.push_back({t1, t1 - t0, meter->merged_rows - merged0});
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->RecordSpan("begin_analytics", "engine", obs::kTrackEngine,
                            t0, t1);
  }
  auto* hold = new QueryHold{std::move(session.guard), this, meter, *meter,
                             t1};
  session.guard = std::shared_ptr<void>(hold, [](QueryHold* h) {
    h->probe->EndQuery(*h);
    delete h;
  });
  return session;
}

void ProbeEngine::EndQuery(const QueryHold& hold) {
  const double t1 = Now();
  query_releases_.fetch_add(1, std::memory_order_relaxed);
  QueryRecord record;
  record.end_s = t1;
  record.seconds = t1 - hold.begin_s;
  record.work = Delta(*hold.meter, hold.at_begin);
  MutexLock lock(&analytics_mutex_);
  queries_.push_back(record);
}

bool ProbeEngine::MaintenanceStep(WorkMeter* meter) {
  if (!detailed_) return inner_->MaintenanceStep(meter);
  MaintenanceRecord record;
  record.pending_before = inner_->MaintenancePending();
  const uint64_t records0 = meter->wal_records;
  const double t0 = Now();
  record.useful = inner_->MaintenanceStep(meter);
  record.end_s = Now();
  record.seconds = record.end_s - t0;
  record.applied_records = meter->wal_records - records0;
  if (record.useful && obs_.tracer != nullptr) {
    obs_.tracer->RecordSpan("maintenance_step", "engine", obs::kTrackApplier,
                            t0, record.end_s);
  }
  MutexLock lock(&maintenance_mutex_);
  maintenance_.push_back(record);
  return record.useful;
}

size_t ProbeEngine::MaintenancePending() const {
  return inner_->MaintenancePending();
}

bool ProbeEngine::IsApplied(uint64_t lsn) const {
  return inner_->IsApplied(lsn);
}

uint64_t ProbeEngine::applied_lsn() const { return inner_->applied_lsn(); }

CommitWait ProbeEngine::CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) {
  return inner_->CommitWaitFor(lsn, wal_bytes);
}

ProbeData ProbeEngine::Collect() const {
  ProbeData data;
  data.begin_calls = begin_calls_.load();
  data.query_releases = query_releases_.load();
  data.last_committed_txn_num.assign(clients_.size(), 0);
  for (size_t id = 1; id < clients_.size(); ++id) {
    const ClientProbe& client = clients_[id];
    data.txn_calls += client.calls;
    data.txn_commits += client.commit_times.size();
    if (!client.in_order || client.calls != client.max_txn_num) {
      data.txn_nums_complete = false;
    }
    data.last_committed_txn_num[id] = client.last_committed_txn_num;
    Append(&data.commit_times, client.commit_times);
    Append(&data.txns, client.txns);
    Append(&data.reads, client.reads);
    Append(&data.bodies, client.bodies);
    Append(&data.index_lookups, client.index_lookups);
  }
  std::sort(data.commit_times.begin(), data.commit_times.end());
  {
    MutexLock lock(&analytics_mutex_);
    data.begins = begins_;
    data.queries = queries_;
  }
  MutexLock lock(&maintenance_mutex_);
  data.maintenance = maintenance_;
  return data;
}

}  // namespace perfbench
}  // namespace hattrick
