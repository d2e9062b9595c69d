#include "replication/standby_set.h"

#include <algorithm>
#include <utility>

namespace hattrick {

/// Forwards committed records to the owner's own sink (a hybrid node's
/// column-store delta feed) and then to a range of standby streams. Runs
/// inside the commit tail, so records arrive in commit order on all.
class StandbySet::ShipSink final : public WalSink {
 public:
  ShipSink(StandbySet* set, size_t first, size_t count, WalSink* inner)
      : set_(set), first_(first), count_(count), inner_(inner) {}

  void OnCommit(const WalRecord& record) override {
    if (inner_ != nullptr) inner_->OnCommit(record);
    for (size_t i = first_; i < first_ + count_; ++i) {
      set_->standbys_[i].stream->OnCommit(record);
    }
    const obs::Observability& o = set_->obs_;
    if (o.tracer != nullptr && o.clock != nullptr) {
      o.tracer->Instant("wal-ship", "repl", obs::kTrackEngine, o.clock->Now(),
                        "\"lsn\":" + std::to_string(record.lsn));
    }
  }

 private:
  StandbySet* set_;
  size_t first_;
  size_t count_;
  WalSink* inner_;
};

void StandbySet::Create(const DatabaseSpec& spec, size_t count,
                        const FaultConfig& fault) {
  standbys_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    Standby& standby = standbys_[i];
    standby.catalog = std::make_unique<Catalog>();
    BuildCatalog(spec, /*with_indexes=*/true, standby.catalog.get());
    standby.image = std::make_unique<Catalog>();
    BuildCatalog(spec, /*with_indexes=*/false, standby.image.get());
    standby.stream = std::make_unique<WalStream>();
    standby.replica =
        std::make_unique<Replica>(standby.catalog.get(), standby.stream.get());
    if (fault.enabled) {
      FaultConfig per_standby = fault;
      per_standby.seed =
          fault.seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1));
      standby.injector = std::make_unique<FaultInjector>(per_standby);
      standby.stream->SetFaultInjector(standby.injector.get());
      standby.replica->SetFaultInjector(standby.injector.get());
    }
  }
}

Status StandbySet::BulkLoad(size_t i, const std::string& table,
                            const std::vector<Row>& rows) {
  return BulkLoadInto(standbys_[i].catalog.get(), table, rows);
}

void StandbySet::FinishLoad() {
  for (Standby& standby : standbys_) {
    standby.image->CopyContentsFrom(*standby.catalog);
    standby.replica->ResetTo(/*lsn=*/0, /*ts=*/1);
  }
}

void StandbySet::Reset() {
  for (Standby& standby : standbys_) {
    standby.catalog->CopyContentsFrom(*standby.image);
    standby.stream->Reset();
    standby.replica->ResetTo(/*lsn=*/0, /*ts=*/1);
  }
  throttle_seconds_total_.store(0, std::memory_order_relaxed);
}

WalSink* StandbySet::AddSink(size_t first, size_t count, WalSink* inner) {
  sinks_.push_back(std::make_unique<ShipSink>(this, first, count, inner));
  return sinks_.back().get();
}

bool StandbySet::Step(WorkMeter* meter) {
  // Advance the furthest-behind healthy standby that has work. Shard
  // standbys count LSNs in separate domains, so a caught-up standby is
  // skipped rather than compared.
  Standby* laggard = nullptr;
  for (Standby& standby : standbys_) {
    if (!standby.replica->last_error().ok()) continue;  // dead standby
    if (standby.replica->Lag() == 0) continue;
    if (laggard == nullptr ||
        standby.replica->applied_lsn() < laggard->replica->applied_lsn()) {
      laggard = &standby;
    }
  }
  if (laggard == nullptr) return false;
  const Replica::StepResult result = laggard->replica->Step(meter);
  switch (result) {
    case Replica::StepResult::kApplied:
      if (applied_records_metric_ != nullptr) applied_records_metric_->Inc();
      return true;
    case Replica::StepResult::kDuplicateSkipped:
    case Replica::StepResult::kResendRequested:
      // Recovery work happened; the queue moved, keep pumping.
      return true;
    case Replica::StepResult::kRecovered:
      if (crash_recoveries_metric_ != nullptr) crash_recoveries_metric_->Inc();
      if (obs_.tracer != nullptr && obs_.clock != nullptr) {
        obs_.tracer->Instant(
            "replica-recover", "repl", obs::kTrackApplier, obs_.clock->Now(),
            "\"resync_from_lsn\":" +
                std::to_string(laggard->replica->applied_lsn()));
      }
      return true;
    case Replica::StepResult::kError:
      // Surface the failure in the trace; the applier parks rather than
      // spinning on a broken stream.
      if (obs_.tracer != nullptr && obs_.clock != nullptr) {
        obs_.tracer->Instant(
            "replica-error", "repl", obs::kTrackApplier, obs_.clock->Now(),
            "\"error\":\"" + laggard->replica->last_error().message() + "\"");
      }
      return false;
    case Replica::StepResult::kBackingOff:
    case Replica::StepResult::kIdle:
      // Nothing useful to do right now: idle the applier. The next
      // committed record wakes it again (and drains the backoff).
      return false;
  }
  return false;
}

size_t StandbySet::Pending() const {
  size_t pending = 0;
  for (const Standby& standby : standbys_) {
    if (standby.replica->last_error().ok()) pending += standby.replica->Lag();
  }
  return pending;
}

size_t StandbySet::MaxLag() const {
  size_t lag = 0;
  for (const Standby& standby : standbys_) {
    lag = std::max(lag, standby.replica->Lag());
  }
  return lag;
}

uint64_t StandbySet::MinAppliedLsn() const {
  uint64_t min_applied = UINT64_MAX;
  for (const Standby& standby : standbys_) {
    min_applied = std::min(min_applied, standby.replica->applied_lsn());
  }
  return min_applied;
}

size_t StandbySet::MaxRetainedRecords() const {
  size_t depth = 0;
  for (const Standby& standby : standbys_) {
    depth = std::max(depth, standby.stream->RetainedRecords());
  }
  return depth;
}

double StandbySet::CommitThrottle(uint64_t lsn) {
  double throttle = 0;
  const size_t backlog = MaxRetainedRecords();
  if (backlog > kMaxBacklogRecords) {
    const double excess = static_cast<double>(backlog - kMaxBacklogRecords);
    throttle = std::min(kStallCapSeconds, kStallSecondsPerRecord * excess);
  }
  for (const Standby& standby : standbys_) {
    if (standby.injector != nullptr) {
      throttle = std::max(throttle, standby.injector->ShipDelaySeconds(lsn));
    }
  }
  if (throttle > 0) {
    throttle_seconds_total_.fetch_add(throttle, std::memory_order_relaxed);
  }
  return throttle;
}

size_t StandbySet::Vacuum() {
  size_t dropped = 0;
  for (Standby& standby : standbys_) {
    dropped += standby.catalog->VacuumAll(standby.replica->Snapshot());
  }
  return dropped;
}

void StandbySet::SetObservability(const obs::Observability& observability) {
  obs_ = observability;
  obs::MetricsRegistry* metrics = obs_.metrics;
  if (metrics == nullptr) {
    applied_records_metric_ = nullptr;
    crash_recoveries_metric_ = nullptr;
    return;
  }
  applied_records_metric_ = metrics->GetCounter(obs::kReplAppliedRecords);
  crash_recoveries_metric_ = metrics->GetCounter(obs::kReplCrashRecoveries);
  metrics->GetGauge(obs::kReplBacklogRecords)->SetProbe([this] {
    return static_cast<double>(MaxLag());
  });
  metrics->GetGauge(obs::kReplAppliedLsn)->SetProbe([this] {
    return static_cast<double>(MinAppliedLsn());
  });
  metrics->GetGauge(obs::kReplRetainedRecords)->SetProbe([this] {
    return static_cast<double>(MaxRetainedRecords());
  });
  metrics->GetGauge(obs::kReplThrottleSeconds)->SetProbe([this] {
    return throttle_seconds_total_.load(std::memory_order_relaxed);
  });
  metrics->GetGauge(obs::kReplDuplicateSkips)->SetProbe([this] {
    double total = 0;
    for (const Standby& standby : standbys_) {
      total += static_cast<double>(standby.replica->duplicate_skips());
    }
    return total;
  });
  // Shipping, recovery and fault accounting, summed across standbys.
  using StreamCount = uint64_t (WalStream::*)() const;
  const std::pair<const char*, StreamCount> stream_sums[] = {
      {obs::kReplShippedBytes, &WalStream::shipped_bytes},
      {obs::kReplResendRequests, &WalStream::resends_requested},
      {obs::kReplResendsShipped, &WalStream::resends_delivered},
      {obs::kReplResendsLost, &WalStream::resends_lost},
      {obs::kFaultInjectedDrops, &WalStream::injected_drops},
      {obs::kFaultInjectedDuplicates, &WalStream::injected_duplicates},
      {obs::kFaultInjectedReorders, &WalStream::injected_reorders},
  };
  for (const auto& [name, count] : stream_sums) {
    metrics->GetGauge(name)->SetProbe([this, count = count] {
      double total = 0;
      for (const Standby& standby : standbys_) {
        total += static_cast<double>((standby.stream.get()->*count)());
      }
      return total;
    });
  }
}

}  // namespace hattrick
