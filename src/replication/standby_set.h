#ifndef HATTRICK_REPLICATION_STANDBY_SET_H_
#define HATTRICK_REPLICATION_STANDBY_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/work_meter.h"
#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "replication/replica.h"
#include "replication/wal_stream.h"
#include "storage/catalog.h"

namespace hattrick {

/// The standby chain of both replicated designs ("primary row store +
/// log-shipped replica"): N row-store standbys, each fed by its own
/// WalStream, replayed by its own Replica and, with faults enabled,
/// disturbed by its own FaultInjector. IsolatedEngine owns one set of N
/// standbys of one primary (PostgreSQL-SR, Section 6.3); ShardedEngine
/// owns one set with a learner standby per shard (TiDB, Section 6.5).
///
/// The set owns the whole chain: building, bulk load, the post-load
/// image and reset, the commit fan-out sinks, the apply step, the commit
/// throttle, standby vacuum and the `repl.*` / `fault.injected.*`
/// metrics. The owning engine decides only what a commit waits for and
/// which standby serves a query.
class StandbySet {
 public:
  /// Backpressure: once a standby's unacknowledged retention buffer
  /// holds more than kMaxBacklogRecords, each write commit stalls
  /// kStallSecondsPerRecord per excess record, at most kStallCapSeconds,
  /// so a degraded standby bounds the backlog instead of letting the
  /// primary run away from it.
  static constexpr size_t kMaxBacklogRecords = 4096;
  static constexpr double kStallSecondsPerRecord = 20e-6;
  static constexpr double kStallCapSeconds = 5e-3;

  StandbySet() = default;
  StandbySet(const StandbySet&) = delete;
  StandbySet& operator=(const StandbySet&) = delete;

  /// Builds `count` standbys with `spec`'s tables and indexes. With
  /// `fault.enabled`, standby i's injector is seeded
  /// `fault.seed ^ 0x9e3779b97f4a7c15 * (i + 1)`: standbys fail
  /// independently and each schedule stays seed-deterministic.
  void Create(const DatabaseSpec& spec, size_t count, const FaultConfig& fault);

  /// Base backup: loads `rows` into standby `i` outside the WAL channel.
  Status BulkLoad(size_t i, const std::string& table,
                  const std::vector<Row>& rows);

  /// Captures every standby's post-load image; replay starts at LSN 0.
  void FinishLoad();

  /// Restores the post-load images, empties the streams and zeroes the
  /// throttle total.
  void Reset();

  /// A sink (owned by the set) that forwards each committed record to
  /// `inner`, if any, then ships it to standbys [first, first + count).
  WalSink* AddSink(size_t first, size_t count, WalSink* inner = nullptr);

  /// One apply step on the healthy standby with the lowest applied LSN
  /// among those with lag. True when it did useful work (applied,
  /// skipped a duplicate, requested a resend, recovered).
  bool Step(WorkMeter* meter);

  /// Shipped-but-unapplied records summed over healthy standbys (an
  /// errored applier never progresses; counting it would have a driver
  /// poll forever).
  size_t Pending() const;
  /// Largest lag of any standby, healthy or not.
  size_t MaxLag() const;
  uint64_t MinAppliedLsn() const;

  /// Stall for the write commit at `lsn`: the backpressure stall or the
  /// largest injected ship delay, whichever is longer. Adds it to the
  /// `repl.throttle_seconds` total.
  double CommitThrottle(uint64_t lsn);

  /// Vacuums every standby at its replay snapshot; returns versions
  /// dropped.
  size_t Vacuum();

  /// Attaches metrics (probes and apply counters), tracer and clock
  /// (`wal-ship` and `replica-recover` / `replica-error` instants).
  void SetObservability(const obs::Observability& observability);

  size_t size() const { return standbys_.size(); }
  Catalog* catalog(size_t i) { return standbys_[i].catalog.get(); }
  /// Standby i's post-load contents (tables only, no indexes).
  const Catalog& image(size_t i) const { return *standbys_[i].image; }
  WalStream* stream(size_t i) { return standbys_[i].stream.get(); }
  Replica* replica(size_t i) { return standbys_[i].replica.get(); }

 private:
  class ShipSink;

  struct Standby {
    std::unique_ptr<Catalog> catalog;
    std::unique_ptr<Catalog> image;
    std::unique_ptr<FaultInjector> injector;  // null when faults disabled
    std::unique_ptr<WalStream> stream;
    std::unique_ptr<Replica> replica;
  };

  /// Deepest unacknowledged retention buffer: the backpressure signal.
  size_t MaxRetainedRecords() const;

  std::vector<Standby> standbys_;
  std::vector<std::unique_ptr<WalSink>> sinks_;
  std::atomic<double> throttle_seconds_total_{0};
  obs::Observability obs_;
  obs::Counter* applied_records_metric_ = nullptr;
  obs::Counter* crash_recoveries_metric_ = nullptr;
};

}  // namespace hattrick

#endif  // HATTRICK_REPLICATION_STANDBY_SET_H_
