#ifndef HATTRICK_REPLICATION_WAL_STREAM_H_
#define HATTRICK_REPLICATION_WAL_STREAM_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "common/statusor.h"
#include "fault/fault_injector.h"
#include "txn/wal.h"

namespace hattrick {

/// Streaming-replication modes, mirroring PostgreSQL's
/// `synchronous_commit` settings evaluated in Section 6.3:
///  - kAsync: commit returns after the local apply; records ship later.
///  - kSyncShip ("ON"): commit returns once the record is shipped to and
///    durably written by the standby; the standby *replays* it later, so
///    analytical queries can observe a stale snapshot (freshness > 0).
///  - kRemoteApply ("RA"): commit returns only after the standby has
///    replayed the record; freshness is always zero at the cost of
///    transaction latency.
enum class ReplicationMode { kAsync, kSyncShip, kRemoteApply };

/// Returns "ASYNC", "ON" or "REMOTE_APPLY".
const char* ReplicationModeName(ReplicationMode mode);

/// One decoded record handed to the applier, with the size of its wire
/// encoding so apply-path metering never has to re-encode it.
struct ShippedRecord {
  WalRecord record;
  size_t encoded_size = 0;
};

/// A WAL shipping channel from a primary to one standby that survives an
/// unreliable network. The primary's TxnManager appends committed records
/// (WalSink); the standby's applier consumes them.
///
/// Two queues model the channel:
///  - a *retention buffer* of every record the standby has not yet
///    acknowledged (the authoritative log tail, always contiguous), and
///  - a *delivery queue* of what the network actually handed over, which
///    an attached FaultInjector can corrupt with drops, duplicates and
///    reordering.
/// The applier detects gaps in the delivery queue (Peek returns
/// kOutOfRange) and requests retransmission from the retention buffer;
/// Acknowledge() trims the buffer once records are durably applied. The
/// buffer is bounded operationally by backpressure: its depth is the
/// backlog signal StandbySet uses to throttle commits, so a
/// healthy system keeps it near the ship/apply lag instead of letting it
/// grow without bound.
///
/// No method asserts on out-of-order, duplicate or missing records; every
/// anomaly is reported as a Status and is recoverable.
class WalStream final : public WalSink {
 public:
  WalStream() = default;

  /// Attaches the network fault model (nullptr = reliable delivery).
  /// Not owned; must outlive the stream or be detached first.
  void SetFaultInjector(const FaultInjector* injector);

  /// WalSink: appends the record in commit order. Records at or below
  /// head_lsn() are re-delivered commits and are ignored (idempotent).
  void OnCommit(const WalRecord& record) override;

  /// Returns the next delivered record given that the applier has
  /// durably applied through `applied_lsn`:
  ///  - OK: the front record. Its LSN is either applied_lsn + 1 (apply
  ///    it) or <= applied_lsn (a duplicate delivery; skip and Consume).
  ///  - kNotFound: fully caught up (nothing shipped beyond applied_lsn).
  ///  - kOutOfRange: a gap — the record applied_lsn + 1 was lost in
  ///    flight (or the delivery queue front is beyond it). The applier
  ///    should RequestResend(applied_lsn + 1).
  StatusOr<ShippedRecord> Peek(uint64_t applied_lsn) const;

  /// Pops the front of the delivery queue; `lsn` must match its LSN
  /// (returns InvalidArgument otherwise, without popping).
  Status Consume(uint64_t lsn);

  /// Marks everything through `lsn` durably applied: the retention
  /// buffer drops those records (they can no longer be re-requested).
  void Acknowledge(uint64_t lsn);

  /// Requests retransmission of `lsn` (attempt is the applier's 1-based
  /// retry count, forwarded to the fault model so repeated attempts are
  /// independent draws). On success the record is pushed to the *front*
  /// of the delivery queue. The retransmission itself may be lost to an
  /// injected fault — that still returns OK, exactly as a real sender
  /// cannot tell; the applier discovers the loss on its next Peek and
  /// retries with backoff. Returns kNotFound if `lsn` was already
  /// acknowledged (nothing to resend) or never shipped.
  Status RequestResend(uint64_t lsn, uint64_t attempt);

  /// Crash recovery: drops the delivery queue and re-delivers every
  /// retained record above `applied_lsn` in order, bypassing the fault
  /// model (a fresh connection with reliable framing — this is the
  /// escalation path that guarantees convergence under any schedule).
  /// Returns the number of records re-delivered.
  size_t ResyncFrom(uint64_t applied_lsn);

  /// LSN of the newest appended record (0 if none ever appended).
  uint64_t head_lsn() const;

  /// Number of shipped-but-unapplied records after `applied_lsn`.
  size_t PendingAfter(uint64_t applied_lsn) const;

  /// Depth of the retention (retransmit) buffer: records shipped but not
  /// yet acknowledged. This is the backpressure signal.
  size_t RetainedRecords() const;

  /// Total encoded bytes appended since construction/reset.
  uint64_t shipped_bytes() const;

  /// Fault/recovery accounting (cumulative since Reset).
  uint64_t injected_drops() const;
  uint64_t injected_duplicates() const;
  uint64_t injected_reorders() const;
  uint64_t resends_requested() const;
  uint64_t resends_delivered() const;
  uint64_t resends_lost() const;

  /// Clears the stream, including fault counters (benchmark reset).
  void Reset();

 private:
  struct Entry {
    uint64_t lsn = 0;
    std::string bytes;
  };

  mutable Mutex mutex_;
  const FaultInjector* injector_ GUARDED_BY(mutex_) = nullptr;
  /// Unacked log tail, contiguous LSNs.
  std::deque<Entry> retained_ GUARDED_BY(mutex_);
  /// Network view: gaps/dups/reorders possible.
  std::deque<Entry> delivery_ GUARDED_BY(mutex_);
  /// Reorder fault: record held back one slot.
  Entry held_ GUARDED_BY(mutex_);
  bool hold_pending_ GUARDED_BY(mutex_) = false;
  uint64_t head_lsn_ GUARDED_BY(mutex_) = 0;
  uint64_t acked_lsn_ GUARDED_BY(mutex_) = 0;
  uint64_t shipped_bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t injected_drops_ GUARDED_BY(mutex_) = 0;
  uint64_t injected_duplicates_ GUARDED_BY(mutex_) = 0;
  uint64_t injected_reorders_ GUARDED_BY(mutex_) = 0;
  uint64_t resends_requested_ GUARDED_BY(mutex_) = 0;
  uint64_t resends_delivered_ GUARDED_BY(mutex_) = 0;
  uint64_t resends_lost_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hattrick

#endif  // HATTRICK_REPLICATION_WAL_STREAM_H_
