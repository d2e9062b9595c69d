#ifndef HATTRICK_EXEC_JOIN_FILTER_H_
#define HATTRICK_EXEC_JOIN_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/value.h"

namespace hattrick {

/// Runtime join-key filters (lookahead information passing): after its
/// batch-mode build, each dimension hash join above a fact-table scan
/// publishes the exact key set of its build side, and the scan drops
/// the rows no join above it would match before gathering any projected
/// column — so they are never materialized or probed.
///
/// Filter i belongs to the i-th hash join above the scan, in join order.
/// The scan applies the leading run of published filters and stops at
/// the first unpublished one: dropping a row at filter i is exact only
/// when joins 0..i-1 are 1:1, and publication requires unique build
/// keys. A join that does not publish still probes every row it
/// receives, so an unpublished filter costs speed, never correctness.
///
/// Meter parity: a row dropped at filter i still costs what the
/// unfiltered plan charges for it, each share in the operator that owns
/// it — the scan charges its emission, join j <= i charges one hash
/// probe and join j < i one output row (HashJoinOp reads the drop counts
/// after each call to its probe child). Work-meter totals, per-node
/// work and logical rows_out therefore equal those of the same plan
/// built without filters. A filter lives for one plan execution: the join
/// resets it in Open, and it is written there and read by the same
/// shard's scan on the same thread.
class JoinKeyFilter {
 public:
  /// Span bound: a filter is published only when its key range spans
  /// at most this many values per build row (one bitmap bit each, so at
  /// most 128 bytes per build row).
  static constexpr uint64_t kMaxSpanPerRow = 1024;

  /// Withdraws the filter and zeroes its drop count.
  void Reset() {
    published_ = false;
    lo_ = 0;
    span_ = 0;
    bits_.clear();
    dropped_ = 0;
  }

  /// Publishes the key set of an int64 build side of `keys.size()` rows
  /// holding `distinct` distinct keys — only when the keys are unique
  /// and their span is within kMaxSpanPerRow per row. An empty build
  /// side publishes the empty set. Returns whether it published.
  bool Publish(const std::vector<int64_t>& keys, size_t distinct) {
    Reset();
    if (distinct != keys.size()) return false;
    if (!keys.empty()) {
      const auto [mn, mx] = std::minmax_element(keys.begin(), keys.end());
      const uint64_t span =
          static_cast<uint64_t>(*mx) - static_cast<uint64_t>(*mn) + 1;
      if (span == 0 || span > kMaxSpanPerRow * keys.size()) return false;
      lo_ = *mn;
      span_ = span;
      bits_.assign((span + 63) / 64, 0);
      for (const int64_t k : keys) {
        const uint64_t off =
            static_cast<uint64_t>(k) - static_cast<uint64_t>(lo_);
        bits_[off >> 6] |= uint64_t{1} << (off & 63);
      }
    }
    published_ = true;
    return true;
  }

  bool published() const { return published_; }

  /// Whether `key` is in the published set.
  bool Contains(int64_t key) const {
    const uint64_t off =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_);
    return off < span_ && ((bits_[off >> 6] >> (off & 63)) & 1) != 0;
  }

  /// Rows the scan dropped at this filter.
  uint64_t dropped() const { return dropped_; }
  void AddDropped(uint64_t n) { dropped_ += n; }

 private:
  bool published_ = false;
  int64_t lo_ = 0;
  uint64_t span_ = 0;  // 0: the empty set
  std::vector<uint64_t> bits_;
  uint64_t dropped_ = 0;
};

/// The runtime filters of one fact-table scan, in join order. A query
/// plan declares it on the fact ScanSpec (one fact column per join) and
/// hands filter i to the i-th join above the scan (JoinFilterRef).
class JoinFilterSet {
 public:
  /// `columns[i]`: the fact-table column join i probes with.
  explicit JoinFilterSet(std::vector<size_t> columns)
      : columns_(std::move(columns)), filters_(columns_.size()) {}

  size_t size() const { return filters_.size(); }
  size_t column(size_t i) const { return columns_[i]; }
  JoinKeyFilter& filter(size_t i) { return filters_[i]; }

  /// Number of leading published filters: the ones a scan may apply.
  size_t PublishedPrefix() const {
    size_t n = 0;
    while (n < filters_.size() && filters_[n].published()) ++n;
    return n;
  }

  /// Rows the scan dropped at filters i..size()-1.
  uint64_t DroppedFrom(size_t i) const {
    uint64_t n = 0;
    for (; i < filters_.size(); ++i) n += filters_[i].dropped();
    return n;
  }

  /// Whether `row` (whose filter columns are int64) passes the leading
  /// `applied` filters; a rejected row counts as dropped at the first
  /// filter that rejects it.
  bool Passes(const Row& row, size_t applied) {
    for (size_t i = 0; i < applied; ++i) {
      if (!filters_[i].Contains(row[columns_[i]].AsInt())) {
        filters_[i].AddDropped(1);
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<size_t> columns_;
  std::vector<JoinKeyFilter> filters_;
};

/// The filter a hash join publishes: entry `index` of `set`. A null set
/// publishes nothing.
struct JoinFilterRef {
  std::shared_ptr<JoinFilterSet> set;
  size_t index = 0;
};

}  // namespace hattrick

#endif  // HATTRICK_EXEC_JOIN_FILTER_H_
