// Tests for the MVCC row store: version visibility, snapshot isolation of
// reads and scans, deletes, vacuum, and copy semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/row_table.h"

namespace hattrick {
namespace {

Schema TwoCol() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
}

Row MakeRow(int64_t k, const std::string& v) { return Row{k, v}; }

TEST(RowTableTest, InsertAssignsSequentialRids) {
  RowTable table(TwoCol());
  EXPECT_EQ(table.Insert(MakeRow(1, "a"), 10, nullptr), 0u);
  EXPECT_EQ(table.Insert(MakeRow(2, "b"), 10, nullptr), 1u);
  EXPECT_EQ(table.NumSlots(), 2u);
}

TEST(RowTableTest, RowInvisibleBeforeItsBeginTs) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), /*begin_ts=*/10, nullptr);
  Row out;
  EXPECT_FALSE(table.Read(rid, /*snapshot=*/9, &out, nullptr));
  EXPECT_TRUE(table.Read(rid, 10, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "a");
}

TEST(RowTableTest, VersionChainSnapshotReads) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v3"), 30, nullptr).ok());

  Row out;
  ASSERT_TRUE(table.Read(rid, 15, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v1");
  ASSERT_TRUE(table.Read(rid, 20, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  ASSERT_TRUE(table.Read(rid, 29, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  ASSERT_TRUE(table.Read(rid, 1000, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v3");
}

TEST(RowTableTest, ReadLatestIgnoresSnapshot) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  Row out;
  ASSERT_TRUE(table.ReadLatest(rid, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
}

TEST(RowTableTest, DeleteTerminatesVisibility) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  ASSERT_TRUE(table.MarkDeleted(rid, 20, nullptr).ok());
  Row out;
  EXPECT_TRUE(table.Read(rid, 19, &out, nullptr));
  EXPECT_FALSE(table.Read(rid, 20, &out, nullptr));
  EXPECT_FALSE(table.ReadLatest(rid, &out, nullptr));
}

TEST(RowTableTest, LatestVersionTs) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  EXPECT_EQ(table.LatestVersionTs(rid), 10u);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 25, nullptr).ok());
  EXPECT_EQ(table.LatestVersionTs(rid), 25u);
  EXPECT_EQ(table.LatestVersionTs(999), 0u);  // out of range
}

TEST(RowTableTest, AddVersionOutOfRangeFails) {
  RowTable table(TwoCol());
  EXPECT_EQ(table.AddVersion(5, MakeRow(1, "x"), 10, nullptr).code(),
            StatusCode::kNotFound);
}

TEST(RowTableTest, ScanSeesConsistentSnapshot) {
  RowTable table(TwoCol());
  const Rid r0 = table.Insert(MakeRow(1, "a"), 10, nullptr);
  table.Insert(MakeRow(2, "b"), 20, nullptr);
  ASSERT_TRUE(table.AddVersion(r0, MakeRow(1, "a2"), 30, nullptr).ok());

  std::vector<std::string> at15;
  table.Scan(15,
             [&](Rid, const Row& row) {
               at15.push_back(row[1].AsString());
               return true;
             },
             nullptr);
  EXPECT_EQ(at15, std::vector<std::string>({"a"}));

  std::vector<std::string> at30;
  table.Scan(30,
             [&](Rid, const Row& row) {
               at30.push_back(row[1].AsString());
               return true;
             },
             nullptr);
  EXPECT_EQ(at30, std::vector<std::string>({"a2", "b"}));
}

TEST(RowTableTest, ScanEarlyStop) {
  RowTable table(TwoCol());
  for (int i = 0; i < 10; ++i) table.Insert(MakeRow(i, "x"), 1, nullptr);
  int count = 0;
  table.Scan(10, [&](Rid, const Row&) { return ++count < 4; }, nullptr);
  EXPECT_EQ(count, 4);
}

TEST(RowTableTest, MeterCountsReadsWritesHops) {
  RowTable table(TwoCol());
  WorkMeter meter;
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, &meter);
  EXPECT_EQ(meter.rows_written, 1u);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 20, &meter).ok());
  EXPECT_EQ(meter.rows_written, 2u);
  WorkMeter read_meter;
  Row out;
  // Reading the old snapshot traverses past the newest version.
  ASSERT_TRUE(table.Read(rid, 15, &out, &read_meter));
  EXPECT_EQ(read_meter.rows_read, 1u);
  EXPECT_EQ(read_meter.version_hops, 2u);
}

TEST(RowTableTest, VacuumDropsOnlyDeadVersions) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v3"), 30, nullptr).ok());
  EXPECT_EQ(table.NumVersions(), 3u);

  // Horizon 15: v1 ended at 20 > 15, nothing to drop.
  EXPECT_EQ(table.Vacuum(15), 0u);
  // Horizon 25: v1 (ended 20) is invisible to any snapshot >= 25.
  EXPECT_EQ(table.Vacuum(25), 1u);
  EXPECT_EQ(table.NumVersions(), 2u);
  Row out;
  ASSERT_TRUE(table.Read(rid, 25, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  // Newest version always survives.
  EXPECT_EQ(table.Vacuum(kMaxTs - 1), 1u);
  EXPECT_EQ(table.NumVersions(), 1u);
  ASSERT_TRUE(table.ReadLatest(rid, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v3");
}

TEST(RowTableTest, CopyFromDeepCopies) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 20, nullptr).ok());

  RowTable copy(TwoCol());
  copy.CopyFrom(table);
  EXPECT_EQ(copy.NumSlots(), 1u);
  EXPECT_EQ(copy.NumVersions(), 2u);

  // Mutating the copy does not affect the original.
  ASSERT_TRUE(copy.AddVersion(0, MakeRow(1, "c"), 30, nullptr).ok());
  Row out;
  ASSERT_TRUE(table.ReadLatest(0, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "b");
}

// Property: random interleavings of inserts/updates produce version
// chains whose visibility matches a per-snapshot reference model.
class RowTableVisibilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowTableVisibilityTest, SnapshotsMatchReference) {
  Rng rng(GetParam());
  RowTable table(TwoCol());
  // reference[rid] = list of (ts, value) in ts order.
  std::vector<std::vector<std::pair<Ts, std::string>>> reference;

  Ts ts = 1;
  for (int step = 0; step < 500; ++step) {
    ts += 1 + static_cast<Ts>(rng.Uniform(0, 3));
    if (reference.empty() || rng.Bernoulli(0.3)) {
      const std::string v = "v" + std::to_string(step);
      table.Insert(MakeRow(step, v), ts, nullptr);
      reference.push_back({{ts, v}});
    } else {
      const size_t rid = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(reference.size()) - 1));
      const std::string v = "u" + std::to_string(step);
      ASSERT_TRUE(
          table.AddVersion(rid, MakeRow(step, v), ts, nullptr).ok());
      reference[rid].emplace_back(ts, v);
    }
  }

  // Check random snapshots.
  for (int probe = 0; probe < 200; ++probe) {
    const Ts snapshot = static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(ts)));
    for (size_t rid = 0; rid < reference.size(); ++rid) {
      const auto& versions = reference[rid];
      std::string expected;
      bool visible = false;
      for (const auto& [vts, value] : versions) {
        if (vts <= snapshot) {
          expected = value;
          visible = true;
        }
      }
      Row out;
      const bool got = table.Read(rid, snapshot, &out, nullptr);
      ASSERT_EQ(got, visible) << "rid=" << rid << " snap=" << snapshot;
      if (visible) EXPECT_EQ(out[1].AsString(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowTableVisibilityTest,
                         ::testing::Values(11, 22, 33, 44));

using VisibleRows = std::vector<std::pair<Rid, Row>>;

/// Builds random chains that reach every visibility path a scan takes:
/// committed full heads (the by-reference path), delta runs, tombstone
/// heads, pending full and delta heads, aborted heads, and — for
/// snapshots below the newest write — newer-than-snapshot heads.
/// Sets *newest to the newest commit timestamp used.
void BuildMixedChains(Rng* rng, RowTable* table, Ts* newest) {
  const void* const owner = table;  // any stable identity
  Ts ts = 1;
  for (int step = 0; step < 600; ++step) {
    ts += 1 + static_cast<Ts>(rng->Uniform(0, 2));
    const size_t slots = table->NumSlots();
    if (slots == 0 || rng->Bernoulli(0.2)) {
      table->Insert(MakeRow(step, "i" + std::to_string(step)), ts, nullptr);
      continue;
    }
    const Rid rid = static_cast<Rid>(
        rng->Uniform(0, static_cast<int64_t>(slots) - 1));
    const int64_t kind = rng->Uniform(0, 9);
    if (kind <= 2) {
      ASSERT_TRUE(table
                      ->AddVersion(rid, MakeRow(step, "u" + std::to_string(step)),
                                   ts, nullptr)
                      .ok());
    } else if (kind <= 5) {
      ASSERT_TRUE(table
                      ->AddDeltaVersion(rid, 0, Value(rng->Uniform(-5, 5)),
                                        ts, nullptr)
                      .ok());
    } else if (kind == 6) {
      ASSERT_TRUE(table->MarkDeleted(rid, ts, nullptr).ok());
    } else if (kind == 7) {
      // Pending full write: published, withdrawn (aborted head), or left
      // in flight (pending head). Fails on a foreign pending version.
      mvcc::VersionNode* node = table->TryInstallFull(
          rid, MakeRow(step, "p" + std::to_string(step)), owner, ts,
          nullptr);
      if (node == nullptr) continue;
      const int64_t fate = rng->Uniform(0, 2);
      if (fate == 0) mvcc::Publish(node, ts);
      if (fate == 1) mvcc::Withdraw(node);
    } else {
      mvcc::VersionNode* node = table->TryInstallDelta(
          rid, 0, Value(int64_t{100}), owner, nullptr);
      if (node == nullptr) continue;
      const int64_t fate = rng->Uniform(0, 2);
      if (fate == 0) mvcc::Publish(node, ts);
      if (fate == 1) mvcc::Withdraw(node);
    }
  }
  *newest = ts;
}

/// The Read-based reference of a scan at `snapshot`: every visible row in
/// rid order, plus the meter a heap scan charges for it (the whole chain
/// of every slot in version_hops, one rows_read per visible row).
VisibleRows ReadReference(const RowTable& table, Ts snapshot,
                          WorkMeter* meter) {
  VisibleRows rows;
  for (Rid rid = 0; rid < table.NumSlots(); ++rid) {
    Row out;
    if (table.Read(rid, snapshot, &out, nullptr)) {
      rows.emplace_back(rid, std::move(out));
    }
  }
  meter->version_hops = table.NumVersions();
  meter->rows_read = rows.size();
  return rows;
}

void ExpectSameScan(const VisibleRows& got, const WorkMeter& got_meter,
                    const VisibleRows& want, const WorkMeter& want_meter) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "row " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "rid " << got[i].first;
  }
  EXPECT_EQ(got_meter.version_hops, want_meter.version_hops);
  EXPECT_EQ(got_meter.rows_read, want_meter.rows_read);
  EXPECT_EQ(got_meter.Total(), want_meter.Total());
}

// Property: Scan, ScanRange covers at several chunk sizes, and VisitRids
// all see exactly the rows Read sees, at every probe snapshot, and meter
// like it (whole chains for heap scans, Read's own hops for rid visits).
class RowTableScanVisibilityTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowTableScanVisibilityTest, ScansMatchReadReference) {
  Rng rng(GetParam());
  RowTable table(TwoCol());
  Ts newest = 0;
  BuildMixedChains(&rng, &table, &newest);
  ASSERT_FALSE(HasFatalFailure());
  const Rid slots = table.NumSlots();

  for (int probe = 0; probe < 60; ++probe) {
    const Ts snapshot =
        probe == 0 ? kMaxTs - 1
                   : static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(newest)));
    SCOPED_TRACE("snapshot=" + std::to_string(snapshot));
    WorkMeter want_meter;
    const VisibleRows want = ReadReference(table, snapshot, &want_meter);

    VisibleRows got;
    WorkMeter meter;
    table.Scan(snapshot,
               [&](Rid rid, const Row& row) {
                 got.emplace_back(rid, row);
                 return true;
               },
               &meter);
    ExpectSameScan(got, meter, want, want_meter);

    for (const Rid chunk : {Rid{1}, Rid{7}, Rid{1024}}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk));
      VisibleRows chunked;
      WorkMeter chunk_meter;
      for (Rid begin = 0; begin < slots; begin += chunk) {
        table.ScanRange(snapshot, begin, begin + chunk,
                        [&](Rid rid, const Row& row) {
                          chunked.emplace_back(rid, row);
                          return true;
                        },
                        &chunk_meter);
      }
      ExpectSameScan(chunked, chunk_meter, want, want_meter);
    }

    // Rid visits (the index-scan fetch): every rid, including one past
    // the end, in a shuffled order; rows and meter match per-rid Reads.
    std::vector<Rid> rids;
    for (Rid rid = 0; rid <= slots; ++rid) rids.push_back(rid);
    for (size_t i = rids.size(); i > 1; --i) {
      std::swap(rids[i - 1], rids[static_cast<size_t>(rng.Uniform(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
    VisibleRows read_rows;
    WorkMeter read_meter;
    for (const Rid rid : rids) {
      Row out;
      if (table.Read(rid, snapshot, &out, &read_meter)) {
        read_rows.emplace_back(rid, std::move(out));
      }
    }
    VisibleRows visited;
    WorkMeter visit_meter;
    table.VisitRids(snapshot, rids.data(), rids.size(),
                    [&](Rid rid, const Row& row) {
                      visited.emplace_back(rid, row);
                      return true;
                    },
                    &visit_meter);
    ExpectSameScan(visited, visit_meter, read_rows, read_meter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowTableScanVisibilityTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(RowTableTest, VisitRidsEarlyStop) {
  RowTable table(TwoCol());
  for (int i = 0; i < 10; ++i) table.Insert(MakeRow(i, "x"), 1, nullptr);
  const std::vector<Rid> rids = {9, 3, 5, 7};
  std::vector<Rid> seen;
  table.VisitRids(1, rids.data(), rids.size(),
                  [&](Rid rid, const Row&) {
                    seen.push_back(rid);
                    return seen.size() < 2;
                  },
                  nullptr);
  EXPECT_EQ(seen, std::vector<Rid>({9, 3}));
}

// Concurrency (run under ThreadSanitizer by the tsan leg): scanners read
// rows by reference while a writer installs, publishes and withdraws
// versions and vacuums. In the first half, Vacuum's horizon respects a
// scanner at a fixed snapshot, which must keep returning the same rows.
// In the second half the horizon follows the writer, so Vacuum unlinks
// versions the newest-snapshot scanner may be reading at that moment;
// the epoch guard must keep them allocated until the visitor returns.
TEST(RowTableConcurrencyTest, ScansWhileInstallingAndVacuuming) {
  constexpr int kRows = 64;
  constexpr int kSteps = 4000;
  RowTable table(TwoCol());
  for (int i = 0; i < kRows; ++i) {
    const Rid rid = table.Insert(MakeRow(i, "r" + std::to_string(i)), 1,
                                 nullptr);
    ASSERT_TRUE(
        table.AddVersion(rid, MakeRow(i, "r" + std::to_string(i)), 2, nullptr)
            .ok());
  }
  constexpr Ts kFixed = 2;
  WorkMeter unused;
  const VisibleRows fixed_want = ReadReference(table, kFixed, &unused);

  std::atomic<size_t> fixed_scans{0};
  std::atomic<bool> half{false};
  std::atomic<bool> fixed_done{false};
  std::atomic<bool> stop{false};
  std::atomic<Ts> published{kFixed};
  std::thread writer([&] {
    Rng rng(7);
    const void* const owner = &rng;
    Ts ts = kFixed;
    // Start writing once the fixed-snapshot scanner is running, so its
    // later scans overlap the first half's writes.
    while (fixed_scans.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        half.store(true, std::memory_order_release);
        while (!fixed_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      ++ts;
      const Rid rid = static_cast<Rid>(rng.Uniform(0, kRows - 1));
      const std::string v = "r" + std::to_string(rid);
      switch (rng.Uniform(0, 3)) {
        case 0:
          EXPECT_TRUE(table.AddVersion(rid, MakeRow(step, v), ts, nullptr).ok());
          break;
        case 1:
          EXPECT_TRUE(table
                          .AddDeltaVersion(rid, 0, Value(int64_t{1}), ts,
                                           nullptr)
                          .ok());
          break;
        default: {
          mvcc::VersionNode* node =
              table.TryInstallFull(rid, MakeRow(step, v), owner, ts, nullptr);
          EXPECT_NE(node, nullptr);  // single writer: never a conflict
          if (node == nullptr) break;
          if (rng.Bernoulli(0.5)) {
            mvcc::Publish(node, ts);
          } else {
            mvcc::Withdraw(node);
          }
          break;
        }
      }
      published.store(ts, std::memory_order_release);
      if (step % 50 == 0) table.Vacuum(step < kSteps / 2 ? kFixed : ts);
    }
    stop.store(true, std::memory_order_release);
  });

  std::thread latest([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Ts snapshot = published.load(std::memory_order_acquire);
      size_t seen = 0;
      table.Scan(snapshot,
                 [&](Rid rid, const Row& row) {
                   EXPECT_EQ(row.size(), 2u);
                   EXPECT_EQ(row[1].AsString(), "r" + std::to_string(rid));
                   ++seen;
                   return true;
                 },
                 nullptr);
      EXPECT_LE(seen, static_cast<size_t>(kRows));
    }
  });

  do {
    VisibleRows got;
    for (Rid begin = 0; begin < kRows; begin += 7) {
      table.ScanRange(kFixed, begin, begin + 7,
                      [&](Rid rid, const Row& row) {
                        got.emplace_back(rid, row);
                        return true;
                      },
                      nullptr);
    }
    fixed_scans.fetch_add(1, std::memory_order_release);
    EXPECT_EQ(got, fixed_want);
    if (got != fixed_want) break;
  } while (!half.load(std::memory_order_acquire));
  fixed_done.store(true, std::memory_order_release);
  writer.join();
  latest.join();
}

}  // namespace
}  // namespace hattrick
