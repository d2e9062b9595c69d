// Seeded mutation harness for the two wire decoders that read bytes
// from outside the process: WalRecord::Decode (replication and the
// column-store delta feed) and TwoPcRecord::Decode (the coordinator log).
//
// Every mutation of a valid encoding — truncation, bit flips, appended
// bytes, byte overwrites, out-of-range kind bytes — must either be
// rejected or decode to a record that re-encodes to exactly the mutated
// bytes (the formats are canonical, so anything else means the decoder
// accepted bytes it does not round-trip). The run is deterministic (fixed
// seeds and counts) and is meant to be clean under ASan and UBSan: a
// corrupt length or count must never drive an out-of-bounds read or a
// huge allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/two_pc.h"
#include "txn/wal.h"

namespace hattrick {
namespace {

constexpr int kMutationsPerEncoding = 3000;

std::vector<WalRecord> ValidWalRecords() {
  std::vector<WalRecord> records;
  records.push_back(WalRecord{});  // header only, no ops

  WalRecord insert;
  insert.lsn = 7;
  insert.commit_ts = 1234;
  insert.client_id = 3;
  insert.txn_num = 99;
  WalOp op;
  op.kind = WalOp::Kind::kInsert;
  op.table_id = 2;
  op.rid = 41;
  op.row = Row{int64_t{-5}, 2.5, std::string("lineorder"), std::string()};
  insert.ops.push_back(op);
  records.push_back(insert);

  WalRecord mixed = insert;
  mixed.lsn = 8;
  WalOp update;
  update.kind = WalOp::Kind::kUpdate;
  update.table_id = 1;
  update.rid = 0;
  update.row = Row{int64_t{1}, std::string("supplier#1"), -0.125};
  mixed.ops.push_back(update);
  WalOp delta;
  delta.kind = WalOp::Kind::kDelta;
  delta.table_id = 1;
  delta.rid = 0;
  delta.column = 2;
  delta.row = Row{19.75};
  mixed.ops.push_back(delta);
  WalOp empty_row;
  empty_row.kind = WalOp::Kind::kUpdate;
  empty_row.table_id = 4;
  empty_row.rid = 1ull << 40;
  mixed.ops.push_back(empty_row);
  records.push_back(mixed);
  return records;
}

std::vector<TwoPcRecord> ValidTwoPcRecords() {
  std::vector<TwoPcRecord> records;
  TwoPcRecord prepare;
  prepare.kind = TwoPcRecord::Kind::kPrepare;
  prepare.gtid = 17;
  prepare.participants = {0, 2, 5};
  records.push_back(prepare);
  TwoPcRecord commit;
  commit.kind = TwoPcRecord::Kind::kDecide;
  commit.gtid = 1ull << 50;
  commit.commit = true;
  commit.participants = {1};
  records.push_back(commit);
  TwoPcRecord abort_decision;
  abort_decision.kind = TwoPcRecord::Kind::kDecide;
  abort_decision.gtid = 3;
  records.push_back(abort_decision);
  return records;
}

/// One seeded mutation of `valid`: truncation, 1-3 bit flips, 1-8
/// appended bytes, or a random byte overwrite.
std::string Mutate(const std::string& valid, Rng* rng) {
  std::string bytes = valid;
  switch (rng->Uniform(0, 3)) {
    case 0:
      bytes.resize(static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(valid.size()) - 1)));
      break;
    case 1: {
      const int64_t flips = rng->Uniform(1, 3);
      for (int64_t i = 0; i < flips; ++i) {
        const size_t pos = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng->Uniform(0, 7)));
      }
      break;
    }
    case 2: {
      const int64_t extra = rng->Uniform(1, 8);
      for (int64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng->Uniform(0, 255)));
      }
      break;
    }
    default: {
      const size_t pos = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(rng->Uniform(0, 255));
      break;
    }
  }
  return bytes;
}

/// Offsets of each op's kind byte in `record`'s encoding: the header is
/// fixed-width, so op i starts where the encoding of ops [0, i) ends.
std::vector<size_t> WalKindOffsets(const WalRecord& record) {
  std::vector<size_t> offsets;
  WalRecord prefix = record;
  for (size_t i = 0; i < record.ops.size(); ++i) {
    prefix.ops.assign(record.ops.begin(), record.ops.begin() + i);
    offsets.push_back(prefix.Encode().size());
  }
  return offsets;
}

/// The harness property: rejected, or an exact round trip.
void ExpectWalRejectedOrCanonical(const std::string& bytes) {
  StatusOr<WalRecord> decoded = WalRecord::Decode(bytes);
  if (!decoded.ok()) return;
  EXPECT_EQ(decoded.value().Encode(), bytes)
      << "accepted a " << bytes.size() << "-byte buffer it does not "
      << "round-trip";
}

void ExpectTwoPcRejectedOrCanonical(const std::string& bytes) {
  TwoPcRecord decoded;
  if (!TwoPcRecord::Decode(bytes, &decoded)) return;
  EXPECT_EQ(decoded.Encode(), bytes)
      << "accepted a " << bytes.size() << "-byte buffer it does not "
      << "round-trip";
}

TEST(DecodeMutationTest, ValidEncodingsRoundTrip) {
  for (const WalRecord& record : ValidWalRecords()) {
    StatusOr<WalRecord> decoded = WalRecord::Decode(record.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), record);
  }
  for (const TwoPcRecord& record : ValidTwoPcRecords()) {
    TwoPcRecord decoded;
    ASSERT_TRUE(TwoPcRecord::Decode(record.Encode(), &decoded));
    EXPECT_EQ(decoded.Encode(), record.Encode());
  }
}

TEST(DecodeMutationTest, WalRecordEveryTruncationIsRejected) {
  for (const WalRecord& record : ValidWalRecords()) {
    const std::string valid = record.Encode();
    for (size_t len = 0; len < valid.size(); ++len) {
      EXPECT_FALSE(WalRecord::Decode(valid.substr(0, len)).ok())
          << "prefix of " << len << " / " << valid.size() << " bytes";
    }
  }
}

TEST(DecodeMutationTest, WalRecordSeededMutations) {
  Rng rng(20260);
  for (const WalRecord& record : ValidWalRecords()) {
    const std::string valid = record.Encode();
    for (int i = 0; i < kMutationsPerEncoding; ++i) {
      ExpectWalRejectedOrCanonical(Mutate(valid, &rng));
      if (HasFailure()) return;  // report the first offending buffer only
    }
  }
}

TEST(DecodeMutationTest, WalRecordOutOfRangeKindIsRejected) {
  Rng rng(20261);
  for (const WalRecord& record : ValidWalRecords()) {
    const std::string valid = record.Encode();
    for (const size_t offset : WalKindOffsets(record)) {
      for (int i = 0; i < 64; ++i) {
        std::string bytes = valid;
        bytes[offset] = static_cast<char>(rng.Uniform(3, 255));
        EXPECT_FALSE(WalRecord::Decode(bytes).ok())
            << "kind byte " << (static_cast<int>(bytes[offset]) & 0xff)
            << " at offset " << offset;
      }
    }
  }
}

TEST(DecodeMutationTest, TwoPcRecordEveryTruncationIsRejected) {
  for (const TwoPcRecord& record : ValidTwoPcRecords()) {
    const std::string valid = record.Encode();
    for (size_t len = 0; len < valid.size(); ++len) {
      TwoPcRecord decoded;
      EXPECT_FALSE(TwoPcRecord::Decode(valid.substr(0, len), &decoded))
          << "prefix of " << len << " / " << valid.size() << " bytes";
    }
  }
}

TEST(DecodeMutationTest, TwoPcRecordSeededMutations) {
  Rng rng(20262);
  for (const TwoPcRecord& record : ValidTwoPcRecords()) {
    const std::string valid = record.Encode();
    for (int i = 0; i < kMutationsPerEncoding; ++i) {
      ExpectTwoPcRejectedOrCanonical(Mutate(valid, &rng));
      if (HasFailure()) return;
    }
  }
}

TEST(DecodeMutationTest, TwoPcRecordOutOfRangeKindAndFlagAreRejected) {
  for (const TwoPcRecord& record : ValidTwoPcRecords()) {
    const std::string valid = record.Encode();
    // Byte 0 is the kind (0 or 1), byte 1 the commit flag (0 or 1).
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      for (int b = 2; b < 256; ++b) {
        std::string bytes = valid;
        bytes[offset] = static_cast<char>(b);
        TwoPcRecord decoded;
        EXPECT_FALSE(TwoPcRecord::Decode(bytes, &decoded))
            << "byte " << b << " at offset " << offset;
      }
    }
  }
}

}  // namespace
}  // namespace hattrick
