#include "txn/wal.h"

#include <algorithm>
#include <cstring>

namespace hattrick {

namespace {

// Smallest encodings: an op is kind + table id + rid + arity; a value is
// its type tag plus at least a 4-byte string length.
constexpr size_t kMinOpBytes = 1 + 4 + 8 + 4;
constexpr size_t kMinValueBytes = 1 + 4;

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

void PutValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kInt64:
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      break;
    case DataType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      PutU64(bits, out);
      break;
    }
    case DataType::kString: {
      const std::string& s = v.AsString();
      PutU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      break;
    }
  }
}

bool GetValue(const std::string& in, size_t* pos, Value* v) {
  if (*pos >= in.size()) return false;
  const auto type = static_cast<DataType>(in[*pos]);
  ++*pos;
  switch (type) {
    case DataType::kInt64: {
      uint64_t u;
      if (!GetU64(in, pos, &u)) return false;
      *v = Value(static_cast<int64_t>(u));
      return true;
    }
    case DataType::kDouble: {
      uint64_t bits;
      if (!GetU64(in, pos, &bits)) return false;
      double d;
      std::memcpy(&d, &bits, 8);
      *v = Value(d);
      return true;
    }
    case DataType::kString: {
      uint32_t len;
      if (!GetU32(in, pos, &len)) return false;
      if (*pos + len > in.size()) return false;
      *v = Value(in.substr(*pos, len));
      *pos += len;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string WalRecord::Encode() const {
  std::string out;
  PutU64(lsn, &out);
  PutU64(commit_ts, &out);
  PutU32(client_id, &out);
  PutU64(txn_num, &out);
  PutU32(static_cast<uint32_t>(ops.size()), &out);
  for (const WalOp& op : ops) {
    out.push_back(static_cast<char>(op.kind));
    PutU32(op.table_id, &out);
    PutU64(op.rid, &out);
    // The target column rides only on delta ops, keeping insert/update
    // records byte-identical to the pre-delta format.
    if (op.kind == WalOp::Kind::kDelta) PutU32(op.column, &out);
    PutU32(static_cast<uint32_t>(op.row.size()), &out);
    for (const Value& v : op.row) PutValue(v, &out);
  }
  return out;
}

StatusOr<WalRecord> WalRecord::Decode(const std::string& bytes) {
  WalRecord rec;
  size_t pos = 0;
  uint32_t num_ops = 0;
  if (!GetU64(bytes, &pos, &rec.lsn) || !GetU64(bytes, &pos, &rec.commit_ts) ||
      !GetU32(bytes, &pos, &rec.client_id) ||
      !GetU64(bytes, &pos, &rec.txn_num) || !GetU32(bytes, &pos, &num_ops)) {
    return Status::InvalidArgument("truncated WAL header");
  }
  // Counts come off the wire: reserve no more than the remaining bytes
  // could hold, so a corrupt count is rejected as truncation instead of
  // attempting a huge allocation.
  rec.ops.reserve(
      std::min<size_t>(num_ops, (bytes.size() - pos) / kMinOpBytes));
  for (uint32_t i = 0; i < num_ops; ++i) {
    WalOp op;
    if (pos >= bytes.size()) return Status::InvalidArgument("truncated op");
    // Validate before casting: every downstream dispatch (replica apply,
    // delta feed, merge) is an exhaustive switch over Kind, so an
    // out-of-range byte must die here, not alias to an arbitrary kind.
    // two_pc.cc applies the same rule to TwoPcRecord kind bytes.
    const auto kind_byte = static_cast<uint8_t>(bytes[pos]);
    if (kind_byte > static_cast<uint8_t>(WalOp::Kind::kDelta)) {
      return Status::InvalidArgument("unknown WAL op kind byte " +
                                     std::to_string(kind_byte));
    }
    op.kind = static_cast<WalOp::Kind>(kind_byte);
    ++pos;
    uint32_t arity = 0;
    if (!GetU32(bytes, &pos, &op.table_id) || !GetU64(bytes, &pos, &op.rid)) {
      return Status::InvalidArgument("truncated op header");
    }
    if (op.kind == WalOp::Kind::kDelta &&
        !GetU32(bytes, &pos, &op.column)) {
      return Status::InvalidArgument("truncated op header");
    }
    if (!GetU32(bytes, &pos, &arity)) {
      return Status::InvalidArgument("truncated op header");
    }
    op.row.reserve(
        std::min<size_t>(arity, (bytes.size() - pos) / kMinValueBytes));
    for (uint32_t c = 0; c < arity; ++c) {
      Value v;
      if (!GetValue(bytes, &pos, &v)) {
        return Status::InvalidArgument("truncated value");
      }
      op.row.push_back(std::move(v));
    }
    rec.ops.push_back(std::move(op));
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after WAL record");
  }
  return rec;
}

}  // namespace hattrick
