#include "shard/two_pc.h"

#include <algorithm>
#include <cstring>

namespace hattrick {

namespace {

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* out) {
  if (*pos + 8 > in.size()) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* out) {
  if (*pos + 4 > in.size()) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

}  // namespace

std::string TwoPcRecord::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  out.push_back(commit ? 1 : 0);
  PutU64(gtid, &out);
  PutU32(static_cast<uint32_t>(participants.size()), &out);
  for (const uint32_t shard : participants) PutU32(shard, &out);
  return out;
}

bool TwoPcRecord::Decode(const std::string& bytes, TwoPcRecord* out) {
  if (bytes.size() < 2) return false;
  const uint8_t kind_byte = static_cast<uint8_t>(bytes[0]);
  if (kind_byte > 1) return false;
  // The decision flag is a strict boolean byte: any other value would
  // decode to a record that re-encodes differently.
  const uint8_t commit_byte = static_cast<uint8_t>(bytes[1]);
  if (commit_byte > 1) return false;
  out->kind = static_cast<Kind>(kind_byte);
  out->commit = commit_byte == 1;
  size_t pos = 2;
  uint32_t count = 0;
  if (!GetU64(bytes, &pos, &out->gtid)) return false;
  if (!GetU32(bytes, &pos, &count)) return false;
  out->participants.clear();
  // A corrupt count must not drive the allocation: reserve no more
  // participants than the remaining bytes can hold.
  out->participants.reserve(
      std::min<size_t>(count, (bytes.size() - pos) / 4));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t shard = 0;
    if (!GetU32(bytes, &pos, &shard)) return false;
    out->participants.push_back(shard);
  }
  return pos == bytes.size();
}

}  // namespace hattrick
