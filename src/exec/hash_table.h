#ifndef HATTRICK_EXEC_HASH_TABLE_H_
#define HATTRICK_EXEC_HASH_TABLE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/key_encoding.h"
#include "common/value.h"

namespace hattrick {

/// Appends the operator-local key of `v` to `out`: a one-byte type tag
/// followed by the memcomparable key::EncodeValue bytes. The tag makes
/// the key-type rule hold wherever rows are keyed by value (group keys,
/// the gather-merge exchange): keys of different types never join or
/// group together (EncodeValue alone maps int64
/// 0x4000000000000000 and double 2.0 to the same 8 bytes). Within one
/// type the tag is constant, so sorting by this key orders groups exactly
/// as sorting by EncodeValue does. B+-tree keys keep plain EncodeValue.
inline void AppendTypedKey(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  key::EncodeValue(v, out);
}

/// Hash and equality of the typed keys KeyIndex supports. Doubles hash
/// and compare by bit pattern — the same equivalence as their encoded
/// key bytes (so -0.0 and 0.0 are different keys).
template <typename K>
struct KeyTraits;

/// Murmur3's 64-bit finalizer: full avalanche, so masking the low bits
/// of the result indexes a power-of-two table well even for dense keys.
inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

template <>
struct KeyTraits<int64_t> {
  static uint64_t Hash(int64_t v) {
    return MixHash64(static_cast<uint64_t>(v));
  }
  static bool Eq(int64_t a, int64_t b) { return a == b; }
};

template <>
struct KeyTraits<uint64_t> {
  static uint64_t Hash(uint64_t v) { return MixHash64(v); }
  static bool Eq(uint64_t a, uint64_t b) { return a == b; }
};

template <>
struct KeyTraits<double> {
  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static uint64_t Hash(double v) { return MixHash64(Bits(v)); }
  static bool Eq(double a, double b) { return Bits(a) == Bits(b); }
};

template <>
struct KeyTraits<std::string> {
  static uint64_t Hash(const std::string& v) {
    return MixHash64(std::hash<std::string>{}(v));
  }
  static bool Eq(const std::string& a, const std::string& b) { return a == b; }
};

/// Open-addressing (linear probing, power-of-two, load <= 1/2) map from
/// a typed key to a caller-chosen uint32 id. The join table and the
/// group-by key dictionaries are built from it; keys are stored inline
/// in the slots, so an int64 lookup touches one cache line in the common
/// case and never materializes a Value or an encoded string.
template <typename K>
class KeyIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  size_t size() const { return size_; }

  /// Sizes the table for `n` keys in one allocation, so inserting them
  /// rehashes nothing. Only valid while the table is empty.
  void Reserve(size_t n) {
    assert(size_ == 0 && "Reserve on a non-empty KeyIndex");
    size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    if (capacity <= slots_.size()) return;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
  }

  /// The id stored for `key`, or kNone.
  uint32_t Find(const K& key) const {
    if (size_ == 0) return kNone;
    for (size_t i = KeyTraits<K>::Hash(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (KeyTraits<K>::Eq(s.key, key)) return s.id;
    }
  }

  /// The id stored for `key`; when absent, stores `fresh_id` (which must
  /// not be kNone) and returns it.
  uint32_t FindOrInsert(const K& key, uint32_t fresh_id) {
    assert(fresh_id != kNone);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = KeyTraits<K>::Hash(key) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s.key = key;
        s.id = fresh_id;
        ++size_;
        return fresh_id;
      }
      if (KeyTraits<K>::Eq(s.key, key)) return s.id;
    }
  }

 private:
  struct Slot {
    K key{};
    uint32_t id = kNone;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = KeyTraits<K>::Hash(s.key) & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Build side of a typed hash join: distinct keys map to dense ids in a
/// KeyIndex, and the build rows sharing a key form a chain through
/// `next_` in insertion order, so a probe row's matches come out in
/// build order.
template <typename K>
class JoinTable {
 public:
  static constexpr uint32_t kNone = KeyIndex<K>::kNone;

  /// Indexes build rows 0..keys.size()-1 by their key. The key index
  /// and the chain heads are sized once for all-distinct keys, so no
  /// build rehashes.
  void Build(const std::vector<K>& keys) {
    assert(keys.size() < kNone && "row ids are uint32");
    index_.Reserve(keys.size());
    head_.reserve(keys.size());
    next_.assign(keys.size(), kNone);
    // Walking the rows backwards and pushing each onto its key's chain
    // head leaves every chain in ascending (insertion) order.
    for (size_t row = keys.size(); row-- > 0;) {
      const uint32_t id =
          index_.FindOrInsert(keys[row], static_cast<uint32_t>(head_.size()));
      if (id == head_.size()) head_.push_back(kNone);
      next_[row] = head_[id];
      head_[id] = static_cast<uint32_t>(row);
    }
  }

  /// First build row whose key equals `key`, or kNone.
  uint32_t First(const K& key) const {
    const uint32_t id = index_.Find(key);
    return id == kNone ? kNone : head_[id];
  }

  /// Build row after `row` on its key's chain, or kNone.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Number of distinct build keys.
  size_t num_keys() const { return head_.size(); }

 private:
  KeyIndex<K> index_;
  std::vector<uint32_t> head_;  // key id -> first build row
  std::vector<uint32_t> next_;  // build row -> next row with the same key
};

}  // namespace hattrick

#endif  // HATTRICK_EXEC_HASH_TABLE_H_
