// Cuckoo filter (Fan et al., CoNEXT 2014) — §3.3.2 lists it as a drop-in
// alternative to the Bloom filter in Graphene ("Any alternative can be used
// if Eqs. 2, 3, 4, and 5 are updated appropriately").
//
// Partial-key cuckoo hashing: buckets of 4 fingerprints; an item may live in
// bucket i1 = h(x) or i2 = i1 ^ h(fp). Lookup probes both buckets. The
// fingerprint width sets the FPR: f ≈ 2b/2^w for bucket size b, so
// w = ceil(log2(2b/f)) bits per item plus load-factor slack (~1/0.95).
//
// bench_cuckoo_ablation compares Graphene's S implemented as Bloom vs Cuckoo
// across FPR regimes: Bloom wins at the high FPRs Protocol 1 favors (cost
// 1.44·log2(1/f) vs w/0.95 with w ≥ ~4), Cuckoo wins at low FPR — matching
// the literature.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace graphene::bloom {

class CuckooFilter {
 public:
  static constexpr std::uint32_t kBucketSize = 4;
  static constexpr std::uint32_t kMaxKicks = 500;

  /// Sizes the table for `expected_items` at `target_fpr`. target_fpr >= 1
  /// degenerates to a match-everything filter, mirroring BloomFilter.
  CuckooFilter(std::uint64_t expected_items, double target_fpr, std::uint64_t seed = 0);

  /// Inserts a 32-byte digest; returns false when the table is full (the
  /// victim is retained in a stash so no false negatives arise).
  bool insert(util::ByteView digest);

  [[nodiscard]] bool contains(util::ByteView digest) const;

  /// Cuckoo filters support deletion (Bloom filters do not).
  bool erase(util::ByteView digest);

  [[nodiscard]] bool matches_everything() const noexcept { return buckets_ == 0; }
  [[nodiscard]] std::uint64_t bucket_count() const noexcept { return buckets_; }
  [[nodiscard]] std::uint32_t fingerprint_bits() const noexcept { return fp_bits_; }
  [[nodiscard]] std::uint64_t insert_count() const noexcept { return inserted_; }

  /// Wire format: varint(buckets) | u8(fp_bits) | u64(seed) | varint(stash
  /// size) | stash | packed fingerprint table.
  /// Appends the wire encoding to `w` (in-place form of serialize()).
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  [[nodiscard]] std::size_t serialized_size() const noexcept;
  static CuckooFilter deserialize(util::ByteReader& reader);

 private:
  struct Slots {
    std::uint16_t fp[kBucketSize] = {0, 0, 0, 0};  // 0 = empty
  };

  [[nodiscard]] std::uint16_t fingerprint(std::uint64_t h) const noexcept;
  [[nodiscard]] std::uint64_t index1(std::uint64_t h) const noexcept;
  [[nodiscard]] std::uint64_t alt_index(std::uint64_t i, std::uint16_t fp) const noexcept;
  bool bucket_insert(std::uint64_t i, std::uint16_t fp);
  [[nodiscard]] bool bucket_contains(std::uint64_t i, std::uint16_t fp) const noexcept;
  bool bucket_erase(std::uint64_t i, std::uint16_t fp);

  std::vector<Slots> table_;
  std::vector<std::uint16_t> stash_;
  std::uint64_t buckets_ = 0;
  std::uint32_t fp_bits_ = 12;
  std::uint64_t seed_ = 0;
  std::uint64_t inserted_ = 0;
};

/// Serialized size estimate for n items at FPR f (the Eq. 2 analogue).
[[nodiscard]] std::size_t cuckoo_serialized_bytes(std::uint64_t n, double fpr) noexcept;

}  // namespace graphene::bloom
