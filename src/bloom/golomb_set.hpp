// Golomb-coded set (GCS) — the second Bloom filter alternative §3.3.2 cites
// (Golomb 1966; deployed in BIP-158 compact block filters).
//
// Items hash uniformly into [0, N·P) with P = 1/fpr; the sorted values are
// delta-encoded with Golomb-Rice codes of parameter ~log2(P). A GCS reaches
// ~log2(1/f) + 1.5 bits/item — closer to the Carter bound than a Bloom
// filter's 1.44·log2(1/f) — at the cost of O(n) membership queries (the
// whole structure must be decoded), which is why Graphene's hot path keeps a
// Bloom filter. bench_filter_alternatives quantifies the trade.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace graphene::bloom {

class GolombSet {
 public:
  /// Builds from item digests at the given FPR. The set is immutable.
  GolombSet(const std::vector<util::Bytes>& digests, double fpr, std::uint64_t seed = 0);

  /// Convenience for 32-byte array digests.
  static GolombSet from_views(const std::vector<util::ByteView>& digests, double fpr,
                              std::uint64_t seed = 0);

  /// Membership test; decodes the whole structure (O(n)).
  [[nodiscard]] bool contains(util::ByteView digest) const;

  [[nodiscard]] std::uint64_t item_count() const noexcept { return n_; }
  [[nodiscard]] double fpr() const noexcept { return fpr_; }

  /// Wire format: varint(n) | u8(rice parameter) | u64(seed) | varint(bit
  /// count) | coded payload.
  /// Appends the wire encoding to `w` (in-place form of serialize()).
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  [[nodiscard]] std::size_t serialized_size() const noexcept;
  static GolombSet deserialize(util::ByteReader& reader);

 private:
  GolombSet() = default;
  void build(std::vector<std::uint64_t> values);
  [[nodiscard]] std::uint64_t map_to_range(util::ByteView digest) const noexcept;
  [[nodiscard]] std::vector<std::uint64_t> decode_all() const;

  std::uint64_t n_ = 0;
  double fpr_ = 1.0;
  std::uint32_t rice_param_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t bit_count_ = 0;
  util::Bytes coded_;
};

/// Predicted serialized size for n items at FPR f.
[[nodiscard]] std::size_t gcs_serialized_bytes(std::uint64_t n, double fpr) noexcept;

}  // namespace graphene::bloom
