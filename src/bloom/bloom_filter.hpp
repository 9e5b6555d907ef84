// Bloom filter over 32-byte transaction IDs.
//
// Index derivation follows §6.3: a txid is already a cryptographic digest, so
// the filter slices it into 64-bit words and derives all k probe positions by
// double hashing over those words — no additional cryptographic hashing per
// probe. A `RehashStrategy` (k independent SipHash evaluations) is kept for
// the ablation benchmark that reproduces the §6.3 processing-time claim.
//
// A third, cache-line-blocked layout (`kBlocked`) targets the receiver's
// m-sized mempool pass: one hash selects a 64-byte block and all k probes
// land inside it, so a membership test touches a single cache line instead
// of up to k. Combined with the batch APIs below (software prefetching over
// a lookahead window) this is what bench_hotpath measures; the FPR penalty
// of blocking is a small constant factor, quantified in docs/PERFORMANCE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "bloom/bloom_math.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/siphash.hpp"

namespace graphene::bloom {

enum class HashStrategy : std::uint8_t {
  kSplitDigest = 0,  ///< §6.3 optimization: slice the digest (default).
  kRehash = 1,       ///< k independent SipHash calls (ablation baseline).
  kBlocked = 2,      ///< all k probes in one 64-byte block (cache-optimal).
};

class BloomFilter {
 public:
  /// Bits per block of the kBlocked layout: one 64-byte cache line.
  static constexpr std::uint64_t kBlockBits = 512;

  /// Degenerate match-everything filter (FPR 1). Serializes to a header only;
  /// the paper treats this as "not sending a filter at all".
  BloomFilter() = default;

  /// Builds an empty filter sized for `expected_items` at `target_fpr`.
  /// target_fpr >= 1 yields the degenerate match-everything filter. The
  /// kBlocked strategy rounds the bit count up to a whole number of blocks
  /// and caps k at 63 (its wire encoding carries k in six bits).
  BloomFilter(std::uint64_t expected_items, double target_fpr,
              std::uint64_t seed = 0, HashStrategy strategy = HashStrategy::kSplitDigest);

  // Stats counters are atomic, so the compiler-generated copy/move are
  // deleted; these preserve counter values with relaxed loads. Copying
  // concurrently with queries is not synchronized (don't do that), but each
  // counter transfers atomically.
  BloomFilter(const BloomFilter& other);
  BloomFilter& operator=(const BloomFilter& other);
  BloomFilter(BloomFilter&& other) noexcept;
  BloomFilter& operator=(BloomFilter&& other) noexcept;

  /// Inserts a 32-byte txid (any 1..32-byte view accepted; shorter views are
  /// zero-extended by the word splitter). Not thread-safe against other
  /// writers or readers; build the filter first, then query it freely.
  void insert(util::ByteView txid);

  /// Inserts `count` items; equivalent to calling insert() on each in order
  /// but amortizes the stats update and, for the blocked layout, prefetches
  /// target blocks a window ahead.
  void insert_batch(const util::ByteView* items, std::size_t count);

  /// Membership test; false positives occur at ~the configured FPR, false
  /// negatives never. Safe to call concurrently with other contains() calls
  /// (stats counters are relaxed atomics; the bit array is read-only here).
  [[nodiscard]] bool contains(util::ByteView txid) const;

  /// Batch membership: out[i] = 1 if items[i] matches, else 0. Bit-identical
  /// to calling contains() per item; one relaxed stats update for the whole
  /// batch. The blocked layout runs a prefetch pipeline over the batch —
  /// this is the receiver's mempool-scan primitive.
  void contains_batch(const util::ByteView* items, std::size_t count,
                      std::uint8_t* out) const;

  /// True when the filter matches every query (zero-bit filter).
  [[nodiscard]] bool matches_everything() const noexcept { return n_bits_ == 0; }

  [[nodiscard]] std::uint64_t bit_count() const noexcept { return n_bits_; }
  [[nodiscard]] std::uint32_t hash_count() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] HashStrategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::uint64_t insert_count() const noexcept {
    return inserted_.load(std::memory_order_relaxed);
  }

  /// Actual expected FPR given current occupancy model (bits, k, inserted).
  [[nodiscard]] double effective_fpr() const noexcept {
    return expected_fpr(n_bits_, k_, insert_count());
  }

  /// FPR the filter was constructed for; 1.0 for the degenerate filter and
  /// for deserialized filters (the target is not on the wire). Telemetry
  /// compares this against the observed hit rate.
  [[nodiscard]] double target_fpr() const noexcept { return target_fpr_; }

  /// Lifetime query statistics, updated by contains()/contains_batch() with
  /// relaxed atomics — concurrent queries are race-free and the hot path
  /// stays two uncontended increments cheap.
  [[nodiscard]] std::uint64_t query_count() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hit_count() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Fraction of queries that matched. Over a query stream dominated by
  /// non-members this converges on the observed FPR.
  [[nodiscard]] double observed_hit_rate() const noexcept {
    const std::uint64_t q = query_count();
    return q == 0 ? 0.0 : static_cast<double>(hit_count()) / static_cast<double>(q);
  }
  void reset_query_stats() const noexcept {
    queries_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
  }

  /// Wire format: varint(bit count) | u8(k + strategy) | u64(seed) |
  /// ceil(bits/8) payload bytes. The strategy rides in the k byte: high bit
  /// set = kRehash (k in the low 7 bits, legacy layout, byte 0xC0 still
  /// parses as rehash k=64); both top bits set with a non-zero low 6 bits =
  /// kBlocked (k in the low 6 bits) — a range of bytes that was previously
  /// rejected, so every pre-existing encoding keeps its meaning.
  /// Appends the wire encoding to `w` (in-place form of serialize()).
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  [[nodiscard]] std::size_t serialized_size() const noexcept;
  static BloomFilter deserialize(util::ByteReader& reader);

 private:
  void probe_positions(util::ByteView txid, std::uint64_t* out) const;
  /// Membership test without stats accounting (shared scalar core).
  [[nodiscard]] bool test(util::ByteView txid) const;
  /// Blocked layout: first word index of the block for `txid`, plus the
  /// in-block double-hashing state (x, y) packed by the caller.
  [[nodiscard]] std::uint64_t block_base(util::ByteView txid, std::uint32_t* x,
                                         std::uint32_t* y) const;
  [[nodiscard]] bool test_block(std::uint64_t base, std::uint32_t x, std::uint32_t y) const;
  void set_block(std::uint64_t base, std::uint32_t x, std::uint32_t y);
  void init_divisors();

  std::vector<std::uint64_t> bits_;
  std::uint64_t n_bits_ = 0;
  std::uint32_t k_ = 1;
  std::uint64_t seed_ = 0;
  std::atomic<std::uint64_t> inserted_{0};
  double target_fpr_ = 1.0;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  HashStrategy strategy_ = HashStrategy::kSplitDigest;
  /// Invariant-divisor reductions (exact, see util::FastMod64): by n_bits_
  /// for the split-digest probes, by the block count for the blocked layout.
  util::FastMod64 bits_div_;
  util::FastMod64 block_div_;
  /// mix64(seed_), hoisted out of the per-item probe derivation.
  std::uint64_t seed_mix_ = 0;
};

/// Batch membership over `count` items: out[i] = 1 iff
/// filter.contains(items[i]), 0 otherwise — filter.contains_batch() as a
/// free function. This is the scan primitive behind the receiver's candidate
/// pass and the sender's serve() pass.
void contains_all(const BloomFilter& filter, const util::ByteView* items,
                  std::size_t count, std::uint8_t* out);

}  // namespace graphene::bloom
