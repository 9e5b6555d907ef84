// The Graphene engine: Protocols 1 and 2 (§3.1–§3.2) over sets of 32-byte
// digests.
//
// Block relay (core::Sender / core::ReceiveSession, txids) and generic set
// reconciliation (reconcile::Graphene*Backend, item digests) are adapters
// over this one implementation. An adapter maps its records to digests and
// back, fills its own message family, verifies the result (Merkle root, or
// count plus set checksum), and owns all telemetry: the engine records no
// spans, counters or flight events, so a caller that attaches a registry
// sees exactly the stages its adapter reports.
//
// The two message families differ only in the per-format constants of
// WireFormat (one constexpr each), never in protocol logic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "graphene/params.hpp"
#include "iblt/iblt.hpp"
#include "iblt/pingpong.hpp"
#include "util/arena.hpp"
#include "util/hash.hpp"

namespace graphene::core {

/// A set member: a txid for block relay, an item digest for reconciliation.
using Digest = std::array<std::uint8_t, 32>;

struct DigestHasher {
  std::size_t operator()(const Digest& d) const noexcept {
    // Chain-mix all four 64-bit words: digests agreeing in their first eight
    // bytes (which an adversary can grind for) must not share a bucket.
    const std::array<std::uint64_t, 4> words =
        util::split_digest_words(util::ByteView(d.data(), d.size()));
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (const std::uint64_t w : words) h = util::mix64(h ^ w);
    return static_cast<std::size_t>(h);
  }
};

using DigestSet = std::unordered_set<Digest, DigestHasher>;

/// Constants that distinguish one Graphene message family from another.
/// Everything else about the exchange is shared.
struct WireFormat {
  std::uint64_t short_id_tweak;  ///< SipHash key = {salt, salt ^ tweak}
  std::uint64_t s_seed_tweak;    ///< seed of S = salt ^ tweak
  std::uint64_t r_seed_tweak;    ///< seed of R = salt ^ tweak
  std::uint64_t f_seed_tweak;    ///< seed of F = salt ^ tweak
  bool min_one_filter_items;     ///< size S and F over max(count, 1) items
  const char* serve_stage;       ///< ProtocolError stage of a rejected request
};

/// grblk / grreq / grresp / getblocktxn / blocktxn (src/graphene/messages.hpp).
inline constexpr WireFormat kBlockRelayFormat{0x717fb1a5c0ffee00ULL, 0x5eedf00dULL,
                                              0x42d551f17e1dULL, 0xfeedfaceULL,
                                              false, "p2_serve"};
/// Offer / Request / Response / Fetch* (src/reconcile/graphene_backend.hpp).
inline constexpr WireFormat kReconcileFormat{0x6a09e667f3bcc908ULL, 0x0ffe12ULL,
                                             0x4ece55ULL, 0xc0ffeeULL,
                                             true, "reconcile_serve"};

/// The 8-byte IBLT short ID of `d`: SipHash-keyed under `salt` when `keyed`
/// (§6.1), else the digest's first 8 bytes.
[[nodiscard]] std::uint64_t short_id(const Digest& d, std::uint64_t salt,
                                     const WireFormat& fmt, bool keyed) noexcept;

/// The Protocol 2 request fields both message families carry.
struct P2Request {
  std::uint64_t z = 0;       ///< client's candidate count
  std::uint64_t b = 0;
  std::uint64_t y_star = 0;
  double fpr_r = 1.0;
  bool reversed = false;
  const bloom::BloomFilter* filter_r = nullptr;
};

/// Host side over a fixed item list, keyed by one salt. All methods are
/// const, so one host may serve many clients from pool threads concurrently.
class GrapheneHost {
 public:
  GrapheneHost(std::vector<Digest> items, std::uint64_t salt, const WireFormat& fmt,
               const ProtocolConfig& cfg);

  [[nodiscard]] std::uint64_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }
  [[nodiscard]] const std::vector<Digest>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<std::uint64_t>& short_ids() const noexcept {
    return short_ids_;
  }

  /// Protocol 1 step 3 sizing for a client holding ~`client_count` items.
  [[nodiscard]] Protocol1Params size_offer(std::uint64_t client_count) const;
  /// S over every item.
  [[nodiscard]] bloom::BloomFilter build_s(const Protocol1Params& params) const;
  /// I over every short ID.
  [[nodiscard]] iblt::Iblt build_i(const Protocol1Params& params) const;

  /// Where Protocol 2 stands on the host (steps 3–4).
  struct Served {
    std::vector<std::size_t> missing;  ///< items failing R, in item order
    std::vector<std::size_t> passed;   ///< items passing R, in item order
    std::uint64_t j_items = 0;         ///< b + y*, or the reversed sizing
    std::optional<bloom::BloomFilter> filter_f;
    iblt::Iblt iblt_j;
    // Reversed-path sizing (§3.3.2), zero otherwise.
    std::uint64_t x_s = 0;
    std::uint64_t y_s = 0;
    std::uint64_t b_f = 0;
    double fpr_f = 1.0;
  };

  /// Rejects a request whose sizing would allocate past the wire caps, with
  /// ProtocolError(fmt.serve_stage).
  void check(const P2Request& req) const;
  /// Step 3: splits the items by R.
  [[nodiscard]] Served partition(const P2Request& req) const;
  /// m ≈ n path: re-derives the bounds with block and mempool swapped and
  /// builds F over the items that passed R.
  void reverse(const P2Request& req, Served& served) const;
  /// Step 4: J over every short ID, sized for served.j_items.
  void build_j(Served& served) const;
  /// check + partition + (reverse) + build_j.
  [[nodiscard]] Served serve(const P2Request& req) const;

  /// Indices of the items with the requested short IDs, in request order;
  /// unknown IDs are skipped.
  [[nodiscard]] std::vector<std::size_t> fetch(std::span<const std::uint64_t> sids) const;

 private:
  std::vector<Digest> items_;
  std::vector<std::uint64_t> short_ids_;  // aligned with items_
  std::uint64_t salt_;
  const WireFormat* fmt_;
  ProtocolConfig cfg_;
};

/// Client side of one exchange: the candidate set Z, its short-ID index,
/// and the Protocol 2 state. Never share one instance across threads.
class GrapheneClient {
 public:
  /// Where the client stands after a peel.
  enum class Step : std::uint8_t {
    kResolved,      ///< candidates() is the host set, pending the adapter's check
    kNeedsRequest,  ///< run Protocol 2
    kNeedsFetch,    ///< unresolved() short IDs have no local item
    kFailed,
  };

  GrapheneClient(const WireFormat& fmt, const ProtocolConfig& cfg);

  /// Starts a new exchange keyed by the host's `salt`.
  void begin(std::uint64_t salt);
  [[nodiscard]] std::uint64_t short_id(const Digest& d) const noexcept;

  /// Protocol 1 step 4: indexes every local item that passes S.
  template <typename Range>
  void index_passing(const Range& local, const bloom::BloomFilter& s) {
    util::ScratchScope scratch;
    const std::span<const Digest*> items = scratch.span<const Digest*>(local.size());
    std::size_t at = 0;
    for (const Digest& d : local) items[at++] = &d;
    index_hits(items, s, scratch);
  }
  /// Adds one item (local or received) to the candidate set.
  void index(const Digest& d);

  /// I ⊖ I′: resolves the negatives, or asks for Protocol 2.
  [[nodiscard]] Step peel_offer(const iblt::Iblt& iblt_i, iblt::DecodeResult& dec);

  /// Protocol 2 sizing (Theorems 2–3, §3.3.2) for a client holding
  /// `local_count` items against a host of `n`, offered filter `s`.
  Protocol2Params size_request(std::uint64_t local_count, std::uint64_t n,
                               const bloom::BloomFilter& s, double& f_s);
  /// R over the candidates, sized by the last size_request().
  [[nodiscard]] bloom::BloomFilter build_r() const;
  [[nodiscard]] const Protocol2Params& request_params() const noexcept { return params2_; }

  /// Reversed path: drops the candidates that fail F.
  void prune(const std::optional<bloom::BloomFilter>& filter_f);
  /// J ⊖ J′ over the current candidates.
  const iblt::DecodeResult& peel_correction(const iblt::Iblt& iblt_j);
  /// True when J alone left a 2-core and §4.2 ping-pong may rescue it.
  [[nodiscard]] bool wants_pingpong() const noexcept;
  /// Decodes J ⊖ J′ jointly with I ⊖ I′ rebuilt over the current candidates.
  iblt::PingPongResult pingpong(const iblt::Iblt& iblt_i);
  /// Applies the correction's negatives and positives; positives with no
  /// local item become unresolved().
  [[nodiscard]] Step resolve_correction();
  /// peel_correction + (pingpong) + resolve_correction.
  [[nodiscard]] Step decode_correction(const iblt::Iblt& iblt_j, const iblt::Iblt& iblt_i);

  [[nodiscard]] const DigestSet& candidates() const noexcept { return candidates_; }
  [[nodiscard]] const std::vector<std::uint64_t>& unresolved() const noexcept {
    return unresolved_;
  }
  void clear_unresolved() noexcept { unresolved_.clear(); }
  /// XOR of mix64(short id) over the candidates.
  [[nodiscard]] std::uint64_t checksum() const noexcept;

 private:
  void index_hits(std::span<const Digest*> items, const bloom::BloomFilter& s,
                  util::ScratchScope& scratch);
  [[nodiscard]] iblt::Iblt mirror(const iblt::Iblt& sent) const;

  const WireFormat* fmt_;
  ProtocolConfig cfg_;
  std::uint64_t salt_ = 0;
  std::unordered_map<std::uint64_t, Digest> by_short_id_;
  std::unordered_set<std::uint64_t> ambiguous_;
  DigestSet candidates_;
  Protocol2Params params2_{};
  std::optional<iblt::Iblt> diff_j_;
  iblt::DecodeResult dec_j_;
  std::vector<std::uint64_t> unresolved_;
};

}  // namespace graphene::core
