// GrapheneBackend: the paper's Bloom + IBLT construction behind the
// ReconcilerBackend seam.
//
// The typed messages and the host/client logic here are the pre-seam
// reconcile::Host/Client moved verbatim — the wire formats are pinned
// bit-for-bit by tests/reconcile/test_backend.cpp golden hashes. The only
// new code is the WireMsg dispatch layer (open/serve_wire/absorb_wire/
// next_request) that lets the generic driver run this backend.
//
//   Offer     — host's digest of its set (Bloom filter S + IBLT I)
//   Request   — client's repair request when the offer alone is not
//               decodable (Protocol 2 step 2 analogue)
//   Response  — host's missing items + correction IBLT J (+ F when m ≈ n)
//   Fetch     — short IDs decoded as host-only but hidden by R's false
//               positives, resolved to digests in one final round
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graphene/messages.hpp"
#include "graphene/params.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// Host-side digest of a set, sized for a client holding ~`client_count`
/// items that include (most of) the host's set.
struct Offer {
  std::uint64_t count = 0;        ///< |host set|
  std::uint64_t salt = 0;         ///< keys the 8-byte short IDs
  std::uint64_t set_checksum = 0; ///< xor of mix64(short id) over the host set —
                                  ///< the client's final exactness check (the
                                  ///< blockchain protocol uses the Merkle root)
  bloom::BloomFilter filter;      ///< S over the full digests
  iblt::Iblt correction;          ///< I over the short IDs

  /// Appends the wire encoding to `w` (in-place form of serialize()).

  void serialize_into(util::ByteWriter& w) const;

  [[nodiscard]] util::Bytes serialize() const;
  static Offer deserialize(util::ByteReader& reader);
  [[nodiscard]] std::size_t serialized_size() const noexcept;
};

/// Client-side repair request (Protocol 2 step 2 analogue).
struct Request {
  std::uint64_t candidate_count = 0;  ///< z
  std::uint64_t b = 1;
  std::uint64_t y_star = 1;
  double fpr_r = 1.0;
  bool reversed = false;
  bloom::BloomFilter filter;  ///< R over the client's candidate digests

  /// Appends the wire encoding to `w` (in-place form of serialize()).

  void serialize_into(util::ByteWriter& w) const;

  [[nodiscard]] util::Bytes serialize() const;
  static Request deserialize(util::ByteReader& reader);
};

/// Host's answer: items the client certainly lacks plus IBLT J.
struct Response {
  std::vector<ItemDigest> missing;
  iblt::Iblt correction;
  std::optional<bloom::BloomFilter> compensation;  ///< F, reversed path only

  /// Appends the wire encoding to `w` (in-place form of serialize()).

  void serialize_into(util::ByteWriter& w) const;

  [[nodiscard]] util::Bytes serialize() const;
  static Response deserialize(util::ByteReader& reader);
};

/// Final round: short IDs the client decoded as host-only but cannot map to
/// a digest (they were hidden by R's false positives).
struct FetchRequest {
  std::vector<std::uint64_t> short_ids;
  /// Appends the wire encoding to `w` (in-place form of serialize()).
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static FetchRequest deserialize(util::ByteReader& reader);
};

struct FetchResponse {
  std::vector<ItemDigest> items;
  /// Appends the wire encoding to `w` (in-place form of serialize()).
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static FetchResponse deserialize(util::ByteReader& reader);
};

/// Graphene host backend. The item set is borrowed from the session driver
/// and fixed for the backend's lifetime. The typed methods (make_offer,
/// serve, serve_fetch) are const and usable directly — reconcile::Host
/// forwards to them for API compatibility.
class GrapheneHostBackend final : public HostBackend {
 public:
  GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                      core::ProtocolConfig cfg);

  [[nodiscard]] Offer make_offer(std::uint64_t client_count) const;
  [[nodiscard]] Response serve(const Request& request) const;
  [[nodiscard]] FetchResponse serve_fetch(const FetchRequest& request) const;

  [[nodiscard]] WireMsg open(std::uint64_t client_count) override;
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request) override;

 private:
  const ItemSet* items_;
  std::uint64_t salt_;
  core::ProtocolConfig cfg_;
};

/// Graphene client backend; drives the one-way reconciliation. After
/// `absorb(offer)` either the host set is known, or `make_request()` /
/// `complete(response)` runs the recovery round (+ fetch when short IDs
/// stay unresolved).
class GrapheneClientBackend final : public ClientBackend {
 public:
  GrapheneClientBackend(const ItemSet& items, core::ProtocolConfig cfg);

  Outcome absorb(const Offer& offer);
  [[nodiscard]] Request make_request();
  Outcome complete(const Response& response);
  [[nodiscard]] FetchRequest make_fetch() const;
  Outcome complete_fetch(const FetchResponse& response);

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg) override;
  [[nodiscard]] WireMsg next_request() override;

 private:
  /// Where the wire-driven session stands; used to map a repeat
  /// kNeedsRequest (which the typed API surfaces for single-round callers)
  /// to a terminal kFailed so the generic driver cannot loop.
  enum class Phase : std::uint8_t { kAwaitOffer, kAwaitResponse, kAwaitFetch, kDone };

  Outcome finalize();
  [[nodiscard]] std::uint64_t sid(const ItemDigest& d) const noexcept;
  void index(const ItemDigest& d);
  /// Short IDs of the current candidate set, in iteration order — the batch
  /// input for the IBLT mirror builds.
  [[nodiscard]] std::vector<std::uint64_t> candidate_sids() const;

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  Offer offer_{};
  core::Protocol2Params params2_{};
  std::unordered_map<std::uint64_t, ItemDigest> sid_to_digest_;
  std::unordered_set<std::uint64_t> ambiguous_;
  ItemSet candidates_;
  std::vector<std::uint64_t> pending_fetch_;
  Phase phase_ = Phase::kAwaitOffer;
  Outcome::Status last_status_ = Outcome::Status::kFailed;
};

}  // namespace graphene::reconcile
