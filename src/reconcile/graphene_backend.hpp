// GrapheneBackend: the paper's Bloom + IBLT construction behind the
// ReconcilerBackend seam, as an adapter over the Graphene engine
// (graphene/engine.hpp) with the reconcile wire format (kReconcileFormat).
// The adapter owns the message family below, the wire dispatch and phase
// machine, the flight events, and the final count-plus-checksum check; the
// protocol steps are the engine's. The wire bytes are pinned by
// tests/reconcile/test_backend.cpp golden hashes.
//
//   Offer     — host's digest of its set (Bloom filter S + IBLT I)
//   Request   — client's repair request when the offer alone is not
//               decodable (Protocol 2 step 2 analogue)
//   Response  — host's missing items + correction IBLT J (+ F when m ≈ n)
//   Fetch     — short IDs decoded as host-only but hidden by R's false
//               positives, resolved to digests in one final round
#pragma once

#include <optional>
#include <vector>

#include "graphene/engine.hpp"
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

/// Graphene host backend. The item set is copied into the engine at
/// construction and fixed for the backend's lifetime.
class GrapheneHostBackend final : public HostBackend {
 public:
  GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                      core::ProtocolConfig cfg);

  [[nodiscard]] WireMsg open(std::uint64_t client_count) override;
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request) override;

 private:
  [[nodiscard]] Response serve(const Request& request) const;
  [[nodiscard]] FetchResponse serve_fetch(const FetchRequest& request) const;

  core::ProtocolConfig cfg_;
  core::GrapheneHost host_;
};

/// Graphene client backend; drives the one-way reconciliation. After the
/// offer either the host set is known, or a request/response round runs
/// the recovery (+ a fetch round when short IDs stay unresolved).
class GrapheneClientBackend final : public ClientBackend {
 public:
  GrapheneClientBackend(const ItemSet& items, core::ProtocolConfig cfg);

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg) override;
  [[nodiscard]] WireMsg next_request() override;

 private:
  /// Where the session stands; a message out of phase fails it.
  enum class Phase : std::uint8_t { kAwaitOffer, kAwaitResponse, kAwaitFetch, kDone };

  [[nodiscard]] Outcome absorb_offer();
  [[nodiscard]] Request make_request();
  [[nodiscard]] Outcome complete(const Response& response);
  /// kComplete when the candidates match the offer's count and checksum.
  [[nodiscard]] Outcome finalize() const;

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  Offer offer_{};
  core::GrapheneClient client_;
  Phase phase_ = Phase::kAwaitOffer;
  Outcome::Status last_status_ = Outcome::Status::kFailed;
};

}  // namespace graphene::reconcile
