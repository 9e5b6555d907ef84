// Shared vocabulary of the reconciliation backends.
//
// Items are opaque 32-byte digests (hash your records however you like);
// every backend reconciles ItemSets and reports an Outcome. Splitting these
// out of set_reconciler.hpp lets backend implementations (graphene_backend,
// rateless_backend) and the session drivers share one definition without a
// header cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "graphene/engine.hpp"
#include "util/bytes.hpp"

namespace graphene::reconcile {

/// Items are identified by 32-byte digests (e.g. SHA-256 of the record).
using ItemDigest = core::Digest;
/// Mixes all four words of a digest, so digests that agree in their first
/// eight bytes (which an adversary can grind for) spread over the buckets.
using DigestHasher = core::DigestHasher;
using ItemSet = core::DigestSet;

/// Result of a client-side reconciliation step.
struct Outcome {
  /// kNeedsMoreSymbols is appended so the numeric values of the original
  /// states — recorded in flight events and forensic captures — are stable.
  enum class Status {
    kComplete,          ///< host set known and certified
    kNeedsRequest,      ///< Graphene: offer alone not decodable, run repair
    kNeedsFetch,        ///< Graphene: short IDs decoded but digests unknown
    kFailed,            ///< terminal failure (malformed input or budget hit)
    kNeedsMoreSymbols,  ///< rateless: stream not yet decodable, keep reading
  };
  Status status = Status::kFailed;
  /// The host's set as learned by the client (valid when kComplete). Items
  /// the client already held are included.
  ItemSet host_set;
  /// Short IDs decoded as host-only but with no digest known — the caller
  /// must fetch these out of band (or fail). Empty in normal operation.
  std::vector<std::uint64_t> unresolved;
  /// Coded symbols consumed so far (rateless backend only; 0 for Graphene).
  std::uint64_t symbols_consumed = 0;
};

/// True for every non-terminal status — the driver loop keeps exchanging
/// messages while this holds.
[[nodiscard]] constexpr bool needs_more(Outcome::Status s) noexcept {
  return s == Outcome::Status::kNeedsRequest || s == Outcome::Status::kNeedsFetch ||
         s == Outcome::Status::kNeedsMoreSymbols;
}

/// Hashes an arbitrary byte string into an ItemDigest (SHA-256).
[[nodiscard]] ItemDigest digest_of(util::ByteView data) noexcept;

}  // namespace graphene::reconcile
