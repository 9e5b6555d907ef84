// Generic set reconciliation, decoupled from blockchains.
//
// The paper (§1) notes the method "applies in general to systems that
// require set reconciliation, such as database or file system
// synchronization among replicas. Or ... CRLite, where a client regularly
// checks a server for revocations of observed certificates."
//
// Host and Client are thin session drivers over a pluggable reconciliation
// backend (see backend.hpp) selected by core::ProtocolConfig::
// reconcile_backend:
//
//   kGraphene      — the paper's S + I construction with the R + J recovery
//                    of Protocol 2 (graphene_backend.hpp; the typed Offer/
//                    Request/Response API below drives it directly)
//   kRatelessIblt  — a rateless coded-symbol stream per arXiv 2402.02668
//                    (rateless_backend.hpp) with no decode-failure mode
//
// One-way reconciliation (client learns the host's set) is the primitive;
// two-way union is two one-way passes, exactly like §3.2.1. The backend-
// agnostic loop is reconcile_one_way(Host&, Client&, Outcome&); the typed
// Graphene message flow (absorb/make_request/complete/...) is unchanged and
// byte-identical to the pre-backend code.
#pragma once

#include <memory>
#include <vector>

#include "graphene/params.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// Host (sender) side. The host set is fixed at construction. The typed
/// Graphene methods (make_offer/serve/serve_fetch) throw std::logic_error
/// unless cfg.reconcile_backend == kGraphene; the wire API (open/serve_wire)
/// works for every backend.
class Host {
 public:
  Host(ItemSet items, std::uint64_t salt, core::ProtocolConfig cfg = {});

  /// Opens a session for a client reporting `client_count` items.
  [[nodiscard]] WireMsg open(std::uint64_t client_count);

  /// Answers one client message.
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request);

  /// Builds an offer for a client reporting `client_count` items
  /// (Graphene backend only).
  [[nodiscard]] Offer make_offer(std::uint64_t client_count) const;

  /// Answers a repair request (Graphene backend only).
  [[nodiscard]] Response serve(const Request& request) const;

  /// Answers a fetch-by-short-ID request (Graphene backend only).
  [[nodiscard]] FetchResponse serve_fetch(const FetchRequest& request) const;

  [[nodiscard]] const ItemSet& items() const noexcept { return items_; }

 private:
  [[nodiscard]] const GrapheneHostBackend& graphene() const;

  ItemSet items_;
  std::unique_ptr<HostBackend> backend_;
  GrapheneHostBackend* graphene_ = nullptr;  ///< borrowed from backend_
};

/// Client (receiver) side. The wire API (absorb_wire/next_request) drives
/// any backend; the typed Graphene flow — after `absorb(offer)` either the
/// host set is known, or `make_request()` / `complete(response)` runs the
/// recovery round — throws std::logic_error for non-Graphene backends.
class Client {
 public:
  Client(const ItemSet& items, core::ProtocolConfig cfg = {});

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg);
  [[nodiscard]] WireMsg next_request();

  Outcome absorb(const Offer& offer);
  /// Mutates by design: the chosen Protocol 2 parameters (b, y*, f_R,
  /// reversed) must be remembered so complete() can mirror the host's
  /// correction IBLT and compensation pass — a const make_request() would
  /// force every caller to thread that state back in by hand.
  [[nodiscard]] Request make_request();
  Outcome complete(const Response& response);
  [[nodiscard]] FetchRequest make_fetch() const;
  Outcome complete_fetch(const FetchResponse& response);

  [[nodiscard]] std::uint64_t local_count() const noexcept { return items_->size(); }
  [[nodiscard]] const core::ProtocolConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] GrapheneClientBackend& graphene() const;

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  std::unique_ptr<ClientBackend> backend_;
  GrapheneClientBackend* graphene_ = nullptr;  ///< borrowed from backend_
};

/// Byte/round accounting for one reconciliation session. round_bytes holds
/// the payload size of every message in exchange order (offer, then each
/// request/response pair — or chunk/need for the rateless backend).
struct SyncStats {
  bool success = false;
  bool used_request_round = false;
  bool used_fetch_round = false;
  std::vector<std::size_t> round_bytes;
  std::uint64_t symbols_consumed = 0;  ///< rateless backend only
  std::uint64_t round_trips = 0;       ///< messages initiated by the client + 1

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t total = 0;
    for (const std::size_t b : round_bytes) total += b;
    return total;
  }
};

/// Backend-agnostic driver: opens the session, then relays client requests
/// to the host until the outcome is terminal. Termination is structural —
/// cfg.reconcile_round_cap bounds the loop no matter what a backend reports.
SyncStats reconcile_one_way(Host& host, Client& client, Outcome& outcome);

/// Typed Graphene convenience driver (the pre-backend API): the caller made
/// the offer already; runs the repair and fetch rounds as needed.
SyncStats reconcile_one_way(const Host& host, Client& client, const Offer& offer,
                            Outcome& outcome);

}  // namespace graphene::reconcile
