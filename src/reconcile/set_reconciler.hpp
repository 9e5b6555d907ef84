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
//                    of Protocol 2 (graphene_backend.hpp)
//   kRatelessIblt  — a rateless coded-symbol stream per arXiv 2402.02668
//                    (rateless_backend.hpp) with no decode-failure mode
//
// One-way reconciliation (client learns the host's set) is the primitive;
// two-way union is two one-way passes, exactly like §3.2.1. Every backend
// speaks WireMsgs through one API (open/serve_wire on the host,
// absorb_wire/next_request on the client), driven by reconcile_one_way. A
// caller that needs a typed message parses the payload (Offer,
// Request, ... in graphene_backend.hpp).
#pragma once

#include <memory>
#include <vector>

#include "graphene/params.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// Host (sender) side. The host set is fixed at construction.
class Host {
 public:
  Host(ItemSet items, std::uint64_t salt, core::ProtocolConfig cfg = {});

  /// Opens a session for a client reporting `client_count` items.
  [[nodiscard]] WireMsg open(std::uint64_t client_count);

  /// Answers one client message.
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request);

  [[nodiscard]] const ItemSet& items() const noexcept { return items_; }

 private:
  ItemSet items_;
  std::unique_ptr<HostBackend> backend_;
};

/// Client (receiver) side: absorb_wire() consumes one host message; while
/// the outcome needs_more(), next_request() yields the reply.
class Client {
 public:
  Client(const ItemSet& items, core::ProtocolConfig cfg = {});

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg);
  [[nodiscard]] WireMsg next_request();

  [[nodiscard]] std::uint64_t local_count() const noexcept { return items_->size(); }
  [[nodiscard]] const core::ProtocolConfig& config() const noexcept { return cfg_; }

 private:
  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  std::unique_ptr<ClientBackend> backend_;
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

}  // namespace graphene::reconcile
