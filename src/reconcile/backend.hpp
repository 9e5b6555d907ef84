// The reconciliation backend seam.
//
// reconcile::Host and reconcile::Client are thin session drivers; the actual
// set-reconciliation construction lives behind these interfaces and is chosen
// via core::ProtocolConfig::reconcile_backend. Two backends ship today:
//
//   GrapheneBackend      — the paper's Bloom + IBLT offer with Protocol 2
//                          repair and short-ID fetch rounds (graphene_backend.hpp),
//                          an adapter over the engine block relay also runs.
//   RatelessIbltBackend  — a coded-symbol stream (arXiv 2402.02668) where
//                          decode failure is not a failure mode: the client
//                          just asks for more symbols (rateless_backend.hpp).
//
// A backend speaks WireMsgs — (net::MessageType, payload bytes) pairs — so
// the driver loop, channels, and fault injection treat every backend the
// same way: the client absorbs a message, and either finishes or emits the
// next request for the host to serve.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graphene/params.hpp"
#include "net/message.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// One protocol message as the backends emit and consume it. Wrap in a
/// net::Message (same fields) to push it through a real channel.
struct WireMsg {
  net::MessageType type = net::MessageType::kReconcileOffer;
  util::Bytes payload;

  [[nodiscard]] net::Message to_message() const { return {type, payload}; }
};

/// Host (sender) side of a backend: produces the opening digest of its set
/// and answers every follow-up the client sends. Methods are non-const
/// because streaming backends accumulate state (e.g. produced symbols);
/// serving malformed or out-of-protocol requests throws (core::ProtocolError
/// or util::DeserializeError) rather than answering garbage.
class HostBackend {
 public:
  virtual ~HostBackend() = default;
  HostBackend() = default;
  HostBackend(const HostBackend&) = delete;
  HostBackend& operator=(const HostBackend&) = delete;
  HostBackend(HostBackend&&) = delete;
  HostBackend& operator=(HostBackend&&) = delete;

  /// First message of a session, for a client reporting `client_count` items.
  [[nodiscard]] virtual WireMsg open(std::uint64_t client_count) = 0;

  /// Answers one client request.
  [[nodiscard]] virtual WireMsg serve_wire(const WireMsg& request) = 0;
};

/// Client (receiver) side of a backend. absorb_wire() consumes one host
/// message and reports where the session stands; while the outcome status
/// satisfies needs_more(), next_request() yields the message to send back.
class ClientBackend {
 public:
  virtual ~ClientBackend() = default;
  ClientBackend() = default;
  ClientBackend(const ClientBackend&) = delete;
  ClientBackend& operator=(const ClientBackend&) = delete;
  ClientBackend(ClientBackend&&) = delete;
  ClientBackend& operator=(ClientBackend&&) = delete;

  [[nodiscard]] virtual Outcome absorb_wire(const WireMsg& msg) = 0;

  /// Only valid after absorb_wire() returned a needs_more() status.
  [[nodiscard]] virtual WireMsg next_request() = 0;
};

namespace detail {

/// Deserializes a whole WireMsg payload, rejecting trailing bytes (a typed
/// message is the entire payload, so leftovers mean a framing bug or a
/// smuggled appendix).
template <typename Msg>
Msg parse_payload(const WireMsg& msg, const char* what) {
  util::ByteReader reader(util::ByteView(msg.payload));
  Msg parsed = Msg::deserialize(reader);
  if (!reader.done()) {
    throw util::DeserializeError(std::string(what) + ": trailing bytes in payload");
  }
  return parsed;
}

}  // namespace detail

/// Backend factories keyed by cfg.reconcile_backend. `items` is borrowed and
/// must outlive the backend (the session drivers own it).
[[nodiscard]] std::unique_ptr<HostBackend> make_host_backend(
    const ItemSet& items, std::uint64_t salt, const core::ProtocolConfig& cfg);
[[nodiscard]] std::unique_ptr<ClientBackend> make_client_backend(
    const ItemSet& items, const core::ProtocolConfig& cfg);

}  // namespace graphene::reconcile
