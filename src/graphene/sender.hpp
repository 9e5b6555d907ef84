// Sender side of block relay (Protocols 1 and 2, §3.1–§3.2): an adapter
// that runs the engine (engine.hpp) over the block's txids, maps its
// results back to transactions, and records the sender's telemetry.
#pragma once

#include "chain/block.hpp"
#include "graphene/engine.hpp"
#include "graphene/messages.hpp"
#include "graphene/params.hpp"

namespace graphene::core {

/// Result of one Protocol 1 encode: the wire message plus the parameters it
/// was sized with. Returning both (instead of stashing the params on the
/// Sender) keeps encode() a pure const call, so one Sender can serve many
/// receivers from pool threads concurrently.
struct EncodeResult {
  GrapheneBlockMsg msg;
  Protocol1Params params;
};

class Sender {
 public:
  /// `salt` keys the block's short IDs; a real deployment derives it per
  /// block (BIP-152 style). Pass a fresh value per block.
  Sender(chain::Block block, std::uint64_t salt, ProtocolConfig cfg = {});

  /// Protocol 1, step 3: builds S and I for a receiver holding
  /// `receiver_mempool_count` transactions. Thread-safe: distinct peers may
  /// be encoded for concurrently from one Sender.
  [[nodiscard]] EncodeResult encode(std::uint64_t receiver_mempool_count) const;

  /// Protocol 2, steps 3–4: answers a repair request (handles both the
  /// normal and the m ≈ n reversed path).
  [[nodiscard]] GrapheneResponseMsg serve(const GrapheneRequestMsg& request) const;

  /// Final repair round: returns the full transactions for any short IDs
  /// the receiver decoded but does not hold.
  [[nodiscard]] RepairResponseMsg serve_repair(const RepairRequestMsg& request) const;

  [[nodiscard]] const chain::Block& block() const noexcept { return block_; }
  [[nodiscard]] std::uint64_t salt() const noexcept { return host_.salt(); }

 private:
  chain::Block block_;
  ProtocolConfig cfg_;
  GrapheneHost host_;  // items aligned with block_.transactions()
};

/// The block-relay short ID (core::short_id under kBlockRelayFormat):
/// SipHash-keyed under `salt` when cfg.keyed_short_ids, else the txid's
/// first 8 bytes.
[[nodiscard]] std::uint64_t derive_short_id(const chain::TxId& id, std::uint64_t salt,
                                            const ProtocolConfig& cfg) noexcept;

}  // namespace graphene::core
