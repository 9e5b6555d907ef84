// Receiver side of block relay (Protocols 1 and 2, §3.1–§3.2): an adapter
// that runs the engine's client (engine.hpp) over the mempool's txids, keeps
// the transactions that arrive over the wire, verifies the result against
// the header's Merkle root, and records the receiver's telemetry.
//
// ReceiveSession drives the full state machine for ONE relayed block:
//
//   receive_block  → Decoded | NeedsProtocol2 | Failed
//   build_request  → GrapheneRequestMsg              (Protocol 2 step 1–2)
//   complete       → Decoded | NeedsRepair | Failed  (step 5, + ping-pong)
//   build_repair / complete_repair                   (short-ID fetch round)
//
// Ping-pong decoding (§4.2) engages automatically in complete(): when J ⊖ J′
// leaves a 2-core, the receiver rebuilds I′ over the updated candidate set
// and decodes both differences jointly.
//
// Receiver is the long-lived per-node object: it holds the mempool binding
// and configuration and mints a fresh ReceiveSession per relay. Sessions
// from one Receiver are independent, so distinct peers' relays can be
// driven concurrently from pool threads.
#pragma once

#include <unordered_map>

#include "chain/mempool.hpp"
#include "graphene/engine.hpp"
#include "graphene/errors.hpp"
#include "graphene/messages.hpp"
#include "graphene/params.hpp"

namespace graphene::core {

enum class ReceiveStatus : std::uint8_t {
  kDecoded,         ///< block recovered and Merkle-validated
  kNeedsProtocol2,  ///< IBLT I failed or block txns are missing — run Protocol 2
  kNeedsRepair,     ///< symmetric difference resolved but txn bytes missing
  kFailed,          ///< unrecoverable (or malformed/attack input)
};

/// Stable label for metrics, flight events, and forensic captures
/// ("decoded", "needs_protocol2", "needs_repair", "failed").
[[nodiscard]] const char* to_string(ReceiveStatus status) noexcept;

struct ReceiveOutcome {
  ReceiveStatus status = ReceiveStatus::kFailed;
  /// CTOR-ordered block txids; populated when status == kDecoded.
  std::vector<chain::TxId> block_ids;
  /// Short IDs known to belong to the block but with no transaction held.
  std::vector<std::uint64_t> unresolved;
  /// True when the final Merkle check passed.
  bool merkle_ok = false;
  /// Diagnostics for benches: did ping-pong decoding rescue this block?
  bool used_pingpong = false;
};

/// Decode state for one relayed block, from Protocol 1 through Protocol 2
/// and the repair round. Create one per relay (Receiver::session()); never
/// share one instance across threads — instead give each concurrent relay
/// its own session, which is safe because sessions only read the mempool.
class ReceiveSession {
 public:
  explicit ReceiveSession(const chain::Mempool& mempool, ProtocolConfig cfg = {});

  /// Protocol 1 step 4. On kDecoded the block is fully recovered.
  ReceiveOutcome receive_block(const GrapheneBlockMsg& msg);

  /// Protocol 2 steps 1–2. Must follow a non-decoded receive_block().
  [[nodiscard]] GrapheneRequestMsg build_request();

  /// Protocol 2 step 5.
  ReceiveOutcome complete(const GrapheneResponseMsg& resp);

  /// Short-ID repair round for any unresolved items.
  [[nodiscard]] RepairRequestMsg build_repair() const;
  ReceiveOutcome complete_repair(const RepairResponseMsg& resp);

  /// All transactions recovered for the block (valid after kDecoded).
  [[nodiscard]] std::vector<chain::Transaction> block_transactions() const;

  /// Parameters chosen by build_request() — exposed for the benchmarks that
  /// decompose message sizes (Fig. 17).
  [[nodiscard]] const Protocol2Params& request_params() const noexcept {
    return client_.request_params();
  }

  /// Candidate-set size |Z| observed right after filtering the mempool
  /// through S — the Protocol 2 sizing input and the error-context `z`.
  [[nodiscard]] std::uint64_t observed_z() const noexcept { return z_; }

 private:
  /// Maps the engine's resolved candidates (or its unresolved short IDs) to
  /// an outcome, checking the block's Merkle root.
  ReceiveOutcome finalize(bool used_pingpong);
  /// Keeps a transaction that arrived over the wire and indexes its txid.
  void receive_tx(const chain::Transaction& tx);
  /// Snapshot of the protocol position for errors and trace records.
  [[nodiscard]] ErrorContext error_context() const noexcept;
  /// Records an `error` trace span + counter, then throws ProtocolError.
  [[noreturn]] void raise(const char* stage, const char* what) const;
  /// Env-gated forensic capture dump (see forensics.hpp); no-op unless a
  /// registry is attached and GRAPHENE_CAPTURE_DIR is set.
  void dump_failure(const char* kind, const char* stage) const;

  const chain::Mempool* mempool_;
  ProtocolConfig cfg_;

  // Protocol state (valid between receive_block and completion).
  GrapheneBlockMsg msg_{};
  bool have_block_msg_ = false;
  std::uint64_t z_ = 0;

  /// Candidate block membership, plus storage for transactions that arrived
  /// over the wire rather than from the mempool.
  GrapheneClient client_;
  std::unordered_map<chain::TxId, chain::Transaction, chain::TxIdHasher> received_txns_;
};

/// Long-lived per-node receiver: binds a mempool + config and mints
/// ReceiveSessions. One session decodes one relayed block; drive the
/// returned object directly. (The former pass-through protocol methods that
/// serialized every relay through one implicit session were removed — call
/// session() instead.)
class Receiver {
 public:
  explicit Receiver(const chain::Mempool& mempool, ProtocolConfig cfg = {});

  /// Mints an independent decode session for one relayed block. Safe to
  /// call from multiple threads; each session is then driven by its owner.
  [[nodiscard]] ReceiveSession session() const {
    return ReceiveSession(*mempool_, cfg_);
  }

 private:
  const chain::Mempool* mempool_;
  ProtocolConfig cfg_;
};

}  // namespace graphene::core
