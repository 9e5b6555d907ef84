// Fault injection for the generic set reconciler (reconcile::Host/Client).
//
// Same property as the block-relay suite: under any seeded fault schedule
// the one-way reconciliation terminates with either the host's exact set, a
// typed error, or a bounded abort — never a hang or a silently wrong set
// (the offer's xor-of-short-id checksum is the exactness guard).
#include <gtest/gtest.h>

#include "graphene/errors.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/set_reconciler.hpp"
#include "testkit/faulty_channel.hpp"
#include "testkit/gen.hpp"
#include "testkit/stat_gate.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {
namespace {

ItemSet random_set(util::Rng& rng, std::uint64_t count) {
  ItemSet out;
  out.reserve(count);
  while (out.size() < count) {
    ItemDigest d;
    for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.next());
    out.insert(d);
  }
  return out;
}

enum class End : std::uint8_t { kExactSet, kTypedError, kAborted, kWrongSet };

constexpr int kMaxAttemptsPerStep = 3;

/// Ships `msg` through the faulty channel and hands each copy that arrives
/// to `consume` (the peer's wire entry point) until one parses. A payload
/// that fails to parse leaves the peer untouched, so the next copy — or a
/// resend — gets a clean try. nullopt when every attempt is lost or garbled.
template <typename Consume>
auto deliver(testkit::FaultyChannel& ch, net::Direction dir, const WireMsg& msg,
             Consume&& consume) -> std::optional<decltype(consume(msg))> {
  for (int attempt = 0; attempt < kMaxAttemptsPerStep; ++attempt) {
    std::vector<util::Bytes> buffers = ch.transmit(dir, net::MessageType::kInv, msg.payload);
    if (attempt + 1 == kMaxAttemptsPerStep) {
      for (util::Bytes& held : ch.flush(dir)) buffers.push_back(std::move(held));
    }
    for (util::Bytes& b : buffers) {
      try {
        return consume(WireMsg{msg.type, std::move(b)});
      } catch (const util::DeserializeError&) {
      }
    }
  }
  return std::nullopt;
}

End run_reconcile_through_faults(util::Rng& rng, const testkit::FaultSpec& faults) {
  const std::uint64_t host_count = 1 + rng.below(300);
  const std::uint64_t shared = rng.below(host_count + 1);
  const ItemSet host_items = random_set(rng, host_count);
  ItemSet client_items;
  for (const ItemDigest& d : host_items) {
    if (client_items.size() >= shared) break;
    client_items.insert(d);
  }
  for (const ItemDigest& d : random_set(rng, rng.below(300))) client_items.insert(d);

  Host host(host_items, /*salt=*/rng.next());
  Client client(client_items);
  testkit::FaultyChannel ch(faults);
  const auto to_client = [&](const WireMsg& m) { return client.absorb_wire(m); };
  const auto to_host = [&](const WireMsg& m) { return host.serve_wire(m); };

  try {
    std::optional<Outcome> out = deliver(ch, net::Direction::kSenderToReceiver,
                                         host.open(client_items.size()), to_client);
    // Offer, then at most the request and fetch rounds; the cap only
    // guards the loop.
    for (int round = 0; out && needs_more(out->status) && round < 4; ++round) {
      const std::optional<WireMsg> reply =
          deliver(ch, net::Direction::kReceiverToSender, client.next_request(), to_host);
      if (!reply) return End::kAborted;
      out = deliver(ch, net::Direction::kSenderToReceiver, *reply, to_client);
    }
    if (!out) return End::kAborted;
    // Any state still short of kComplete after the protocol's rounds is a
    // bounded, reported failure — the checksum refused to certify.
    if (out->status != Outcome::Status::kComplete) return End::kTypedError;
    return out->host_set == host.items() ? End::kExactSet : End::kWrongSet;
  } catch (const core::ProtocolError&) {
    return End::kTypedError;
  } catch (const util::DeserializeError&) {
    return End::kTypedError;
  }
}

TEST(ReconcileFaults, TerminatesWithExactSetOrTypedFailure) {
  const double kProfiles[][5] = {
      // drop, duplicate, reorder, truncate, bitflip
      {0.15, 0.0, 0.0, 0.0, 0.0},
      {0.0, 0.3, 0.3, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.25, 0.25},
      {0.08, 0.15, 0.15, 0.12, 0.12},
  };
  for (const auto& p : kProfiles) {
    testkit::StatGateSpec spec;
    spec.name = "reconcile_faults";
    spec.trials = 50;
    spec.min_rate = 0.0;
    std::uint64_t wrong = 0;
    const testkit::GateResult r =
        testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
          testkit::FaultSpec f;
          f.drop = p[0];
          f.duplicate = p[1];
          f.reorder = p[2];
          f.truncate = p[3];
          f.bitflip = p[4];
          f.seed = rng.next();
          const End end = run_reconcile_through_faults(rng, f);
          if (end == End::kWrongSet) ++wrong;
          return end != End::kWrongSet;
        });
    GRAPHENE_ASSERT_GATE(r);
    ASSERT_EQ(wrong, 0u);
  }
}

TEST(ReconcileFaults, CleanLinkReconcilesExactly) {
  testkit::StatGateSpec spec;
  spec.name = "reconcile_control";
  spec.trials = 60;
  spec.min_rate = 0.95;
  const testkit::GateResult r =
      testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
        return run_reconcile_through_faults(rng, testkit::FaultSpec{}) ==
               End::kExactSet;
      });
  GRAPHENE_EXPECT_GATE(r);
}

TEST(ReconcileFaults, HostRejectsOversizedRequestSizing) {
  // Regression guard for the host's serve revalidation: a request whose
  // fields pass the individual wire caps but whose b + y* would allocate an
  // IBLT beyond kMaxIbltCells must throw a typed error, not allocate.
  util::Rng rng(91);
  const ItemSet items = random_set(rng, 20);
  Host host(items, 5);
  Request req;
  req.candidate_count = 10;
  req.b = util::wire::kMaxSizingParam;
  req.y_star = util::wire::kMaxSizingParam;
  req.fpr_r = 0.1;
  req.filter = bloom::BloomFilter(10, 0.1, 1);
  EXPECT_THROW((void)host.serve_wire({net::MessageType::kReconcileRequest, req.serialize()}),
               core::ProtocolError);

  // An FPR outside (0, 1] never reaches the host over the wire (the
  // deserializer rejects it); the engine's own guard rejects it in memory.
  Request nan_req;
  nan_req.candidate_count = 10;
  nan_req.b = 1;
  nan_req.y_star = 1;
  nan_req.fpr_r = 0.0;  // out of (0, 1]
  nan_req.filter = bloom::BloomFilter(10, 0.1, 1);
  EXPECT_THROW(
      (void)host.serve_wire({net::MessageType::kReconcileRequest, nan_req.serialize()}),
      util::DeserializeError);
  const core::GrapheneHost engine(std::vector<ItemDigest>(items.begin(), items.end()), 5,
                                  core::kReconcileFormat, {});
  EXPECT_THROW(engine.check({nan_req.candidate_count, nan_req.b, nan_req.y_star,
                             nan_req.fpr_r, nan_req.reversed, &nan_req.filter}),
               core::ProtocolError);
}

}  // namespace
}  // namespace graphene::reconcile
