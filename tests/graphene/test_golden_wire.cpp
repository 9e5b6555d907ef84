// Golden wire pins for block relay: the SHA-256 of every serialized message
// and the ReceiveStatus sequence of four pinned relays, plus one lattice pin
// that folds every payload and status of ~50 generated relays into a single
// digest. These bytes are the block-relay wire protocol; any refactor of the
// sender/receiver must reproduce them exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "testkit/gen.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace graphene::core {
namespace {

std::string pin(const util::Bytes& wire) {
  const auto h = util::sha256(util::ByteView(wire));
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

/// One relay's transcript: message pins in exchange order and the status
/// after each receiver step.
struct Transcript {
  std::vector<std::string> pins;
  std::vector<ReceiveStatus> statuses;
};

/// Drives Protocol 1 → 2 → repair and calls `on_msg` with every message's
/// wire bytes and `on_status` after every receiver step.
template <typename OnMsg, typename OnStatus>
void relay(const chain::Block& block, const chain::Mempool& mempool, std::uint64_t salt,
           OnMsg&& on_msg, OnStatus&& on_status) {
  const Sender sender(block, salt);
  ReceiveSession session(mempool);
  const GrapheneBlockMsg msg = sender.encode(mempool.size()).msg;
  on_msg(msg.serialize());
  ReceiveOutcome out = session.receive_block(msg);
  on_status(out.status);
  if (out.status == ReceiveStatus::kNeedsProtocol2) {
    const GrapheneRequestMsg req = session.build_request();
    on_msg(req.serialize());
    const GrapheneResponseMsg resp = sender.serve(req);
    on_msg(resp.serialize());
    out = session.complete(resp);
    on_status(out.status);
  }
  if (out.status == ReceiveStatus::kNeedsRepair) {
    const RepairRequestMsg req = session.build_repair();
    on_msg(req.serialize());
    const RepairResponseMsg resp = sender.serve_repair(req);
    on_msg(resp.serialize());
    out = session.complete_repair(resp);
    on_status(out.status);
  }
}

Transcript transcript(const chain::Block& block, const chain::Mempool& mempool,
                      std::uint64_t salt) {
  Transcript t;
  relay(
      block, mempool, salt, [&](const util::Bytes& wire) { t.pins.push_back(pin(wire)); },
      [&](ReceiveStatus s) { t.statuses.push_back(s); });
  return t;
}

chain::Scenario scenario(std::uint64_t seed, std::uint64_t n, std::uint64_t extra,
                         double fraction) {
  util::Rng rng(seed);
  chain::ScenarioSpec spec;
  spec.block_txns = n;
  spec.extra_txns = extra;
  spec.block_fraction_in_mempool = fraction;
  return chain::make_scenario(spec, rng);
}

TEST(BlockRelayGoldenWire, Protocol1DecodePinsHold) {
  const chain::Scenario s = scenario(0x601d01, 200, 400, 1.0);
  const Transcript t = transcript(s.block, s.receiver_mempool, 0x5a17);
  const std::vector<std::string> expected = {
      "3fcdda3c02b866eae217f0f9f6318f3446f01eac4dbfd254d916321eb634b427",  // grblk
  };
  EXPECT_EQ(t.pins, expected);
  EXPECT_EQ(t.statuses, std::vector<ReceiveStatus>{ReceiveStatus::kDecoded});
}

TEST(BlockRelayGoldenWire, Protocol2WithRepairPinsHold) {
  const chain::Scenario s = scenario(0x601d02, 300, 600, 0.9);
  const Transcript t = transcript(s.block, s.receiver_mempool, 0xfeed);
  const std::vector<std::string> expected = {
      "ce6d48f9eee89bfa32d5da072e585290ed79a34e799c1e4c0b4095937fa66f5c",  // grblk
      "f6d32048635715860b707c49958fa1dcebc108f3ef8276b82548be2133cbd19c",  // grreq
      "aac5a779907f7db477b4499c06efe0e46c5812cc85b2d6451054d8832fbadd3b",  // grresp
      "b1ab2ec1b125e6cdab0c795df02c91cafb6be97137fd897d8a8557706793c7bc",  // getblocktxn
      "898b9ef9396296b9981d4864d7e10b8217a909b43f6fcb26b40400a93c68a63c",  // blocktxn
  };
  EXPECT_EQ(t.pins, expected);
  EXPECT_EQ(t.statuses, (std::vector<ReceiveStatus>{ReceiveStatus::kNeedsProtocol2,
                                                     ReceiveStatus::kNeedsRepair,
                                                     ReceiveStatus::kDecoded}));
}

TEST(BlockRelayGoldenWire, ReversedPathWithFilterFPinsHold) {
  // m = 0.5·500 + 250 = n: the §3.3.2 reversal, with filter F in grresp;
  // R's false positives leave short IDs for the repair round.
  const chain::Scenario s = scenario(0x601d03, 500, 250, 0.5);
  ASSERT_EQ(s.m, s.n);
  const Sender sender(s.block, 0xc0de);
  ReceiveSession session(s.receiver_mempool);
  ASSERT_EQ(session.receive_block(sender.encode(s.m).msg).status,
            ReceiveStatus::kNeedsProtocol2);
  const GrapheneRequestMsg req = session.build_request();
  EXPECT_TRUE(req.reversed);
  EXPECT_TRUE(sender.serve(req).filter_f.has_value());

  const Transcript t = transcript(s.block, s.receiver_mempool, 0xc0de);
  const std::vector<std::string> expected = {
      "9e212783a0af0fdd609515f8943e56bf7cfbd906937380ab791a10a7ab848361",  // grblk
      "9dab48dff8874b3b40321ed6c4221e99ec12324e48a6ab5fc14a6edc95a98dec",  // grreq
      "597ff43e075229cf5e01102a6a7c17b3b77e251998dc82782a2676b67bb47b70",  // grresp
      "d78b40dbaac60c32eddddc9a7b9fdaf6742d0237362e36fd2820bd8c8165756c",  // getblocktxn
      "f43ba87c925797fc6e6cd48a5d0f5e021635f0b15b771ea4f5d4e4d058406d15",  // blocktxn
  };
  EXPECT_EQ(t.pins, expected);
  EXPECT_EQ(t.statuses, (std::vector<ReceiveStatus>{ReceiveStatus::kNeedsProtocol2,
                                                     ReceiveStatus::kNeedsRepair,
                                                     ReceiveStatus::kDecoded}));
}

TEST(BlockRelayGoldenWire, EmptyAndOneTxBlockPinsHold) {
  // An empty block sizes S over n = 0 items (the reconcile format sizes it
  // over max(n, 1)); a one-tx block is the smallest non-empty case.
  const chain::Scenario empty = scenario(0x601d04, 0, 50, 1.0);
  ASSERT_EQ(empty.block.tx_count(), 0u);
  const Transcript te = transcript(empty.block, empty.receiver_mempool, 0x0e);
  EXPECT_EQ(te.pins, std::vector<std::string>{
                          "221e4255fd52f1bb15c6980bdc1ccfdf6cf51d42d730c3dc80fedfc04d2d9515"});
  EXPECT_EQ(te.statuses, std::vector<ReceiveStatus>{ReceiveStatus::kDecoded});

  const chain::Scenario one = scenario(0x601d05, 1, 50, 0.0);
  ASSERT_EQ(one.block.tx_count(), 1u);
  const Transcript t1 = transcript(one.block, one.receiver_mempool, 0x01);
  const std::vector<std::string> expected = {
      "c86a948430ae4e65dc61d18dd074f7ab9e88e458e6c2bfa7fe6691a7ef4a8942",  // grblk
      "c6c39d3ad0b59773806d3c58bd93cf7487a1228a373c0ff3e1d7eaf7cf56b3d9",  // grreq
      "af37018675c0ab8b04ac4fa220685d088f2215df11a16b4e0fc6049bea41041d",  // grresp
      "616f96b43dff2bdd1f256be7b6c58e25fe43446bb488b9ab8d8ea283fead9f6d",  // getblocktxn
      "60075e1f244ce5766e42c4d09e414ac37696868467c3b1860eb0aac1d598016e",  // blocktxn
  };
  EXPECT_EQ(t1.pins, expected);
  EXPECT_EQ(t1.statuses, (std::vector<ReceiveStatus>{ReceiveStatus::kNeedsProtocol2,
                                                      ReceiveStatus::kNeedsRepair,
                                                      ReceiveStatus::kDecoded}));
}

// The old-vs-new differential without keeping the old code: every payload
// and status of 50 fixed-seed relays over the (n, m, overlap) lattice,
// hashed in exchange order into one digest.
TEST(BlockRelayGoldenWire, LatticePinHolds) {
  util::Rng rng(0x1a77);
  testkit::ScenarioDims dims;
  dims.min_block_txns = 1;
  dims.max_block_txns = 400;
  dims.max_extra_multiple = 3.0;
  util::Sha256 h;
  std::vector<int> paths(4, 0);
  for (int i = 0; i < 50; ++i) {
    const testkit::GenCase c = testkit::gen_case(rng, dims);
    const chain::Scenario s = testkit::build_scenario(c);
    std::size_t steps = 0;
    relay(
        s.block, s.receiver_mempool, c.salt,
        [&](const util::Bytes& wire) {
          std::uint8_t len[8];
          for (int b = 0; b < 8; ++b) len[b] = static_cast<std::uint8_t>(wire.size() >> (8 * b));
          h.update(len, sizeof(len));
          h.update(util::ByteView(wire));
        },
        [&](ReceiveStatus st) {
          const auto b = static_cast<std::uint8_t>(st);
          h.update(&b, 1);
          ++steps;
        });
    ++paths[steps];
  }
  const auto d = h.finalize();
  // The lattice must reach Protocol 2 and the repair round, not only P1.
  EXPECT_GT(paths[1], 0);
  EXPECT_GT(paths[2], 0);
  EXPECT_GT(paths[3], 0);
  EXPECT_EQ(util::to_hex(util::ByteView(d.data(), d.size())), 
            "47ecb457cf2cddf421065061c4326e2e57983bcc8aa3aeccfbb1e6d558398747");
}

}  // namespace
}  // namespace graphene::core
