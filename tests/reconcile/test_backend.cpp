// The reconciliation backend seam: golden wire pins proving the Graphene
// messages survived the refactor byte-for-byte, the backend-agnostic driver
// loop, the rateless backend end-to-end, and the DigestHasher fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graphene/errors.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "reconcile/set_reconciler.hpp"
#include "testkit/gen.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace graphene::reconcile {
namespace {

ItemSet pinned_items(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  ItemSet out;
  while (out.size() < count) {
    ItemDigest d;
    for (std::size_t i = 0; i < d.size(); i += 8) {
      const std::uint64_t w = rng.next();
      for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
    out.insert(d);
  }
  return out;
}

/// Subset slicing goes through sorted digests so scenarios are independent
/// of the hasher's iteration order.
std::vector<ItemDigest> sorted_of(const ItemSet& s) {
  std::vector<ItemDigest> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::string pin(const util::Bytes& wire) {
  const auto h = util::sha256(util::ByteView(wire));
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

core::ProtocolConfig rateless_cfg() {
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  return cfg;
}

// --- Golden wire pins ------------------------------------------------------
//
// SHA-256 of every serialized Graphene reconcile message across three pinned
// scenarios, then of every rateless message of a fourth. These bytes are the on-wire protocol: any refactor of the
// backend seam must reproduce them exactly. (Response.missing is emitted in
// sorted-digest order — the one deliberate canonicalization — and these pins
// bake that in.)

/// Parses a whole payload as the typed message it carries.
template <typename Msg>
Msg parsed(const WireMsg& msg) {
  util::ByteReader reader{util::ByteView(msg.payload)};
  Msg out = Msg::deserialize(reader);
  EXPECT_TRUE(reader.done());
  return out;
}

TEST(BackendGoldenWire, DisjointHeavyScenarioPinsHold) {
  const ItemSet host_items = pinned_items(0x9001, 300);
  ItemSet client_items = pinned_items(0x9002, 100);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 200; ++i) client_items.insert(host_sorted[i]);

  Host host(host_items, 0x5a17);
  Client client(client_items);
  const WireMsg offer = host.open(client_items.size());
  ASSERT_EQ(offer.type, net::MessageType::kReconcileOffer);
  EXPECT_EQ(pin(offer.payload),
            "ee194862bb3502e2bb8f245ec147e71101f4504265fbe4f57eb731845953547d");
  const Outcome o1 = client.absorb_wire(offer);
  ASSERT_EQ(o1.status, Outcome::Status::kNeedsRequest);
  const WireMsg req = client.next_request();
  ASSERT_EQ(req.type, net::MessageType::kReconcileRequest);
  EXPECT_EQ(pin(req.payload),
            "29a18609c37b86678f2d1324c17c9b80ebdff7be16ac62ba937ea808e2616f4f");
  const WireMsg resp = host.serve_wire(req);
  ASSERT_EQ(resp.type, net::MessageType::kReconcileResponse);
  EXPECT_EQ(pin(resp.payload),
            "58360ef3d2432e359c3707b07209b2122fdbbf01879bbdcecfe0ac28290f3e1b");
  const Response typed = parsed<Response>(resp);
  EXPECT_TRUE(std::is_sorted(typed.missing.begin(), typed.missing.end()));
}

TEST(BackendGoldenWire, SupersetClientScenarioPinsHold) {
  const ItemSet host_items = pinned_items(0xb001, 150);
  ItemSet client_items = host_items;
  for (const ItemDigest& d : pinned_items(0xb002, 50)) client_items.insert(d);

  Host host(host_items, 0xfeed);
  Client client(client_items);
  const WireMsg offer = host.open(client_items.size());
  EXPECT_EQ(pin(offer.payload),
            "9cf9932d42b24aee38953a6eaf34d22303e2dab35203a4cf54fd1e0370f9be7e");
  EXPECT_EQ(client.absorb_wire(offer).status, Outcome::Status::kComplete);
}

TEST(BackendGoldenWire, ReversedPathScenarioPinsHoldThroughFetch) {
  const ItemSet host_items = pinned_items(0xc001, 400);
  ItemSet client_items = pinned_items(0xc002, 10);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 380; ++i) client_items.insert(host_sorted[i]);

  Host host(host_items, 0xc0de);
  Client client(client_items);
  const WireMsg offer = host.open(client_items.size());
  EXPECT_EQ(pin(offer.payload),
            "11229fdbf6604900ce01c5d8dbb21be542a63962869e8c1d15bc7b605a2a1b2a");
  ASSERT_EQ(client.absorb_wire(offer).status, Outcome::Status::kNeedsRequest);
  const WireMsg req = client.next_request();
  EXPECT_TRUE(parsed<Request>(req).reversed);
  EXPECT_EQ(pin(req.payload),
            "46d4854362074b2202a9c2b638ef1a2832558384f8fea8fe82e6d2a5e962f9b2");
  const WireMsg resp = host.serve_wire(req);
  EXPECT_EQ(pin(resp.payload),
            "6e334829a72e6b127af8bce905e41aa198d8c5087757188c087ed743427683bb");
  ASSERT_EQ(client.absorb_wire(resp).status, Outcome::Status::kNeedsFetch);
  const WireMsg freq = client.next_request();
  ASSERT_EQ(freq.type, net::MessageType::kReconcileFetch);
  EXPECT_EQ(pin(freq.payload),
            "ef8423963c3ef769a5f57051257af18c62636b121fdc7f8b264266256751af25");
  const WireMsg fresp = host.serve_wire(freq);
  ASSERT_EQ(fresp.type, net::MessageType::kReconcileFetchResponse);
  EXPECT_EQ(pin(fresp.payload),
            "489c6cd12b823efc5f45a578ea50265cea105d22362a0c72193068663eaf5e51");
  const Outcome fin = client.absorb_wire(fresp);
  EXPECT_EQ(fin.status, Outcome::Status::kComplete);
  EXPECT_EQ(fin.host_set, host_items);
}

// SHA-256 of every RatelessChunk / RatelessNeed payload of one pinned
// two-sided scenario, in exchange order. The coded-symbol fold (digest XOR,
// checksum, count) and the chunk/need encodings are the rateless wire; any
// change to either shows up here.
TEST(BackendGoldenWire, RatelessScenarioPinsHold) {
  const ItemSet host_items = pinned_items(0xd001, 300);
  ItemSet client_items = pinned_items(0xd002, 40);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 260; ++i) client_items.insert(host_sorted[i]);

  Host host(host_items, 0x7a1e, rateless_cfg());
  Client client(client_items, rateless_cfg());
  std::vector<std::string> pins;
  WireMsg msg = host.open(client_items.size());
  ASSERT_EQ(msg.type, net::MessageType::kRatelessChunk);
  pins.push_back(pin(msg.payload));
  Outcome out = client.absorb_wire(msg);
  while (out.status == Outcome::Status::kNeedsMoreSymbols) {
    ASSERT_LT(pins.size(), 32u);
    const WireMsg need = client.next_request();
    ASSERT_EQ(need.type, net::MessageType::kRatelessNeed);
    pins.push_back(pin(need.payload));
    msg = host.serve_wire(need);
    ASSERT_EQ(msg.type, net::MessageType::kRatelessChunk);
    pins.push_back(pin(msg.payload));
    out = client.absorb_wire(msg);
  }
  ASSERT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_EQ(out.host_set, host_items);
  const std::vector<std::string> expected = {
      "87c13e70ef96fd289a086f840235dff4c311149047137ef719e49219ed482b8c",  // chunk 0 (opening)
      "430c0c4e4652189800774c572e360ae56f0245079e763c995751ba15ba25c454",  // need 1
      "52c9a6e145526a1d7dd4a90aad79d71ca22e0ecc80fd6f10c00bbd3986855f13",  // chunk 1
      "6c179f21e6f62b629055d8ab40f454ed02e48b68563913473b857d3638e23b28",  // need 2
      "98ab2b6117fd04daeb3f95a7e9f1d9e6175919b7f8f48e1c50ec8501253c52be",  // chunk 2
      "3330e5ba53cb09ab97dd287ad8ba30380b88a5aca467b6c231b0a46f261c16e1",  // need 3
      "e712111919235f1bd15a46b98c1a16693b8897313b13701243c2e92fab540b11",  // chunk 3
  };
  EXPECT_EQ(pins, expected);
}

// The Graphene reconcile wire over the testkit (n, m, overlap) lattice:
// every message type, payload and client status of 50 fixed-seed sessions
// (host set = block txids, client set = receiver mempool), hashed in
// exchange order into one digest.
TEST(BackendGoldenWire, LatticePinHolds) {
  util::Rng rng(0x1a78);
  testkit::ScenarioDims dims;
  dims.min_block_txns = 1;
  dims.max_block_txns = 400;
  dims.max_extra_multiple = 3.0;
  util::Sha256 h;
  const auto absorb_bytes = [&h](const WireMsg& msg) {
    std::uint8_t head[9];
    head[0] = static_cast<std::uint8_t>(msg.type);
    for (int b = 0; b < 8; ++b) {
      head[1 + b] = static_cast<std::uint8_t>(msg.payload.size() >> (8 * b));
    }
    h.update(head, sizeof(head));
    h.update(util::ByteView(msg.payload));
  };
  std::vector<int> rounds(4, 0);
  for (int i = 0; i < 50; ++i) {
    const testkit::GenCase c = testkit::gen_case(rng, dims);
    const chain::Scenario s = testkit::build_scenario(c);
    ItemSet host_items;
    for (const chain::Transaction& tx : s.block.transactions()) host_items.insert(tx.id);
    ItemSet client_items;
    for (const chain::TxId& id : s.receiver_mempool.ids()) client_items.insert(id);

    Host host(host_items, c.salt);
    Client client(client_items);
    WireMsg msg = host.open(client_items.size());
    absorb_bytes(msg);
    Outcome out = client.absorb_wire(msg);
    std::size_t round = 0;
    for (;;) {
      const auto st = static_cast<std::uint8_t>(out.status);
      h.update(&st, 1);
      if (!needs_more(out.status)) break;
      ASSERT_LT(++round, rounds.size());
      const WireMsg req = client.next_request();
      absorb_bytes(req);
      msg = host.serve_wire(req);
      absorb_bytes(msg);
      out = client.absorb_wire(msg);
    }
    ++rounds[round];
    if (out.status == Outcome::Status::kComplete) EXPECT_EQ(out.host_set, host_items);
  }
  // The lattice must reach the request and the fetch round, not only P1.
  EXPECT_GT(rounds[0], 0);
  EXPECT_GT(rounds[1], 0);
  EXPECT_GT(rounds[2], 0);
  const auto d = h.finalize();
  EXPECT_EQ(util::to_hex(util::ByteView(d.data(), d.size())),
            "9b9ee86a081dab4fd2592d207dbf2935826b11ee3fe32571ed395468873fc1ea");
}

// --- The backend-agnostic driver -------------------------------------------

TEST(BackendDriver, WireDriverMatchesManualExchange) {
  util::Rng rng(21);
  for (int t = 0; t < 5; ++t) {
    const ItemSet host_items = pinned_items(rng.next(), 300);
    ItemSet client_items = pinned_items(rng.next(), 50);
    const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
    for (std::size_t i = 0; i < 250; ++i) client_items.insert(host_sorted[i]);
    const std::uint64_t salt = rng.next();

    Host driven_host(host_items, salt);
    Client driven_client(client_items);
    Outcome driven_out;
    const SyncStats stats = reconcile_one_way(driven_host, driven_client, driven_out);

    // The same session stepped by hand, one message at a time.
    Host host(host_items, salt);
    Client client(client_items);
    WireMsg msg = host.open(client_items.size());
    std::vector<std::size_t> round_bytes = {msg.payload.size()};
    Outcome out = client.absorb_wire(msg);
    while (needs_more(out.status)) {
      ASSERT_LT(round_bytes.size(), 8u);
      const WireMsg req = client.next_request();
      msg = host.serve_wire(req);
      round_bytes.push_back(req.payload.size());
      round_bytes.push_back(msg.payload.size());
      out = client.absorb_wire(msg);
    }

    EXPECT_EQ(stats.success, out.status == Outcome::Status::kComplete);
    EXPECT_EQ(driven_out.status, out.status);
    EXPECT_EQ(stats.round_bytes, round_bytes);
    EXPECT_EQ(stats.round_trips, (round_bytes.size() + 1) / 2);
    if (stats.success) {
      EXPECT_EQ(driven_out.host_set, host_items);
      EXPECT_EQ(out.host_set, host_items);
    }
  }
}

TEST(BackendDriver, RoundCapBoundsTheLoop) {
  core::ProtocolConfig cfg = rateless_cfg();
  cfg.reconcile_round_cap = 1;  // one message only: offer/chunk then stop
  cfg.rateless_initial_symbols = 1;
  util::Rng rng(22);
  const ItemSet host_items = pinned_items(rng.next(), 400);
  const ItemSet client_items = pinned_items(rng.next(), 400);
  Host host(host_items, rng.next(), cfg);
  Client client(client_items, cfg);
  Outcome out;
  const SyncStats stats = reconcile_one_way(host, client, out);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_LE(stats.round_bytes.size(), 3u);
}

TEST(BackendDriver, SyncStatsTotalBytesSumsRoundBytes) {
  util::Rng rng(23);
  const ItemSet host_items = pinned_items(rng.next(), 300);
  ItemSet client_items;
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 200; ++i) client_items.insert(host_sorted[i]);
  Host host(host_items, rng.next());
  Client client(client_items);
  Outcome out;
  const SyncStats stats = reconcile_one_way(host, client, out);
  ASSERT_TRUE(stats.success);
  ASSERT_TRUE(stats.used_request_round);
  ASSERT_GE(stats.round_bytes.size(), 3u);
  std::size_t sum = 0;
  for (const std::size_t b : stats.round_bytes) sum += b;
  EXPECT_EQ(stats.total_bytes(), sum);
}

// --- The rateless backend --------------------------------------------------

TEST(RatelessBackend, CompletesAcrossDivergenceRegimes) {
  util::Rng rng(31);
  const struct {
    std::size_t host;
    std::size_t shared;
    std::size_t client_extra;
  } kCells[] = {
      {200, 200, 0},    // identical sets
      {200, 200, 50},   // client superset
      {300, 250, 0},    // client subset
      {300, 150, 150},  // heavy two-sided divergence
      {1, 0, 0},        // single-item host, empty client
      {500, 490, 10},   // small difference in large sets
  };
  for (const auto& cell : kCells) {
    const ItemSet host_items = pinned_items(rng.next(), cell.host);
    ItemSet client_items;
    const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
    for (std::size_t i = 0; i < cell.shared; ++i) client_items.insert(host_sorted[i]);
    for (const ItemDigest& d : pinned_items(rng.next(), cell.client_extra)) {
      client_items.insert(d);
    }

    Host host(host_items, rng.next(), rateless_cfg());
    Client client(client_items, rateless_cfg());
    Outcome out;
    const SyncStats stats = reconcile_one_way(host, client, out);
    ASSERT_TRUE(stats.success) << "host=" << cell.host << " shared=" << cell.shared;
    EXPECT_EQ(out.host_set, host_items);
    EXPECT_GT(stats.symbols_consumed, 0u);
    // No decode-failure repair and no short-ID fetch — structurally absent.
    EXPECT_FALSE(stats.used_request_round);
    EXPECT_FALSE(stats.used_fetch_round);
    EXPECT_TRUE(out.unresolved.empty());
  }
}

TEST(RatelessBackend, EmptyHostSetCompletesTrivially) {
  util::Rng rng(32);
  const ItemSet client_items = pinned_items(rng.next(), 60);
  Host host(ItemSet{}, rng.next(), rateless_cfg());
  Client client(client_items, rateless_cfg());
  Outcome out;
  const SyncStats stats = reconcile_one_way(host, client, out);
  ASSERT_TRUE(stats.success);
  EXPECT_TRUE(out.host_set.empty());
}

TEST(RatelessBackend, ChunkReServesAreByteIdentical) {
  util::Rng rng(34);
  const ItemSet items = pinned_items(rng.next(), 100);
  RatelessHostBackend backend(items, 7, rateless_cfg());
  (void)backend.open(100);

  RatelessNeed need;
  need.next_index = 0;
  need.count = 16;
  WireMsg req;
  req.type = net::MessageType::kRatelessNeed;
  req.payload = need.serialize();
  const WireMsg a = backend.serve_wire(req);
  const WireMsg b = backend.serve_wire(req);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.type, net::MessageType::kRatelessChunk);
}

TEST(RatelessBackend, WireMessagesRoundTrip) {
  util::Rng rng(35);
  RatelessChunk chunk;
  chunk.start = 5;
  chunk.host_count = 123;
  chunk.salt = rng.next();
  chunk.set_checksum = rng.next();
  for (int i = 0; i < 3; ++i) {
    iblt::CodedSymbol s;
    for (auto& b : s.sum) b = static_cast<std::uint8_t>(rng.next());
    s.check = rng.next();
    s.count = static_cast<std::int64_t>(rng.next() % 1000) - 500;
    chunk.symbols.push_back(s);
  }
  const util::Bytes wire = chunk.serialize();
  util::ByteReader reader{util::ByteView(wire)};
  const RatelessChunk back = RatelessChunk::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(back.start, chunk.start);
  EXPECT_EQ(back.host_count, chunk.host_count);
  EXPECT_EQ(back.salt, chunk.salt);
  EXPECT_EQ(back.set_checksum, chunk.set_checksum);
  ASSERT_EQ(back.symbols.size(), chunk.symbols.size());
  for (std::size_t i = 0; i < back.symbols.size(); ++i) {
    EXPECT_EQ(back.symbols[i].sum, chunk.symbols[i].sum);
    EXPECT_EQ(back.symbols[i].check, chunk.symbols[i].check);
    EXPECT_EQ(back.symbols[i].count, chunk.symbols[i].count);
  }

  RatelessNeed need;
  need.next_index = 99;
  need.count = 4;
  const util::Bytes need_wire = need.serialize();
  util::ByteReader nr{util::ByteView(need_wire)};
  const RatelessNeed need_back = RatelessNeed::deserialize(nr);
  EXPECT_TRUE(nr.done());
  EXPECT_EQ(need_back.next_index, need.next_index);
  EXPECT_EQ(need_back.count, need.count);
}

// --- Wire hygiene ----------------------------------------------------------

TEST(BackendWire, TrailingPayloadBytesAreRejected) {
  util::Rng rng(41);
  const ItemSet host_items = pinned_items(rng.next(), 50);
  const ItemSet client_items = pinned_items(rng.next(), 50);
  for (const core::ReconcileBackend backend :
       {core::ReconcileBackend::kGraphene, core::ReconcileBackend::kRatelessIblt}) {
    core::ProtocolConfig cfg;
    cfg.reconcile_backend = backend;
    Host host(host_items, rng.next(), cfg);
    Client client(client_items, cfg);
    WireMsg opening = host.open(client_items.size());
    opening.payload.push_back(0x00);  // smuggled appendix
    EXPECT_THROW((void)client.absorb_wire(opening), util::DeserializeError);
  }
}

TEST(BackendWire, UnexpectedMessageTypeFailsClosed) {
  util::Rng rng(42);
  const ItemSet host_items = pinned_items(rng.next(), 50);
  const ItemSet client_items = pinned_items(rng.next(), 50);

  // Graphene client: a rateless chunk is out of protocol → kFailed.
  {
    Host host(host_items, rng.next());
    Client client(client_items);
    WireMsg opening = host.open(client_items.size());
    opening.type = net::MessageType::kRatelessChunk;
    EXPECT_EQ(client.absorb_wire(opening).status, Outcome::Status::kFailed);
  }
  // Rateless host: a graphene request is out of protocol → ProtocolError.
  {
    Host host(host_items, rng.next(), rateless_cfg());
    (void)host.open(client_items.size());
    WireMsg bogus;
    bogus.type = net::MessageType::kReconcileRequest;
    EXPECT_THROW((void)host.serve_wire(bogus), core::ProtocolError);
  }
}

// --- DigestHasher ----------------------------------------------------------

TEST(DigestHasher, MixesAllFourWordsOfTheDigest) {
  // The regression this guards: hashing only bytes 0–7 sent every digest
  // with a shared 8-byte prefix — exactly what an adversary grinds for —
  // into one bucket. Build 4096 digests identical except in their LAST word
  // and require a near-uniform spread over 64 buckets.
  DigestHasher hasher;
  util::Rng rng(51);
  ItemDigest base;
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next());

  constexpr std::size_t kBuckets = 64;
  constexpr std::size_t kDigests = 4096;
  std::array<std::size_t, kBuckets> counts{};
  std::unordered_set<std::size_t> distinct;
  for (std::size_t i = 0; i < kDigests; ++i) {
    ItemDigest d = base;
    for (std::size_t b = 0; b < 8; ++b) d[24 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    const std::size_t h = hasher(d);
    distinct.insert(h);
    counts[h % kBuckets] += 1;
  }
  EXPECT_EQ(distinct.size(), kDigests);  // no wholesale collisions
  const std::size_t expected = kDigests / kBuckets;
  for (const std::size_t c : counts) {
    EXPECT_GT(c, expected / 4);
    EXPECT_LT(c, expected * 4);
  }
}

}  // namespace
}  // namespace graphene::reconcile
