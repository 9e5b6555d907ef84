// Rateless IBLT primitives (arXiv 2402.02668): index-sequence mapper,
// streaming encoder, incremental peeling decoder, and the hostile-stream
// termination defenses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "iblt/coded_symbol.hpp"
#include "util/random.hpp"

namespace graphene::iblt {
namespace {

Digest32 random_digest(util::Rng& rng) {
  Digest32 d;
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
  return d;
}

std::vector<Digest32> random_digests(std::size_t count, util::Rng& rng) {
  std::vector<Digest32> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(random_digest(rng));
  return out;
}

TEST(IndexMapper, StartsAtZeroAndStrictlyIncreases) {
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    IndexMapper mapper(rng.next());
    EXPECT_EQ(mapper.current(), 0u);  // every item participates in symbol 0
    std::uint64_t prev = 0;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t next = mapper.next();
      EXPECT_GT(next, prev);
      prev = next;
    }
  }
}

TEST(IndexMapper, DeterministicPerSeed) {
  // 42|1 == 43|1: the mapper forces seeds odd, so pick c two apart.
  IndexMapper a(42), b(42), c(45);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(IndexMapper, ParticipationDensityDecaysLogarithmically) {
  // An item should hit ~2·ln(M) of the first M indices (E[log gap growth]
  // = 1/2). Pin a generous band so a density regression (every index, or a
  // constant number of indices) fails loudly.
  util::Rng rng(7);
  const std::uint64_t kM = 1 << 16;
  double total_hits = 0;
  const int kItems = 64;
  for (int i = 0; i < kItems; ++i) {
    IndexMapper mapper(rng.next());
    std::uint64_t hits = 0;
    for (std::uint64_t idx = mapper.current(); idx < kM; idx = mapper.next()) ++hits;
    total_hits += static_cast<double>(hits);
  }
  const double mean = total_hits / kItems;
  const double ln_m = std::log(static_cast<double>(kM));
  EXPECT_GT(mean, 1.0 * ln_m);
  EXPECT_LT(mean, 4.0 * ln_m);
}

TEST(CodedSymbol, ApplyIsSelfInverse) {
  util::Rng rng(2);
  const Digest32 d = random_digest(rng);
  const std::uint64_t chk = coded_symbol_check(d, 99);
  CodedSymbol cell;
  cell.apply(d, chk, +1);
  EXPECT_FALSE(cell.is_zero());
  EXPECT_EQ(cell.count, 1);
  cell.apply(d, chk, -1);
  EXPECT_TRUE(cell.is_zero());
}

TEST(RatelessEncoder, StreamIsDeterministicAndChecksumIsXor) {
  util::Rng rng(3);
  const auto items = random_digests(100, rng);
  RatelessEncoder a(0x5a17), b(0x5a17);
  std::uint64_t expected_check = 0;
  for (const Digest32& d : items) {
    a.add_item(d);
    b.add_item(d);
    expected_check ^= coded_symbol_check(d, 0x5a17);
  }
  EXPECT_EQ(a.set_checksum(), expected_check);
  a.extend(300);
  b.extend(300);
  for (int i = 0; i < 300; ++i) {
    const CodedSymbol& sa = a.prefix()[i];
    const CodedSymbol& sb = b.prefix()[i];
    EXPECT_EQ(sa.sum, sb.sum);
    EXPECT_EQ(sa.check, sb.check);
    EXPECT_EQ(sa.count, sb.count);
  }
  EXPECT_EQ(a.produced(), 300u);
}

TEST(RatelessEncoder, SymbolZeroCoversEveryItem) {
  util::Rng rng(4);
  const auto items = random_digests(50, rng);
  RatelessEncoder enc(1);
  CodedSymbol expected;
  for (const Digest32& d : items) {
    enc.add_item(d);
    expected.apply(d, coded_symbol_check(d, 1), +1);
  }
  enc.extend(1);
  const CodedSymbol& first = enc.prefix()[0];
  EXPECT_EQ(first.count, static_cast<std::int64_t>(items.size()));
  EXPECT_EQ(first.sum, expected.sum);
  EXPECT_EQ(first.check, expected.check);
}

/// Reference encoder, symbol-major and with no state carried between
/// symbols: symbol i folds every item whose IndexMapper sequence hits i.
std::vector<CodedSymbol> naive_prefix(const std::vector<Digest32>& items,
                                      std::uint64_t salt, std::uint64_t upto) {
  std::vector<CodedSymbol> out(upto);
  for (std::uint64_t i = 0; i < upto; ++i) {
    for (const Digest32& d : items) {
      IndexMapper mapper(coded_symbol_map_seed(d, salt));
      std::uint64_t at = mapper.current();
      while (at < i) at = mapper.next();
      if (at == i) out[i].apply(d, coded_symbol_check(d, salt), +1);
    }
  }
  return out;
}

TEST(RatelessEncoder, ItemMajorPrefixMatchesNaiveReference) {
  // Extension steps are uneven and half the items arrive after the first
  // step, so neither the step sizes nor add_item/extend order may matter.
  const std::uint64_t kSteps[] = {1, 3, 16, 100, 300};
  util::Rng rng(12);
  for (const std::size_t n : {0u, 1u, 7u, 500u}) {
    const auto items = random_digests(n, rng);
    for (const std::uint64_t salt : {0ULL, 0x5a17ULL, 0xfeedfacecafebeefULL}) {
      const std::vector<CodedSymbol> ref = naive_prefix(items, salt, 420);
      RatelessEncoder enc(salt);
      for (std::size_t i = 0; i < n / 2; ++i) enc.add_item(items[i]);
      std::uint64_t upto = 0;
      for (const std::uint64_t step : kSteps) {
        upto += step;
        enc.extend(upto);
        if (step == kSteps[0]) {
          for (std::size_t i = n / 2; i < n; ++i) enc.add_item(items[i]);
        }
        ASSERT_EQ(enc.produced(), upto);
        for (std::uint64_t i = 0; i < upto; ++i) {
          const CodedSymbol& got = enc.prefix()[i];
          ASSERT_EQ(got.sum, ref[i].sum) << "n=" << n << " salt=" << salt << " i=" << i;
          ASSERT_EQ(got.check, ref[i].check) << "n=" << n << " i=" << i;
          ASSERT_EQ(got.count, ref[i].count) << "n=" << n << " i=" << i;
        }
      }
      enc.extend(upto - 1);  // shrinking is a no-op
      EXPECT_EQ(enc.produced(), upto);
    }
  }
}

/// Streams host symbols into a decoder seeded with the client set until it
/// decodes; returns the symbols consumed (0 = gave up after `cap`).
std::uint64_t decode_stream(const std::vector<Digest32>& host,
                            const std::vector<Digest32>& client, std::uint64_t salt,
                            RatelessDecoder& dec, std::uint64_t cap = 100000) {
  RatelessEncoder enc(salt);
  for (const Digest32& d : host) enc.add_item(d);
  for (const Digest32& d : client) dec.add_local(d);
  for (std::uint64_t i = 0; i < cap; ++i) {
    if (i == enc.produced()) enc.extend(2 * i + 64);
    dec.add_symbol(enc.prefix()[i]);
    if (dec.decoded()) return dec.received();
    if (dec.malformed()) return 0;
  }
  return 0;
}

TEST(RatelessDecoder, RecoversSymmetricDifferenceExactly) {
  util::Rng rng(5);
  for (const std::size_t d_host : {1u, 5u, 30u}) {
    for (const std::size_t d_client : {0u, 3u, 20u}) {
      const auto shared = random_digests(200, rng);
      const auto host_only = random_digests(d_host, rng);
      const auto client_only = random_digests(d_client, rng);
      std::vector<Digest32> host = shared, client = shared;
      host.insert(host.end(), host_only.begin(), host_only.end());
      client.insert(client.end(), client_only.begin(), client_only.end());

      RatelessDecoder dec(0xabcdef);
      const std::uint64_t used = decode_stream(host, client, 0xabcdef, dec);
      ASSERT_GT(used, 0u) << "d_host=" << d_host << " d_client=" << d_client;

      const std::set<Digest32> pos(dec.positives().begin(), dec.positives().end());
      const std::set<Digest32> neg(dec.negatives().begin(), dec.negatives().end());
      EXPECT_EQ(pos, std::set<Digest32>(host_only.begin(), host_only.end()));
      EXPECT_EQ(neg, std::set<Digest32>(client_only.begin(), client_only.end()));
    }
  }
}

TEST(RatelessDecoder, IdenticalSetsDecodeWithOneSymbol) {
  util::Rng rng(6);
  const auto items = random_digests(500, rng);
  RatelessDecoder dec(77);
  EXPECT_EQ(decode_stream(items, items, 77, dec), 1u);
  EXPECT_TRUE(dec.positives().empty());
  EXPECT_TRUE(dec.negatives().empty());
}

TEST(RatelessDecoder, LargeDifferenceDecodesWithinTwoXOverhead) {
  util::Rng rng(8);
  const auto host = random_digests(600, rng);
  const auto client = random_digests(100, rng);  // disjoint: d = 700
  RatelessDecoder dec(123);
  const std::uint64_t used = decode_stream(host, client, 123, dec, 5000);
  ASSERT_GT(used, 0u);
  EXPECT_LT(used, 2u * 700u);
}

TEST(RatelessDecoder, GarbageStreamTerminatesViaBudgetNotHang) {
  // A stream of random cells has no consistent peeling order: the decoder
  // must end in malformed() (work budget / double-peel defense) or simply
  // never decode — but each add_symbol must do bounded work.
  util::Rng rng(9);
  RatelessDecoder dec(55);
  for (const Digest32& d : random_digests(50, rng)) dec.add_local(d);
  for (int i = 0; i < 2000 && !dec.malformed(); ++i) {
    CodedSymbol junk;
    junk.sum = random_digest(rng);
    junk.check = rng.next();
    junk.count = static_cast<std::int64_t>(rng.below(5)) - 2;
    dec.add_symbol(junk);
  }
  EXPECT_FALSE(dec.decoded());
}

TEST(RatelessDecoder, RepeatedFirstSymbolDoesNotDecodeWrong) {
  // Feeding the same symbol at every stream position is internally
  // inconsistent (positions imply different participation sets). The decoder
  // may stall or flag malformed; it must not report a bogus decode of a
  // non-empty difference.
  util::Rng rng(10);
  const auto host = random_digests(40, rng);
  RatelessEncoder enc(3);
  for (const Digest32& d : host) enc.add_item(d);
  enc.extend(1);
  const CodedSymbol first = enc.prefix()[0];

  RatelessDecoder dec(3);  // empty local set: true difference is 40 items
  for (int i = 0; i < 500 && !dec.malformed() && !dec.decoded(); ++i) {
    dec.add_symbol(first);
  }
  if (dec.decoded()) {
    EXPECT_EQ(dec.positives().size(), host.size());
    EXPECT_TRUE(dec.negatives().empty());
  }
}

TEST(RatelessDecoder, UpdateOpsGrowSubquadratically) {
  // The local prefix and the lazy recovered windows make per-symbol work
  // ~O(log) amortized; catching an accidental rescan-everything regression.
  util::Rng rng(11);
  const auto host = random_digests(400, rng);
  const auto client = random_digests(100, rng);
  RatelessDecoder dec(9);
  const std::uint64_t used = decode_stream(host, client, 9, dec, 5000);
  ASSERT_GT(used, 0u);
  EXPECT_LT(dec.update_ops(), 64u * used * 20u);
}

/// Everything a decoder exposes, for comparing feeds of the same stream.
struct DecoderState {
  std::vector<Digest32> positives, negatives;
  std::uint64_t received = 0, update_ops = 0;
  bool malformed = false, decoded = false;

  explicit DecoderState(const RatelessDecoder& dec)
      : positives(dec.positives()),
        negatives(dec.negatives()),
        received(dec.received()),
        update_ops(dec.update_ops()),
        malformed(dec.malformed()),
        decoded(dec.decoded()) {}
  bool operator==(const DecoderState&) const = default;
};

/// Feeds `stream` to a fresh decoder over `local` in pieces of the sizes
/// `piece` returns, stopping where add_symbols() stops.
template <typename Piece>
DecoderState feed(const std::vector<Digest32>& local, std::uint64_t salt,
                  const std::vector<CodedSymbol>& stream, Piece piece) {
  RatelessDecoder dec(salt);
  for (const Digest32& d : local) dec.add_local(d);
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t len = std::min(piece(), stream.size() - at);
    const std::size_t used =
        dec.add_symbols(std::span<const CodedSymbol>(stream).subspan(at, len));
    at += used;
    if (used < len || dec.decoded() || dec.malformed()) break;
  }
  EXPECT_EQ(at, dec.received());
  return DecoderState(dec);
}

/// The stream fed symbol by symbol, as one span, and in random-sized chunks.
DecoderState expect_feeds_agree(const std::vector<Digest32>& local, std::uint64_t salt,
                                const std::vector<CodedSymbol>& stream) {
  const DecoderState one = feed(local, salt, stream, [] { return std::size_t{1}; });
  const DecoderState whole = feed(local, salt, stream, [&] { return stream.size(); });
  util::Rng sizes(salt ^ stream.size());
  const DecoderState chunks =
      feed(local, salt, stream, [&] { return static_cast<std::size_t>(1 + sizes.below(64)); });
  EXPECT_TRUE(one == whole);
  EXPECT_TRUE(one == chunks);
  return one;
}

TEST(RatelessDecoder, SpanChunkAndSymbolFeedsAgree) {
  // Honest stream: 500-item host, 40 dropped and 40 added on the client.
  {
    util::Rng rng(0x9e11);
    const auto host = random_digests(500, rng);
    std::vector<Digest32> client(host.begin() + 40, host.end());
    const auto extra = random_digests(40, rng);
    client.insert(client.end(), extra.begin(), extra.end());
    RatelessEncoder enc(0x1e55);
    for (const Digest32& d : host) enc.add_item(d);
    enc.extend(2000);
    const std::vector<CodedSymbol> stream(enc.prefix().begin(), enc.prefix().end());
    const DecoderState st = expect_feeds_agree(client, 0x1e55, stream);
    EXPECT_TRUE(st.decoded);
    EXPECT_EQ(st.positives.size(), 40u);
    EXPECT_EQ(st.negatives.size(), 40u);
    // Exact symbols consumed and cell updates (one per local participant of
    // each consumed symbol, plus the peel work) for this stream. The work
    // budget reads update_ops(), so a change here moves the budget.
    EXPECT_EQ(st.received, 135u);
    EXPECT_EQ(st.update_ops, 5157u);
  }
  // Garbage stream (as in GarbageStreamTerminatesViaBudgetNotHang).
  {
    util::Rng rng(9);
    const auto local = random_digests(50, rng);
    std::vector<CodedSymbol> stream(2000);
    for (CodedSymbol& junk : stream) {
      junk.sum = random_digest(rng);
      junk.check = rng.next();
      junk.count = static_cast<std::int64_t>(rng.below(5)) - 2;
    }
    const DecoderState st = expect_feeds_agree(local, 55, stream);
    EXPECT_FALSE(st.decoded);
  }
  // The first symbol repeated at every position, over an empty local set.
  {
    util::Rng rng(10);
    RatelessEncoder enc(3);
    for (const Digest32& d : random_digests(40, rng)) enc.add_item(d);
    enc.extend(1);
    const std::vector<CodedSymbol> stream(500, enc.prefix()[0]);
    const DecoderState st = expect_feeds_agree({}, 3, stream);
    EXPECT_FALSE(st.decoded);
  }
}

}  // namespace
}  // namespace graphene::iblt
