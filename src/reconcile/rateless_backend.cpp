#include "reconcile/rateless_backend.hpp"

#include <algorithm>
#include <span>

#include "graphene/errors.hpp"
#include "reconcile/flight.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::parse_payload;
using detail::record_decode;
using obs::record_msg;

}  // namespace

// --- wire formats -----------------------------------------------------------

void RatelessChunk::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, start);
  util::write_varint(w, host_count);
  w.u64(salt);
  w.u64(set_checksum);
  util::write_varint(w, symbols.size());
  for (const iblt::CodedSymbol& s : symbols) {
    w.u64(static_cast<std::uint64_t>(s.count));
    w.u64(s.check);
    w.raw(util::ByteView(s.sum.data(), s.sum.size()));
  }
}

util::Bytes RatelessChunk::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

RatelessChunk RatelessChunk::deserialize(util::ByteReader& reader) {
  RatelessChunk c;
  c.start = util::read_varint_bounded(reader, util::wire::kMaxRatelessStreamIndex,
                                      "reconcile::RatelessChunk start");
  c.host_count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                           "reconcile::RatelessChunk host_count");
  c.salt = reader.u64();
  c.set_checksum = reader.u64();
  const std::uint64_t count =
      util::read_varint_bounded(reader, util::wire::kMaxRatelessChunkSymbols,
                                "reconcile::RatelessChunk symbols");
  if (count > reader.remaining() / iblt::CodedSymbol::kWireBytes) {
    throw util::DeserializeError("reconcile::RatelessChunk: symbol count exceeds buffer");
  }
  c.symbols.resize(count);
  for (iblt::CodedSymbol& s : c.symbols) {
    s.count = static_cast<std::int64_t>(reader.u64());
    s.check = reader.u64();
    reader.raw_into(s.sum.data(), s.sum.size());
  }
  return c;
}

void RatelessNeed::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, next_index);
  util::write_varint(w, count);
}

util::Bytes RatelessNeed::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

RatelessNeed RatelessNeed::deserialize(util::ByteReader& reader) {
  RatelessNeed n;
  n.next_index = util::read_varint_bounded(reader, util::wire::kMaxRatelessStreamIndex,
                                           "reconcile::RatelessNeed next_index");
  n.count = util::read_varint_bounded(reader, util::wire::kMaxRatelessChunkSymbols,
                                      "reconcile::RatelessNeed count");
  return n;
}

// --- host -------------------------------------------------------------------

RatelessHostBackend::RatelessHostBackend(const ItemSet& items, std::uint64_t salt,
                                         core::ProtocolConfig cfg)
    : salt_(salt), cfg_(cfg), encoder_(salt) {
  for (const ItemDigest& d : items) encoder_.add_item(d);
  stream_budget_ = 8 * encoder_.item_count() + 1024;
}

RatelessChunk RatelessHostBackend::chunk_for(std::uint64_t start,
                                             std::uint64_t count) {
  encoder_.extend(start + count);
  RatelessChunk chunk;
  chunk.start = start;
  chunk.host_count = encoder_.item_count();
  chunk.salt = salt_;
  chunk.set_checksum = encoder_.set_checksum();
  const std::span<const iblt::CodedSymbol> span = encoder_.prefix().subspan(start, count);
  chunk.symbols.assign(span.begin(), span.end());
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "rlchunk", chunk,
             {{"start", static_cast<double>(start)},
              {"symbols", static_cast<double>(count)},
              {"host_count", static_cast<double>(chunk.host_count)}});
  return chunk;
}

WireMsg RatelessHostBackend::open(std::uint64_t client_count) {
  // An honest client needs ~1.35·d < 1.35·(n + m) symbols; budget a few
  // multiples of that so re-requests after faults always fit, while a peer
  // milking the stream for free CPU hits a typed error in bounded work.
  stream_budget_ = std::max(stream_budget_,
                            8 * (encoder_.item_count() + client_count) + 1024);
  const std::uint64_t count = std::max<std::uint64_t>(1, cfg_.rateless_initial_symbols);
  return {net::MessageType::kRatelessChunk, chunk_for(0, count).serialize()};
}

WireMsg RatelessHostBackend::serve_wire(const WireMsg& request) {
  if (request.type != net::MessageType::kRatelessNeed) {
    core::ErrorContext ctx;
    ctx.n = encoder_.item_count();
    throw core::ProtocolError("rateless_serve",
                              "unexpected message type for rateless backend", ctx);
  }
  const RatelessNeed need = parse_payload<RatelessNeed>(request, "reconcile::RatelessNeed");
  const std::uint64_t count = std::clamp<std::uint64_t>(
      need.count, 1, util::wire::kMaxRatelessChunkSymbols);
  if (need.next_index + count > stream_budget_) {
    core::ErrorContext ctx;
    ctx.n = encoder_.item_count();
    ctx.z = need.next_index;
    throw core::ProtocolError("rateless_serve", "symbol request beyond stream budget",
                              ctx);
  }
  return {net::MessageType::kRatelessChunk,
          chunk_for(need.next_index, count).serialize()};
}

// --- client -----------------------------------------------------------------

RatelessClientBackend::RatelessClientBackend(const ItemSet& items,
                                             core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg) {}

std::uint64_t RatelessClientBackend::symbol_budget() const noexcept {
  return std::max<std::uint64_t>(1024, 4 * (items_->size() + host_count_) + 64);
}

Outcome RatelessClientBackend::fail() {
  failed_ = true;
  Outcome out;
  out.status = Outcome::Status::kFailed;
  if (decoder_) out.symbols_consumed = decoder_->received();
  record_decode(obs::enabled(cfg_.obs), "reconcile_rateless", out.status);
  return out;
}

Outcome RatelessClientBackend::absorb_wire(const WireMsg& msg) {
  if (failed_ || msg.type != net::MessageType::kRatelessChunk) return fail();
  const RatelessChunk chunk = parse_payload<RatelessChunk>(msg, "reconcile::RatelessChunk");
  obs::Registry* reg = obs::enabled(cfg_.obs);
  record_msg(reg, obs::FlightEventKind::kMsgReceived, "rlchunk", chunk,
             {{"start", static_cast<double>(chunk.start)},
              {"symbols", static_cast<double>(chunk.symbols.size())},
              {"host_count", static_cast<double>(chunk.host_count)}});
  if (!started_) {
    salt_ = chunk.salt;
    host_count_ = chunk.host_count;
    set_checksum_ = chunk.set_checksum;
    decoder_.emplace(salt_);
    for (const ItemDigest& d : *items_) decoder_->add_local(d);
    started_ = true;
  } else if (chunk.salt != salt_ || chunk.host_count != host_count_ ||
             chunk.set_checksum != set_checksum_) {
    // The stream header is fixed for a session; a host that changes it
    // mid-flight is describing a different set.
    return fail();
  }

  // Consume in stream order. Symbols before our cursor are duplicates
  // (idempotent re-serves, channel-level retransmits) and are skipped; a
  // chunk starting past the cursor is a gap we cannot peel over, so we keep
  // the cursor and re-request — the host's prefix makes the retry identical.
  const std::uint64_t cursor = decoder_->received();
  if (chunk.start <= cursor && cursor - chunk.start < chunk.symbols.size()) {
    (void)decoder_->add_symbols(std::span(chunk.symbols).subspan(cursor - chunk.start));
    if (decoder_->malformed()) return fail();
  }
  if (decoder_->received() > symbol_budget()) return fail();

  Outcome out;
  out.symbols_consumed = decoder_->received();
  if (decoder_->decoded()) {
    ItemSet host_set = *items_;
    for (const ItemDigest& d : decoder_->negatives()) host_set.erase(d);
    for (const ItemDigest& d : decoder_->positives()) host_set.insert(d);
    std::uint64_t checksum = 0;
    for (const ItemDigest& d : host_set) {
      checksum ^= iblt::coded_symbol_check(d, salt_);
    }
    if (host_set.size() != host_count_ || checksum != set_checksum_) return fail();
    out.status = Outcome::Status::kComplete;
    out.host_set = std::move(host_set);
  } else {
    out.status = Outcome::Status::kNeedsMoreSymbols;
  }
  record_decode(reg, "reconcile_rateless", out.status);
  return out;
}

WireMsg RatelessClientBackend::next_request() {
  if (failed_ || !started_) {
    throw std::logic_error("reconcile: rateless next_request() without an open stream");
  }
  RatelessNeed need;
  need.next_index = decoder_->received();
  // Double the stream each round (ask for as many symbols as we have
  // consumed) so a large difference converges in O(log d) round trips.
  need.count = std::clamp<std::uint64_t>(
      std::max<std::uint64_t>(cfg_.rateless_initial_symbols, decoder_->received()), 1,
      util::wire::kMaxRatelessChunkSymbols);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "rlneed", need,
             {{"next_index", static_cast<double>(need.next_index)},
              {"count", static_cast<double>(need.count)}});
  return {net::MessageType::kRatelessNeed, need.serialize()};
}

}  // namespace graphene::reconcile
