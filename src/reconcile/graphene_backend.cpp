#include "reconcile/graphene_backend.hpp"

#include <algorithm>

#include "graphene/errors.hpp"
#include "reconcile/flight.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::parse_payload;
using detail::record_decode;
using obs::record_msg;

util::ByteView view(const ItemDigest& d) noexcept {
  return util::ByteView(d.data(), d.size());
}

}  // namespace

// --- wire formats -----------------------------------------------------------

void Offer::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, count);
  w.u64(salt);
  w.u64(set_checksum);
  filter.serialize_into(w);
  correction.serialize_into(w);
}

util::Bytes Offer::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Offer Offer::deserialize(util::ByteReader& reader) {
  Offer o;
  o.count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                      "reconcile::Offer count");
  o.salt = reader.u64();
  o.set_checksum = reader.u64();
  o.filter = bloom::BloomFilter::deserialize(reader);
  o.correction = iblt::Iblt::deserialize(reader);
  return o;
}

std::size_t Offer::serialized_size() const noexcept {
  return util::varint_size(count) + 16 + filter.serialized_size() +
         correction.serialized_size();
}

void Request::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, candidate_count);
  util::write_varint(w, b);
  util::write_varint(w, y_star);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &fpr_r, sizeof(bits));
  w.u64(bits);
  w.u8(reversed ? 1 : 0);
  filter.serialize_into(w);
}

util::Bytes Request::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Request Request::deserialize(util::ByteReader& reader) {
  Request r;
  r.candidate_count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                                "reconcile::Request candidates");
  r.b = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                  "reconcile::Request b");
  r.y_star = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                       "reconcile::Request y_star");
  const std::uint64_t bits = reader.u64();
  std::memcpy(&r.fpr_r, &bits, sizeof(r.fpr_r));
  if (!(r.fpr_r > 0.0 && r.fpr_r <= 1.0)) {
    throw util::DeserializeError("reconcile::Request: fpr not in (0, 1]");
  }
  const std::uint8_t reversed_flag = reader.u8();
  if (reversed_flag > 1) {
    throw util::DeserializeError("reconcile::Request: invalid reversed flag");
  }
  r.reversed = reversed_flag == 1;
  r.filter = bloom::BloomFilter::deserialize(reader);
  return r;
}

void Response::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, missing.size());
  for (const ItemDigest& d : missing) w.raw(view(d));
  correction.serialize_into(w);
  w.u8(compensation.has_value() ? 1 : 0);
  if (compensation) compensation->serialize_into(w);
}

util::Bytes Response::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Response Response::deserialize(util::ByteReader& reader) {
  Response r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::Response count");
  if (count > reader.remaining() / 32) {
    throw util::DeserializeError("reconcile::Response: item count exceeds buffer");
  }
  r.missing.resize(count);
  for (ItemDigest& d : r.missing) reader.raw_into(d.data(), d.size());
  r.correction = iblt::Iblt::deserialize(reader);
  const std::uint8_t compensation_flag = reader.u8();
  if (compensation_flag > 1) {
    throw util::DeserializeError("reconcile::Response: invalid presence flag");
  }
  if (compensation_flag == 1) r.compensation = bloom::BloomFilter::deserialize(reader);
  return r;
}

void FetchRequest::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, short_ids.size());
  for (const std::uint64_t s : short_ids) w.u64(s);
}

util::Bytes FetchRequest::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

FetchRequest FetchRequest::deserialize(util::ByteReader& reader) {
  FetchRequest r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::FetchRequest count");
  if (count > reader.remaining() / 8) {
    throw util::DeserializeError("reconcile::FetchRequest: count exceeds buffer");
  }
  r.short_ids.resize(count);
  for (auto& s : r.short_ids) s = reader.u64();
  return r;
}

void FetchResponse::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, items.size());
  for (const ItemDigest& d : items) w.raw(view(d));
}

util::Bytes FetchResponse::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

FetchResponse FetchResponse::deserialize(util::ByteReader& reader) {
  FetchResponse r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::FetchResponse count");
  if (count > reader.remaining() / 32) {
    throw util::DeserializeError("reconcile::FetchResponse: count exceeds buffer");
  }
  r.items.resize(count);
  for (ItemDigest& d : r.items) reader.raw_into(d.data(), d.size());
  return r;
}

// --- host -------------------------------------------------------------------

GrapheneHostBackend::GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                                         core::ProtocolConfig cfg)
    : cfg_(cfg),
      host_(std::vector<ItemDigest>(items.begin(), items.end()), salt,
            core::kReconcileFormat, cfg_) {}

WireMsg GrapheneHostBackend::open(std::uint64_t client_count) {
  const core::Protocol1Params params = host_.size_offer(client_count);
  Offer offer;
  offer.count = host_.size();
  offer.salt = host_.salt();
  for (const std::uint64_t sid : host_.short_ids()) offer.set_checksum ^= util::mix64(sid);
  offer.filter = host_.build_s(params);
  offer.correction = host_.build_i(params);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "offer", offer,
             {{"count", static_cast<double>(offer.count)},
              {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  return {net::MessageType::kReconcileOffer, offer.serialize()};
}

Response GrapheneHostBackend::serve(const Request& request) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  core::GrapheneHost::Served served;
  try {
    served = host_.serve({request.candidate_count, request.b, request.y_star,
                          request.fpr_r, request.reversed, &request.filter});
  } catch (const core::ProtocolError& e) {
    core::record_rejection(reg, e);
    throw;
  }
  Response resp;
  resp.missing.reserve(served.missing.size());
  for (const std::size_t i : served.missing) resp.missing.push_back(host_.items()[i]);
  // Canonicalize: the item list follows hash-table iteration order, an
  // artifact of the in-memory DigestHasher — left unsorted it would leak
  // onto the wire and change whenever the hasher does. Missing items are a
  // set; emit them in digest order so Response bytes are a pure function of
  // the sets (pinned by the golden-wire test).
  std::sort(resp.missing.begin(), resp.missing.end());
  resp.correction = std::move(served.iblt_j);
  resp.compensation = std::move(served.filter_f);
  record_msg(reg, obs::FlightEventKind::kMsgSent, "response", resp,
             {{"missing", static_cast<double>(resp.missing.size())},
              {"j_cells", static_cast<double>(resp.correction.cell_count())},
              {"reversed", request.reversed ? 1.0 : 0.0}});
  return resp;
}

FetchResponse GrapheneHostBackend::serve_fetch(const FetchRequest& request) const {
  FetchResponse resp;
  for (const std::size_t i : host_.fetch(request.short_ids)) {
    resp.items.push_back(host_.items()[i]);
  }
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "fetchresp", resp,
             {{"requested", static_cast<double>(request.short_ids.size())},
              {"served", static_cast<double>(resp.items.size())}});
  return resp;
}

WireMsg GrapheneHostBackend::serve_wire(const WireMsg& request) {
  switch (request.type) {
    case net::MessageType::kReconcileRequest: {
      const Request req = parse_payload<Request>(request, "reconcile::Request");
      return {net::MessageType::kReconcileResponse, serve(req).serialize()};
    }
    case net::MessageType::kReconcileFetch: {
      const FetchRequest req =
          parse_payload<FetchRequest>(request, "reconcile::FetchRequest");
      return {net::MessageType::kReconcileFetchResponse, serve_fetch(req).serialize()};
    }
    default: break;
  }
  core::ErrorContext ctx;
  ctx.n = host_.size();
  throw core::ProtocolError("reconcile_serve",
                            "unexpected message type for graphene backend", ctx);
}

// --- client -----------------------------------------------------------------

GrapheneClientBackend::GrapheneClientBackend(const ItemSet& items,
                                             core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg), client_(core::kReconcileFormat, cfg_) {}

Outcome GrapheneClientBackend::absorb_offer() {
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgReceived, "offer", offer_,
             {{"count", static_cast<double>(offer_.count)},
              {"bloom_bytes", static_cast<double>(offer_.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer_.correction.cell_count())}});
  client_.begin(offer_.salt);
  client_.index_passing(*items_, offer_.filter);
  iblt::DecodeResult dec;
  Outcome out;
  switch (client_.peel_offer(offer_.correction, dec)) {
    case core::GrapheneClient::Step::kResolved: return finalize();
    case core::GrapheneClient::Step::kFailed: out.status = Outcome::Status::kFailed; break;
    default: out.status = Outcome::Status::kNeedsRequest; break;
  }
  return out;
}

Request GrapheneClientBackend::make_request() {
  double f_s = 0;
  const core::Protocol2Params params =
      client_.size_request(items_->size(), offer_.count, offer_.filter, f_s);
  Request req;
  req.candidate_count = client_.candidates().size();
  req.b = params.b;
  req.y_star = params.y_star;
  req.fpr_r = params.fpr;
  req.reversed = params.reversed;
  req.filter = client_.build_r();
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "request", req,
             {{"z", static_cast<double>(req.candidate_count)},
              {"b", static_cast<double>(req.b)},
              {"y_star", static_cast<double>(req.y_star)},
              {"fpr_r", req.fpr_r},
              {"reversed", req.reversed ? 1.0 : 0.0}});
  return req;
}

Outcome GrapheneClientBackend::complete(const Response& response) {
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgReceived, "response",
             response,
             {{"missing", static_cast<double>(response.missing.size())},
              {"j_cells", static_cast<double>(response.correction.cell_count())},
              {"has_compensation", response.compensation.has_value() ? 1.0 : 0.0}});
  client_.prune(response.compensation);
  for (const ItemDigest& d : response.missing) client_.index(d);
  Outcome out;
  switch (client_.decode_correction(response.correction, offer_.correction)) {
    case core::GrapheneClient::Step::kResolved: return finalize();
    case core::GrapheneClient::Step::kNeedsFetch:
      out.status = Outcome::Status::kNeedsFetch;
      out.unresolved = client_.unresolved();
      return out;
    default: out.status = Outcome::Status::kFailed; return out;
  }
}

Outcome GrapheneClientBackend::finalize() const {
  Outcome out;
  if (client_.candidates().size() == offer_.count &&
      client_.checksum() == offer_.set_checksum) {
    out.status = Outcome::Status::kComplete;
    out.host_set = client_.candidates();
  } else {
    out.status = Outcome::Status::kNeedsRequest;
  }
  return out;
}

// --- wire-driven session ----------------------------------------------------

Outcome GrapheneClientBackend::absorb_wire(const WireMsg& msg) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  Outcome out;
  switch (msg.type) {
    case net::MessageType::kReconcileOffer: {
      if (phase_ != Phase::kAwaitOffer) break;
      offer_ = parse_payload<Offer>(msg, "reconcile::Offer");
      out = absorb_offer();
      record_decode(reg, "reconcile_p1", out.status);
      phase_ = out.status == Outcome::Status::kNeedsRequest ? Phase::kAwaitResponse
                                                            : Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    case net::MessageType::kReconcileResponse: {
      if (phase_ != Phase::kAwaitResponse) break;
      out = complete(parse_payload<Response>(msg, "reconcile::Response"));
      record_decode(reg, "reconcile_p2", out.status);
      // A post-repair checksum mismatch leaves nothing to ask for: the
      // repair round is spent, so the session fails rather than looping.
      if (out.status == Outcome::Status::kNeedsRequest) out.status = Outcome::Status::kFailed;
      phase_ = out.status == Outcome::Status::kNeedsFetch ? Phase::kAwaitFetch
                                                          : Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    case net::MessageType::kReconcileFetchResponse: {
      if (phase_ != Phase::kAwaitFetch) break;
      for (const ItemDigest& d :
           parse_payload<FetchResponse>(msg, "reconcile::FetchResponse").items) {
        client_.index(d);
      }
      client_.clear_unresolved();
      out = finalize();
      record_decode(reg, "reconcile_fetch", out.status);
      if (out.status != Outcome::Status::kComplete) out.status = Outcome::Status::kFailed;
      phase_ = Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    default: break;
  }
  out.status = Outcome::Status::kFailed;
  phase_ = Phase::kDone;
  last_status_ = out.status;
  return out;
}

WireMsg GrapheneClientBackend::next_request() {
  if (last_status_ == Outcome::Status::kNeedsRequest) {
    return {net::MessageType::kReconcileRequest, make_request().serialize()};
  }
  if (last_status_ == Outcome::Status::kNeedsFetch) {
    return {net::MessageType::kReconcileFetch,
            FetchRequest{client_.unresolved()}.serialize()};
  }
  throw std::logic_error("reconcile: next_request() without a pending round");
}

}  // namespace graphene::reconcile
