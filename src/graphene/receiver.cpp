#include "graphene/receiver.hpp"

#include <algorithm>

#include "chain/merkle.hpp"
#include "graphene/errors.hpp"
#include "graphene/forensics.hpp"
#include "obs/obs.hpp"

namespace graphene::core {

const char* to_string(ReceiveStatus status) noexcept {
  switch (status) {
    case ReceiveStatus::kDecoded: return "decoded";
    case ReceiveStatus::kNeedsProtocol2: return "needs_protocol2";
    case ReceiveStatus::kNeedsRepair: return "needs_repair";
    case ReceiveStatus::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Label value for the per-outcome decode counters.
const char* status_label(ReceiveStatus status) noexcept { return to_string(status); }

}  // namespace

ReceiveSession::ReceiveSession(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg), client_(kBlockRelayFormat, cfg_) {}

Receiver::Receiver(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg) {}

void ReceiveSession::receive_tx(const chain::Transaction& tx) {
  received_txns_.emplace(tx.id, tx);
  client_.index(tx.id);
}

ReceiveOutcome ReceiveSession::receive_block(const GrapheneBlockMsg& msg) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::record_msg(reg, obs::FlightEventKind::kMsgReceived, "grblk", msg,
                  {{"n", static_cast<double>(msg.n)},
                   {"m", static_cast<double>(mempool_->size())},
                   {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
                   {"fpr_s", msg.filter_s.target_fpr()},
                   {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
                   {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}});
  msg_ = msg;
  have_block_msg_ = true;
  client_.begin(msg.shortid_salt);
  received_txns_.clear();

  {
    // Step 4: the candidate set Z = mempool transactions passing S.
    obs::ScopedSpan span(reg, "p1_candidates");
    const std::uint64_t queries_before = msg.filter_s.query_count();
    const std::uint64_t hits_before = msg.filter_s.hit_count();
    client_.index_passing(mempool_->ids(), msg.filter_s);
    z_ = client_.candidates().size();
    span.attr("m", mempool_->size());
    span.attr("n", msg.n);
    span.attr("z", z_);
    span.attr("target_fpr", msg.filter_s.target_fpr());
    span.attr("filter_queries", msg.filter_s.query_count() - queries_before);
    span.attr("filter_hits", msg.filter_s.hit_count() - hits_before);
  }

  iblt::DecodeResult dec;
  GrapheneClient::Step step{};
  {
    obs::ScopedSpan span(reg, "p1_peel");
    // I′ over Z with the sender's parameters, then I ⊖ I′.
    step = client_.peel_offer(msg.iblt_i, dec);
    span.attr("cells", msg.iblt_i.cell_count());
    span.attr("k", msg.iblt_i.hash_count());
    span.attr("peel_iterations", dec.peel_iterations);
    span.attr("peeled", dec.peeled());
    span.attr("residual_cells", dec.residual_cells);
    span.attr("success", dec.success ? 1 : 0);
    span.attr("malformed", dec.malformed ? 1 : 0);
    if (reg != nullptr) {
      reg->histogram("graphene_peel_iterations", {{"iblt", "i"}})
          .observe(dec.peel_iterations);
    }
  }

  ReceiveOutcome out;
  if (step == GrapheneClient::Step::kFailed) {
    out.status = ReceiveStatus::kFailed;
  } else if (step == GrapheneClient::Step::kNeedsRequest) {
    out.status = ReceiveStatus::kNeedsProtocol2;
  } else {
    out = finalize(/*used_pingpong=*/false);
    if (out.status != ReceiveStatus::kDecoded) out.status = ReceiveStatus::kNeedsProtocol2;
  }

  if (reg != nullptr) {
    reg->counter("graphene_p1_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  obs::record(reg, obs::FlightEventKind::kDecode, "p1",
              {{"status", static_cast<double>(static_cast<int>(out.status))},
               {"z", static_cast<double>(z_)},
               {"peel_iterations", static_cast<double>(dec.peel_iterations)},
               {"peeled", static_cast<double>(dec.peeled())},
               {"residual_cells", static_cast<double>(dec.residual_cells)}});
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p1_peel");
  return out;
}

ErrorContext ReceiveSession::error_context() const noexcept {
  ErrorContext ctx;
  ctx.have_block_msg = have_block_msg_;
  ctx.n = msg_.n;
  ctx.m = mempool_->size();
  ctx.z = z_;
  ctx.x_star = client_.request_params().x_star;
  ctx.y_star = client_.request_params().y_star;
  ctx.b = client_.request_params().b;
  return ctx;
}

void ReceiveSession::raise(const char* stage, const char* what) const {
  const ErrorContext ctx = error_context();
  if (obs::Registry* reg = obs::enabled(cfg_.obs)) {
    obs::ScopedSpan span(reg, "error");
    span.attr("have_block_msg", ctx.have_block_msg ? 1 : 0);
    span.attr("n", ctx.n);
    span.attr("m", ctx.m);
    span.attr("z", ctx.z);
    span.attr("x_star", ctx.x_star);
    span.attr("y_star", ctx.y_star);
    span.attr("b", ctx.b);
    reg->counter("graphene_protocol_errors_total", {{"stage", stage}}).inc();
    obs::record(reg, obs::FlightEventKind::kError, stage,
                {{"have_block_msg", ctx.have_block_msg ? 1.0 : 0.0},
                 {"n", static_cast<double>(ctx.n)},
                 {"m", static_cast<double>(ctx.m)},
                 {"z", static_cast<double>(ctx.z)},
                 {"x_star", static_cast<double>(ctx.x_star)},
                 {"y_star", static_cast<double>(ctx.y_star)},
                 {"b", static_cast<double>(ctx.b)}});
  }
  dump_failure("protocol_error", stage);
  throw ProtocolError(stage, what, ctx);
}

void ReceiveSession::dump_failure(const char* kind, const char* stage) const {
  if (obs::Registry* reg = obs::enabled(cfg_.obs); reg != nullptr && capture_enabled()) {
    ForensicCapture cap = make_capture(kind, stage, *mempool_, cfg_, msg_.shortid_salt);
    cap.has_error = true;
    cap.error = error_context();
    if (maybe_dump_capture(cap).has_value()) {
      reg->counter("graphene_captures_total", {{"kind", kind}}).inc();
    }
  }
}

GrapheneRequestMsg ReceiveSession::build_request() {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  if (!have_block_msg_) {
    raise("build_request", "no block message received");
  }
  const std::uint64_t z = client_.candidates().size();
  Protocol2Params params2;
  {
    // Theorem-2/3 bound computation plus the b-optimization of §3.3.2.
    obs::ScopedSpan span(reg, "thm_bounds");
    double f_s = 0;
    params2 = client_.size_request(mempool_->size(), msg_.n, msg_.filter_s, f_s);
    span.attr("z", z);
    span.attr("m", mempool_->size());
    span.attr("n", msg_.n);
    span.attr("f_s", f_s);
    span.attr("x_star", params2.x_star);
    span.attr("y_star", params2.y_star);
    span.attr("b", params2.b);
    span.attr("fpr_r", params2.fpr);
    span.attr("reversed", params2.reversed ? 1 : 0);
  }

  GrapheneRequestMsg req;
  req.z = z;
  req.b = params2.b;
  req.y_star = params2.y_star;
  req.fpr_r = params2.fpr;
  req.reversed = params2.reversed;
  {
    obs::ScopedSpan span(reg, "rfilter_build");
    req.filter_r = client_.build_r();
    span.attr("items", z);
    span.attr("bits", req.filter_r.bit_count());
  }
  if (reg != nullptr) {
    reg->histogram("graphene_bloom_r_bytes").observe(req.filter_r.serialized_size());
  }
  obs::record_msg(reg, obs::FlightEventKind::kMsgSent, "grreq", req,
                  {{"z", static_cast<double>(z)},
                   {"b", static_cast<double>(params2.b)},
                   {"x_star", static_cast<double>(params2.x_star)},
                   {"y_star", static_cast<double>(params2.y_star)},
                   {"fpr_r", params2.fpr},
                   {"reversed", params2.reversed ? 1.0 : 0.0},
                   {"bloom_bytes", static_cast<double>(req.filter_r.serialized_size())}});
  return req;
}

ReceiveOutcome ReceiveSession::complete(const GrapheneResponseMsg& resp) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  ReceiveOutcome out;
  if (!have_block_msg_) return out;  // kFailed: nothing to complete
  obs::ScopedSpan p2_span(reg, "p2_peel");
  p2_span.attr("missing", resp.missing.size());

  obs::record_msg(reg, obs::FlightEventKind::kMsgReceived, "grresp", resp,
                  {{"missing", static_cast<double>(resp.missing.size())},
                   {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
                   {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
                   {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
                   {"has_filter_f", resp.filter_f.has_value() ? 1.0 : 0.0}});
  std::uint64_t pingpong_rounds = 0;
  // Every exit routes through here so the decode outcome — the thing a
  // forensic replay must reproduce — always lands in the flight log.
  const auto finish = [&](ReceiveOutcome o) {
    obs::record(reg, obs::FlightEventKind::kDecode, "p2",
                {{"status", static_cast<double>(static_cast<int>(o.status))},
                 {"used_pingpong", o.used_pingpong ? 1.0 : 0.0},
                 {"pingpong_rounds", static_cast<double>(pingpong_rounds)},
                 {"unresolved", static_cast<double>(o.unresolved.size())}});
    if (o.status == ReceiveStatus::kNeedsRepair) {
      obs::record(reg, obs::FlightEventKind::kNote, "repair_trigger",
                  {{"unresolved", static_cast<double>(o.unresolved.size())}});
    }
    if (o.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p2_peel");
    return o;
  };

  // In the reversed (m ≈ n) path, filter F prunes candidates the sender's
  // block does not contain before the new transactions are added.
  client_.prune(resp.filter_f);
  // Step 5: fold in the directly-sent transactions.
  for (const chain::Transaction& tx : resp.missing) receive_tx(tx);

  // J′ over the updated candidate set; then J ⊖ J′.
  const iblt::DecodeResult& dec = client_.peel_correction(resp.iblt_j);
  p2_span.attr("j_cells", resp.iblt_j.cell_count());
  p2_span.attr("peel_iterations", dec.peel_iterations);
  p2_span.attr("peeled", dec.peeled());
  p2_span.attr("residual_cells", dec.residual_cells);
  p2_span.attr("success", dec.success ? 1 : 0);
  if (reg != nullptr) {
    reg->histogram("graphene_peel_iterations", {{"iblt", "j"}})
        .observe(dec.peel_iterations);
  }

  bool used_pingpong = false;
  if (client_.wants_pingpong()) {
    // Ping-pong (§4.2): decode J ⊖ J′ jointly with I ⊖ I′.
    obs::ScopedSpan pp_span(reg, "pingpong");
    const iblt::PingPongResult pp = client_.pingpong(msg_.iblt_i);
    pingpong_rounds = pp.rounds;
    used_pingpong = !pp.malformed;
    pp_span.attr("rounds", pp.rounds);
    pp_span.attr("success", pp.success ? 1 : 0);
    pp_span.attr("malformed", pp.malformed ? 1 : 0);
    if (reg != nullptr) {
      reg->histogram("graphene_pingpong_rounds").observe(pp.rounds);
      reg->counter("graphene_pingpong_total",
                   {{"result", pp.success ? "rescued" : "failed"}})
          .inc();
    }
  }
  if (client_.resolve_correction() == GrapheneClient::Step::kFailed) {
    out.status = ReceiveStatus::kFailed;
    out.used_pingpong = used_pingpong;
    return finish(std::move(out));
  }

  out = finalize(used_pingpong);
  if (reg != nullptr) {
    reg->counter("graphene_p2_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  return finish(std::move(out));
}

RepairRequestMsg ReceiveSession::build_repair() const {
  RepairRequestMsg req;
  req.short_ids = client_.unresolved();
  obs::record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "getblocktxn", req,
                  {{"short_ids", static_cast<double>(req.short_ids.size())}});
  return req;
}

ReceiveOutcome ReceiveSession::complete_repair(const RepairResponseMsg& resp) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan span(reg, "repair");
  span.attr("requested", client_.unresolved().size());
  span.attr("received", resp.txns.size());
  obs::record_msg(reg, obs::FlightEventKind::kMsgReceived, "blocktxn", resp,
                  {{"requested", static_cast<double>(client_.unresolved().size())},
                   {"txns", static_cast<double>(resp.txns.size())}});
  for (const chain::Transaction& tx : resp.txns) receive_tx(tx);
  client_.clear_unresolved();
  const ReceiveOutcome out = finalize(/*used_pingpong=*/false);
  span.attr("decoded", out.status == ReceiveStatus::kDecoded ? 1 : 0);
  obs::record(reg, obs::FlightEventKind::kDecode, "repair",
              {{"status", static_cast<double>(static_cast<int>(out.status))},
               {"merkle_ok", out.merkle_ok ? 1.0 : 0.0}});
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "repair");
  return out;
}

ReceiveOutcome ReceiveSession::finalize(bool used_pingpong) {
  ReceiveOutcome out;
  out.used_pingpong = used_pingpong;
  if (!client_.unresolved().empty()) {
    out.unresolved = client_.unresolved();
    out.status = ReceiveStatus::kNeedsRepair;
    return out;
  }

  const DigestSet& candidates = client_.candidates();
  std::vector<chain::TxId> ids(candidates.begin(), candidates.end());
  std::sort(ids.begin(), ids.end());
  out.merkle_ok =
      ids.size() == msg_.n && chain::merkle_root(ids) == msg_.header.merkle_root;
  if (out.merkle_ok) {
    out.block_ids = std::move(ids);
    out.status = ReceiveStatus::kDecoded;
  } else {
    out.status = ReceiveStatus::kFailed;
  }
  return out;
}

std::vector<chain::Transaction> ReceiveSession::block_transactions() const {
  std::vector<chain::Transaction> out;
  out.reserve(client_.candidates().size());
  for (const chain::TxId& id : client_.candidates()) {
    if (const auto tx = mempool_->get(id)) {
      out.push_back(*tx);
    } else if (const auto it = received_txns_.find(id); it != received_txns_.end()) {
      out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end(), chain::CtorLess{});
  return out;
}

}  // namespace graphene::core
