#include "graphene/sender.hpp"

#include "graphene/errors.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace graphene::core {

std::uint64_t derive_short_id(const chain::TxId& id, std::uint64_t salt,
                              const ProtocolConfig& cfg) noexcept {
  return short_id(id, salt, kBlockRelayFormat, cfg.keyed_short_ids);
}

Sender::Sender(chain::Block block, std::uint64_t salt, ProtocolConfig cfg)
    : block_(std::move(block)),
      cfg_(cfg),
      host_(block_.tx_ids(), salt, kBlockRelayFormat, cfg_) {}

EncodeResult Sender::encode(std::uint64_t receiver_mempool_count) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  const std::uint64_t n = block_.tx_count();
  const std::uint64_t m = std::max(receiver_mempool_count, n);
  EncodeResult out;
  {
    obs::ScopedSpan span(reg, "p1_optimize");
    out.params = host_.size_offer(receiver_mempool_count);
    span.attr("n", n);
    span.attr("m", m);
    span.attr("a", out.params.a);
    span.attr("a_star", out.params.a_star);
    span.attr("fpr_s", out.params.fpr);
    span.attr("bloom_bytes", out.params.bloom_bytes);
    span.attr("iblt_bytes", out.params.iblt_bytes);
  }

  GrapheneBlockMsg& msg = out.msg;
  msg.header = block_.header();
  msg.n = n;
  msg.shortid_salt = host_.salt();

  // The filter and IBLT builds are independent, so with a pool they run as
  // two concurrent tasks (telemetry is thread-safe). With cfg_.pool null,
  // parallel_for degrades to an in-order loop on the caller, preserving the
  // serial span sequence the telemetry contract tests pin down.
  util::parallel_for(cfg_.pool, 2, [&](std::uint64_t task) {
    if (task == 0) {
      obs::ScopedSpan span(reg, "sfilter_build");
      msg.filter_s = host_.build_s(out.params);
      span.attr("items", n);
      span.attr("bits", msg.filter_s.bit_count());
      span.attr("hashes", msg.filter_s.hash_count());
      span.attr("target_fpr", msg.filter_s.target_fpr());
    } else {
      obs::ScopedSpan span(reg, "iblt_build");
      msg.iblt_i = host_.build_i(out.params);
      span.attr("items", n);
      span.attr("cells", msg.iblt_i.cell_count());
      span.attr("k", msg.iblt_i.hash_count());
    }
  });

  if (reg != nullptr) {
    reg->counter("graphene_encode_total").inc();
    reg->histogram("graphene_bloom_s_bytes").observe(msg.filter_s.serialized_size());
    reg->histogram("graphene_iblt_i_bytes").observe(msg.iblt_i.serialized_size());
  }
  obs::record_msg(reg, obs::FlightEventKind::kMsgSent, "grblk", msg,
                  {{"n", static_cast<double>(n)},
                   {"m", static_cast<double>(m)},
                   {"a", static_cast<double>(out.params.a)},
                   {"a_star", static_cast<double>(out.params.a_star)},
                   {"fpr_s", out.params.fpr},
                   {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
                   {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
                   {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}});
  return out;
}

GrapheneResponseMsg Sender::serve(const GrapheneRequestMsg& request) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan serve_span(reg, "p2_serve");
  const P2Request req{request.z,     request.b,        request.y_star,
                      request.fpr_r, request.reversed, &request.filter_r};
  try {
    host_.check(req);
  } catch (const ProtocolError& e) {
    record_rejection(reg, e);
    throw;
  }

  // Step 3: transactions that do not pass R are certainly missing at the
  // receiver; send them in full, in block order.
  GrapheneHost::Served served = host_.partition(req);
  GrapheneResponseMsg resp;
  resp.missing.reserve(served.missing.size());
  for (const std::size_t i : served.missing) resp.missing.push_back(block_.transactions()[i]);

  if (request.reversed) {
    obs::ScopedSpan fb_span(reg, "p2_fallback");
    host_.reverse(req, served);
    fb_span.attr("z_s", served.passed.size());
    fb_span.attr("x_s", served.x_s);
    fb_span.attr("y_s", served.y_s);
    fb_span.attr("b", served.b_f);
    fb_span.attr("fpr_f", served.fpr_f);
  }
  host_.build_j(served);
  resp.iblt_j = std::move(served.iblt_j);
  resp.filter_f = std::move(served.filter_f);

  serve_span.attr("n", block_.tx_count());
  serve_span.attr("z", request.z);
  serve_span.attr("passed", served.passed.size());
  serve_span.attr("missing", resp.missing.size());
  serve_span.attr("j_items", served.j_items);
  serve_span.attr("j_cells", resp.iblt_j.cell_count());
  serve_span.attr("reversed", request.reversed ? 1 : 0);
  if (reg != nullptr) {
    reg->counter("graphene_p2_serve_total").inc();
    reg->histogram("graphene_missing_txns").observe(resp.missing.size());
    reg->histogram("graphene_iblt_j_bytes").observe(resp.iblt_j.serialized_size());
  }
  obs::record_msg(reg, obs::FlightEventKind::kMsgSent, "grresp", resp,
                  {{"missing", static_cast<double>(resp.missing.size())},
                   {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
                   {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
                   {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
                   {"reversed", request.reversed ? 1.0 : 0.0}});
  return resp;
}

RepairResponseMsg Sender::serve_repair(const RepairRequestMsg& request) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan span(reg, "repair_serve");
  RepairResponseMsg resp;
  const std::vector<std::size_t> found = host_.fetch(request.short_ids);
  resp.txns.reserve(found.size());
  for (const std::size_t i : found) resp.txns.push_back(block_.transactions()[i]);
  span.attr("requested", request.short_ids.size());
  span.attr("served", resp.txns.size());
  obs::record_msg(reg, obs::FlightEventKind::kMsgSent, "blocktxn", resp,
                  {{"requested", static_cast<double>(request.short_ids.size())},
                   {"served", static_cast<double>(resp.txns.size())}});
  return resp;
}

}  // namespace graphene::core
