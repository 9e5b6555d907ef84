// In-process replay of the daemon_* sessions, for the traced run's
// reconcile and net layers.
//
// The daemon runs in another process, so its layers cannot be timed from
// benchmark code there. This replays the same sessions (same seeded host
// and client sets, same backend) through the calls a PeerSession and a
// ClientSession make: the hello/bye control frames, the reconcile host and
// client backends, and the net framing of every message. Host salts follow
// a seeded sequence, not the daemon's per-connection salts.
//
// Sessions alternate between traced and untraced so the tracing overhead is
// the difference of their medians. Every completed outcome's host_set must
// equal the host set; a session that does not complete is a failed op.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "daemon/wire.hpp"
#include "iblt/param_cache.hpp"
#include "net/frame.hpp"
#include "reconcile/backend.hpp"
#include "relayd_set.hpp"

namespace perfbench {
namespace {

using namespace graphene;

/// The framing path of one message: sender-side envelope, receiver-side
/// incremental reader.
net::Message frame_hop(Spans& spans, const net::Message& msg, std::uint64_t& frames) {
  const Spans::Scope s(spans, "net.frame");
  util::Bytes wire;
  net::encode_frame_into(wire, msg);
  net::FrameReader reader;
  reader.absorb(util::ByteView(wire));
  std::optional<net::Message> out = reader.next();
  if (!out) throw std::runtime_error("replay: frame did not decode");
  ++frames;
  return std::move(*out);
}

struct SessionResult {
  reconcile::Outcome outcome;
  bool used_request = false;
  std::uint64_t frames = 0;
};

SessionResult replay_session(const reconcile::ItemSet& host_items,
                             const reconcile::ItemSet& client_items,
                             const core::ProtocolConfig& cfg, std::uint64_t salt,
                             Spans& spans) {
  SessionResult r;
  const Spans::Scope op(spans, "session");
  net::Message hello_msg;
  {
    const Spans::Scope s(spans, "net.serialize");
    daemon::HelloMsg hello;
    hello.backend = cfg.reconcile_backend == core::ReconcileBackend::kRatelessIblt ? 1 : 0;
    hello.item_count = client_items.size();
    hello_msg = {net::MessageType::kDaemonHello, hello.serialize()};
  }
  hello_msg = frame_hop(spans, hello_msg, r.frames);
  daemon::HelloMsg hello;
  {
    const Spans::Scope s(spans, "net.parse");
    util::ByteReader reader(util::ByteView(hello_msg.payload));
    hello = daemon::HelloMsg::deserialize(reader);
  }

  std::unique_ptr<reconcile::HostBackend> host;
  reconcile::WireMsg wire;
  {
    const Spans::Scope s(spans, "reconcile.host_open");
    host = reconcile::make_host_backend(host_items, salt, cfg);
    wire = host->open(hello.item_count);
  }
  std::unique_ptr<reconcile::ClientBackend> client;
  {
    const Spans::Scope s(spans, "reconcile.client");
    client = reconcile::make_client_backend(client_items, cfg);
  }
  reconcile::Outcome& outcome = r.outcome;
  std::uint32_t rounds = 0;
  for (;;) {
    const net::Message down = frame_hop(spans, wire.to_message(), r.frames);
    reconcile::WireMsg request;
    {
      const Spans::Scope s(spans, "reconcile.client");
      outcome = client->absorb_wire({down.type, down.payload});
      if (!reconcile::needs_more(outcome.status) || ++rounds > cfg.reconcile_round_cap) {
        break;
      }
      request = client->next_request();
    }
    r.used_request = true;
    const net::Message up = frame_hop(spans, request.to_message(), r.frames);
    const Spans::Scope s(spans, "reconcile.host_serve");
    wire = host->serve_wire({up.type, up.payload});
  }
  net::Message bye_msg;
  {
    const Spans::Scope s(spans, "net.serialize");
    daemon::ByeMsg bye;
    bye.ok = outcome.status == reconcile::Outcome::Status::kComplete ? 1 : 0;
    bye.rounds = rounds;
    bye_msg = {net::MessageType::kDaemonBye, bye.serialize()};
  }
  bye_msg = frame_hop(spans, bye_msg, r.frames);
  const Spans::Scope s(spans, "net.parse");
  util::ByteReader reader(util::ByteView(bye_msg.payload));
  (void)daemon::ByeMsg::deserialize(reader);
  return r;
}

}  // namespace

int run_replay(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t sessions = std::max<std::uint64_t>(2, args.u64("sessions", 1000));
  const std::string trace_path = args.str("trace-out", "");
  const reconcile::ItemSet host_items = tools::host_set(seed, kSetItems);
  const reconcile::ItemSet client_items = tools::client_set(seed, kSetItems, kDiffEachWay);
  iblt::ParamCache cache;
  core::ProtocolConfig cfg;
  cfg.param_cache = &cache;
  cfg.reconcile_backend = parse_backend(args.str("backend", "graphene"));

  Spans spans;
  Spans off;
  // Warm the parameter cache, as the daemon's set-up does.
  for (std::uint64_t i = 0; i < 16; ++i) {
    (void)replay_session(host_items, client_items, cfg, util::mix64(~i), off);
  }

  util::Rng salts(util::mix64(seed ^ 0x73616c74ULL));
  std::vector<std::uint64_t> lat_traced;
  std::vector<std::uint64_t> lat_plain;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t frames = 0;
  std::uint64_t symbols = 0;
  std::uint64_t with_request = 0;
  std::uint64_t salt = 0;
  for (std::uint64_t i = 0; i < sessions; ++i) {
    // Pairs of sessions share a salt; which of the pair is traced alternates.
    if (i % 2 == 0) salt = salts.next();
    const bool traced = (i % 2) == ((i / 2) % 2);
    spans.enabled = traced;
    spans.begin_op(i);
    const std::uint64_t t0 = now_ns();
    const SessionResult r =
        replay_session(host_items, client_items, cfg, salt, traced ? spans : off);
    (traced ? lat_traced : lat_plain).push_back(now_ns() - t0);
    if (r.outcome.status != reconcile::Outcome::Status::kComplete) {
      ++failed;
    } else if (r.outcome.host_set != host_items) {
      ++wrong;
    }
    if (!traced) continue;
    frames += r.frames;
    symbols += r.outcome.symbols_consumed;
    with_request += r.used_request ? 1 : 0;
  }
  std::sort(lat_traced.begin(), lat_traced.end());
  std::sort(lat_plain.begin(), lat_plain.end());
  const std::uint64_t n = lat_traced.size();
  const std::uint64_t session_ns = spans.total_ns("session");
  JsonLine()
      .count("attempted", sessions)
      .count("failed", failed)
      .count("wrong", wrong)
      .num("reconcile.host_open_ms", ms_per(spans.total_ns("reconcile.host_open"), n))
      .num("reconcile.host_serve_ms", ms_per(spans.total_ns("reconcile.host_serve"), n))
      .num("reconcile.client_ms", ms_per(spans.total_ns("reconcile.client"), n))
      .num("reconcile.messages_per_op", static_cast<double>(frames) / static_cast<double>(n))
      .num("reconcile.symbols_per_op", static_cast<double>(symbols) / static_cast<double>(n))
      .num("reconcile.request_round_share",
           static_cast<double>(with_request) / static_cast<double>(n))
      .count("reconcile.sessions", n)
      .num("net.serialize_ms", ms_per(spans.total_ns("net.serialize"), n))
      .num("net.parse_ms", ms_per(spans.total_ns("net.parse"), n))
      .num("net.frame_ms", ms_per(spans.total_ns("net.frame"), n))
      .num("ledger.coverage",
           session_ns == 0 ? 0.0
                           : static_cast<double>(spans.child_ns("session", "")) /
                                 static_cast<double>(session_ns))
      .num("replay.latency_p50_ms", static_cast<double>(quantile(lat_plain, 0.50)) / 1e6)
      .num("trace.overhead_ms", (static_cast<double>(quantile(lat_traced, 0.50)) -
                                 static_cast<double>(quantile(lat_plain, 0.50))) /
                                    1e6)
      .print();
  if (!trace_path.empty() && !spans.write_jsonl(trace_path)) {
    std::fprintf(stderr, "replay: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
