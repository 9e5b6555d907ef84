// block_relay workload: in-process Graphene block relay, one relay at a
// time on one thread (closed loop).
//
// A deck of kDeck scenarios is built from the seed with chain::make_scenario:
// 2000-transaction blocks against a receiver mempool of the held part of the
// block plus 5n unrelated transactions. Odd deck entries (4 of 9) are fully
// held (Protocol 1), even ones (5 of 9) 90% held (Protocol 2 plus repair).
// The two kinds of relay take different times; with an exact half of each,
// the median would sit on the boundary between the two groups and jump from
// run to run, so the split is 4:5 and the median falls inside the Protocol 2
// group. A run is kBatches batches. Each batch sets up afresh (builds the
// deck and warms it) and then relays the deck a fixed number of passes, so
// byte and round-trip counts repeat exactly for a seed, and the set-ups are
// spread over the run like the timed relays. Every message is serialized
// and parsed back, as a peer would receive it.
//
// Traced runs (--trace 1) relay each deck entry twice per pass, once with
// spans and once without, and after each traced relay time the bloom, iblt
// and chain layers by repeating the receiver's Protocol 1 scan, IBLT build
// and peel, and the Merkle check through those modules' public functions.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "bloom/bloom_filter.hpp"
#include "chain/merkle.hpp"
#include "chain/workload.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "iblt/param_cache.hpp"
#include "net/message.hpp"

namespace perfbench {
namespace {

using namespace graphene;

constexpr std::uint64_t kBlockTxns = 2000;
constexpr std::uint64_t kExtraTxns = 5 * kBlockTxns;
constexpr double kPartialHeld = 0.9;
constexpr std::size_t kDeck = 9;
/// Relays per second of run time the pass count is sized for (4-core x86
/// reference box); a run measures about --seconds there.
constexpr double kNominalRelaysPerSec = 140;
/// Batches per run: each is one set-up and one latency window (342 relays,
/// ~2.5 s, at --seconds 25; p95 keeps >= 10 samples beyond it from
/// --seconds 15 up).
constexpr std::uint64_t kBatches = 10;

struct Relay {
  chain::Scenario scenario;
  std::uint64_t salt = 0;
  std::vector<chain::TxId> block_ids;               ///< in block order
  std::unordered_set<chain::TxId, chain::TxIdHasher> in_block;
};

struct Deck {
  std::vector<Relay> relays;
  iblt::ParamCache cache;
};

struct RelayResult {
  bool ok = false;
  bool p1_decoded = false;
  bool repaired = false;
  std::uint64_t wire_bytes = 0;
  std::uint32_t round_trips = 0;
  core::GrapheneBlockMsg block_msg;   ///< as the receiver parsed it
  std::vector<chain::TxId> decoded;   ///< receiver's block ids
};

/// Ships one message to the peer: serialize, then parse from the bytes. The
/// wire count adds the 24-byte envelope a TCP peer would frame it in;
/// framing itself is the daemon workloads' business.
template <typename Msg>
Msg ship(Spans& spans, const Msg& msg, std::uint64_t& wire_bytes) {
  util::Bytes payload;
  {
    const Spans::Scope s(spans, "net.serialize");
    payload = msg.serialize();
  }
  wire_bytes += payload.size() + net::kEnvelopeBytes;
  const Spans::Scope s(spans, "net.parse");
  util::ByteReader reader{util::ByteView(payload)};
  Msg parsed = Msg::deserialize(reader);
  if (!reader.done()) throw std::runtime_error("block_relay: trailing payload bytes");
  return parsed;
}

/// One relay of `relay.scenario.block`, sender to receiver, Protocol 1 then
/// Protocol 2 and the repair round as needed. `block` is the sender's copy,
/// moved in (a node hands its block to the sender without copying).
RelayResult relay_once(const Relay& relay, chain::Block block,
                       const core::ProtocolConfig& cfg, Spans& spans) {
  RelayResult r;
  const Spans::Scope op(spans, "relay");
  std::optional<core::Sender> sender;
  {
    const Spans::Scope s(spans, "graphene.sender_init");
    sender.emplace(std::move(block), relay.salt, cfg);
  }
  core::GrapheneBlockMsg sent;
  {
    const Spans::Scope s(spans, "graphene.encode");
    sent = sender->encode(relay.scenario.m).msg;
  }
  r.block_msg = ship(spans, sent, r.wire_bytes);
  r.round_trips = 1;

  core::ReceiveSession session(relay.scenario.receiver_mempool, cfg);
  core::ReceiveOutcome out;
  {
    const Spans::Scope s(spans, "graphene.receive_block");
    out = session.receive_block(r.block_msg);
  }
  r.p1_decoded = out.status == core::ReceiveStatus::kDecoded;
  if (out.status == core::ReceiveStatus::kNeedsProtocol2) {
    core::GrapheneRequestMsg req;
    {
      const Spans::Scope s(spans, "graphene.protocol2");
      req = session.build_request();
    }
    req = ship(spans, req, r.wire_bytes);
    core::GrapheneResponseMsg resp;
    {
      const Spans::Scope s(spans, "graphene.protocol2");
      resp = sender->serve(req);
    }
    resp = ship(spans, resp, r.wire_bytes);
    ++r.round_trips;
    const Spans::Scope s(spans, "graphene.protocol2");
    out = session.complete(resp);
  }
  if (out.status == core::ReceiveStatus::kNeedsRepair) {
    r.repaired = true;
    core::RepairRequestMsg req;
    {
      const Spans::Scope s(spans, "graphene.repair");
      req = session.build_repair();
    }
    req = ship(spans, req, r.wire_bytes);
    core::RepairResponseMsg resp;
    {
      const Spans::Scope s(spans, "graphene.repair");
      resp = sender->serve_repair(req);
    }
    resp = ship(spans, resp, r.wire_bytes);
    ++r.round_trips;
    const Spans::Scope s(spans, "graphene.repair");
    out = session.complete_repair(resp);
  }
  r.ok = out.status == core::ReceiveStatus::kDecoded && out.merkle_ok;
  r.decoded = std::move(out.block_ids);
  return r;
}

/// The relay's output check: a relay that reports success (decoded, Merkle
/// root valid) must have decoded exactly the block. A relay that does not
/// report success is a failed op, not a wrong output.
bool output_correct(const Relay& relay, const RelayResult& r) {
  return !r.ok || r.decoded == relay.block_ids;
}

std::unique_ptr<Deck> build_deck(std::uint64_t seed) {
  auto deck = std::make_unique<Deck>();
  util::Rng rng(util::mix64(seed ^ 0x626c6f636bULL));
  deck->relays.reserve(kDeck);
  for (std::size_t i = 0; i < kDeck; ++i) {
    chain::ScenarioSpec spec;
    spec.block_txns = kBlockTxns;
    spec.extra_txns = kExtraTxns;
    spec.block_fraction_in_mempool = i % 2 == 1 ? 1.0 : kPartialHeld;
    Relay relay;
    relay.scenario = chain::make_scenario(spec, rng);
    relay.salt = rng.next();
    for (const chain::Transaction& tx : relay.scenario.block.transactions()) {
      relay.block_ids.push_back(tx.id);
    }
    relay.in_block.insert(relay.block_ids.begin(), relay.block_ids.end());
    deck->relays.push_back(std::move(relay));
  }
  return deck;
}

/// Layer times measured beside a traced relay by repeating the receiver's
/// Protocol 1 work through the bloom, iblt and chain public functions.
struct ShadowTotals {
  std::uint64_t scan_negatives = 0;  ///< mempool ids not in the block
  std::uint64_t false_positives = 0;
  std::uint64_t peel_iterations = 0;
  bool merkle_ok = true;
};

void shadow_layers(const Relay& relay, const RelayResult& r,
                   const core::ProtocolConfig& cfg, Spans& spans, ShadowTotals& totals) {
  const std::vector<chain::TxId> ids = relay.scenario.receiver_mempool.ids();
  std::vector<util::ByteView> views;
  views.reserve(ids.size());
  for (const chain::TxId& id : ids) views.emplace_back(id.data(), id.size());
  std::vector<std::uint8_t> hit(ids.size());
  {
    const Spans::Scope s(spans, "bloom.scan");
    bloom::contains_all(r.block_msg.filter_s, views.data(), views.size(), hit.data());
  }
  std::vector<std::uint64_t> sids;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool member = relay.in_block.count(ids[i]) > 0;
    if (!member) {
      ++totals.scan_negatives;
      if (hit[i] != 0) ++totals.false_positives;
    }
    if (hit[i] != 0) {
      sids.push_back(core::derive_short_id(ids[i], r.block_msg.shortid_salt, cfg));
    }
  }
  const iblt::Iblt& sent = r.block_msg.iblt_i;
  iblt::Iblt mine(iblt::IbltParams{sent.hash_count(), sent.cell_count()}, sent.seed());
  {
    const Spans::Scope s(spans, "iblt.build");
    mine.insert_all(sids);
  }
  {
    const Spans::Scope s(spans, "iblt.decode");
    totals.peel_iterations += sent.subtract(mine).decode().peel_iterations;
  }
  const Spans::Scope s(spans, "chain.merkle");
  totals.merkle_ok = totals.merkle_ok &&
                     chain::merkle_root(r.decoded) ==
                         relay.scenario.block.header().merkle_root;
}

}  // namespace

int run_block_relay(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t seconds = std::max<std::uint64_t>(1, args.u64("seconds", 10));
  const bool trace = args.u64("trace", 0) != 0;
  const std::string trace_path = args.str("trace-out", "");

  const auto passes = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(seconds) * kNominalRelaysPerSec /
                                    static_cast<double>(kDeck * kBatches) /
                                    (trace ? 2.0 : 1.0)));
  const std::uint64_t copies = trace ? 2 : 1;  // traced + untraced per entry

  std::vector<double> setup_s;
  bool correct = true;
  Spans off;  // a disabled recorder for untraced relays
  Spans spans;
  ShadowTotals shadow;
  std::vector<std::uint64_t> lat_all;
  std::vector<std::uint64_t> lat_traced;
  std::vector<std::uint64_t> lat_plain;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t p1_decoded = 0;
  std::uint64_t repaired = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t cpu_ns = 0;
  for (std::uint64_t batch = 0; batch < kBatches; ++batch) {
    // Set-up: generate the deck, then relay each block once, which fills
    // the parameter cache; also check each header commits to its
    // transactions.
    const std::uint64_t setup0 = now_ns();
    const std::unique_ptr<Deck> deck = build_deck(seed);
    core::ProtocolConfig cfg;
    cfg.param_cache = &deck->cache;
    for (const Relay& relay : deck->relays) {
      const RelayResult r = relay_once(relay, relay.scenario.block, cfg, off);
      correct = correct && output_correct(relay, r) &&
                chain::merkle_root(relay.block_ids) ==
                    relay.scenario.block.header().merkle_root;
    }
    setup_s.push_back(static_cast<double>(now_ns() - setup0) / 1e9);

    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      for (std::size_t d = 0; d < kDeck; ++d) {
        const Relay& relay = deck->relays[d];
        for (std::uint64_t c = 0; c < copies; ++c) {
          // Alternate which copy runs first so neither gets the warmer cache.
          const bool traced = trace && (c == (pass + d) % 2);
          spans.enabled = traced;
          spans.begin_op(ops);
          chain::Block block = relay.scenario.block;
          const std::uint64_t cpu0 = process_cpu_ns();
          const std::uint64_t t0 = now_ns();
          RelayResult r = relay_once(relay, std::move(block), cfg, traced ? spans : off);
          const std::uint64_t dt = now_ns() - t0;
          cpu_ns += process_cpu_ns() - cpu0;
          busy_ns += dt;
          lat_all.push_back(dt);
          ++ops;
          (traced ? lat_traced : lat_plain).push_back(dt);
          wire_bytes += r.wire_bytes;
          round_trips += r.round_trips;
          p1_decoded += r.p1_decoded ? 1 : 0;
          repaired += r.repaired ? 1 : 0;
          if (!r.ok) ++failed;
          correct = correct && output_correct(relay, r);
          if (traced && r.ok) shadow_layers(relay, r, cfg, spans, shadow);
        }
      }
    }
  }
  std::sort(lat_traced.begin(), lat_traced.end());
  std::sort(lat_plain.begin(), lat_plain.end());
  correct = correct && shadow.merkle_ok;

  JsonLine out;
  out.flag("correct", correct).count("attempted", ops).count("failed", failed);
  if (!trace) {
    const std::size_t batch_ops = lat_all.size() / kBatches;  // one latency window each
    out.num("setup_s", median(setup_s))
        .num("ops_per_s", static_cast<double>(ops) * 1e9 / static_cast<double>(busy_ns))
        .num("latency_p50_ms", windowed_quantile(lat_all, batch_ops, 0.50) / 1e6)
        .num("latency_p95_ms", windowed_quantile(lat_all, batch_ops, 0.95) / 1e6)
        .num("cpu_ms_per_op", ms_per(cpu_ns, ops))
        .num("wire_bytes_per_op", static_cast<double>(wire_bytes) / static_cast<double>(ops))
        .num("round_trips_per_op",
             static_cast<double>(round_trips) / static_cast<double>(ops))
        .num("peak_rss_mb", self_usage().maxrss_mb);
  } else {
    const std::uint64_t traced_ops = lat_traced.size();
    const std::uint64_t relay_ns = spans.total_ns("relay");
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
      return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
    };
    out.num("graphene.sender_init_ms",
            ms_per(spans.total_ns("graphene.sender_init"), traced_ops))
        .num("graphene.encode_ms", ms_per(spans.total_ns("graphene.encode"), traced_ops))
        .num("graphene.receive_block_ms",
             ms_per(spans.total_ns("graphene.receive_block"), traced_ops))
        .num("graphene.protocol2_ms", ms_per(spans.total_ns("graphene.protocol2"), traced_ops))
        .num("graphene.repair_ms", ms_per(spans.total_ns("graphene.repair"), traced_ops))
        .num("graphene.p1_decoded_share", share(p1_decoded, ops))
        .num("graphene.repair_share", share(repaired, ops))
        .count("graphene.relays", ops)
        .num("chain.merkle_ms", ms_per(spans.total_ns("chain.merkle"), traced_ops))
        .num("bloom.scan_ms", ms_per(spans.total_ns("bloom.scan"), traced_ops))
        .num("bloom.false_positive_share",
             share(shadow.false_positives, shadow.scan_negatives))
        .count("bloom.scan_negatives", shadow.scan_negatives)
        .num("iblt.build_ms", ms_per(spans.total_ns("iblt.build"), traced_ops))
        .num("iblt.decode_ms", ms_per(spans.total_ns("iblt.decode"), traced_ops))
        .num("iblt.peel_iterations",
             share(shadow.peel_iterations, traced_ops))
        .num("net.serialize_ms", ms_per(spans.total_ns("net.serialize"), traced_ops))
        .num("net.parse_ms", ms_per(spans.total_ns("net.parse"), traced_ops))
        .num("net.frame_ms", ms_per(spans.total_ns("net.frame"), traced_ops))
        .num("ledger.coverage", share(spans.child_ns("relay", ""), relay_ns))
        .num("ledger.graphene_coverage", share(spans.child_ns("relay", "graphene."), relay_ns))
        .num("trace.overhead_ms", (static_cast<double>(quantile(lat_traced, 0.50)) -
                                   static_cast<double>(quantile(lat_plain, 0.50))) /
                                      1e6);
    if (!trace_path.empty() && !spans.write_jsonl(trace_path)) {
      std::fprintf(stderr, "block_relay: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  out.print();
  return 0;
}

}  // namespace perfbench
