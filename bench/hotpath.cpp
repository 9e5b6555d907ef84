// Data-plane hot-path timing: the receiver's mempool filter pass and the
// IBLT build/subtract/decode pipeline, at mempool scales m ∈ {10k, 100k, 1M}.
//
// Four Bloom variants per scale:
//   seed scalar  — a faithful replica of the pre-batch implementation
//                  (per-item probe_positions with hardware `%`, one query at
//                  a time), embedded here so the baseline can't drift;
//   lib scalar   — today's BloomFilter::contains in a loop;
//   batch        — contains_batch (tiled, prefetched, split-digest layout);
//   blocked      — contains_batch over the cache-line-blocked layout.
// And two IBLT builds: seed-replica scalar insert (per-probe seed mix and
// hardware `%`) and insert_batch, plus subtract and decode of a realistic
// difference.
//
// A rateless section times one reconcile session's coded-symbol work — the
// host's 500-item, 128-symbol encode and the client's decode of an
// 80-element difference — item-major library against a seed replica of the
// heap-scheduled encoder and decoder, per session and per difference
// element (the unit arXiv 2402.02668 reports).
//
// Every variant's results are cross-checked (hit counts per strategy, cell
// bytes across build paths, coded symbols and decoder results across
// rateless paths) and the process exits nonzero on any divergence, so CI
// smoke runs double as a parity gate.
// Writes BENCH_hotpath.json (overwritten each run); GRAPHENE_FAST=1 drops
// the 1M scale for smoke runs.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_math.hpp"
#include "chain/transaction.hpp"
#include "iblt/coded_symbol.hpp"
#include "iblt/iblt.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace {

using namespace graphene;

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1e6;
}

/// Best-of-N wall time for `fn` (returns a checksum to keep work observable).
template <typename Fn>
double best_ms(int reps, std::uint64_t* checksum, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t start = obs::monotonic_ns();
    *checksum = fn();
    const double ms = ms_since(start);
    if (ms < best) best = ms;
  }
  return best;
}

// --- Seed-replica scalar Bloom filter -------------------------------------
// The exact pre-optimization inner loop: enhanced double hashing over the
// digest words with three hardware modulos per query plus one per extra
// probe, scattered single-bit loads, no tiling, no prefetch.
struct SeedBloom {
  std::uint64_t n_bits = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> bits;

  SeedBloom(std::uint64_t items, double fpr, std::uint64_t s) : seed(s) {
    n_bits = bloom::optimal_bits(items, fpr);
    k = bloom::optimal_hash_count(n_bits, items == 0 ? 1 : items);
    bits.assign((n_bits + 63) / 64, 0);
  }

  // The seed's util::split_digest_words was an out-of-line byte loop;
  // keep that exact cost in the baseline.
  static std::array<std::uint64_t, 4> split_bytewise(util::ByteView digest) {
    std::array<std::uint64_t, 4> words{};
    const std::size_t n = digest.size() < 32 ? digest.size() : 32;
    for (std::size_t i = 0; i < n; ++i) {
      words[i / 8] |= static_cast<std::uint64_t>(digest[i]) << (8 * (i % 8));
    }
    return words;
  }

  void probe(util::ByteView id, std::uint64_t* out) const {
    const auto words = split_bytewise(id);
    std::uint64_t x = (words[0] ^ util::mix64(seed)) % n_bits;
    std::uint64_t y = (words[1] ^ words[2]) % n_bits;
    for (std::uint32_t i = 0; i < k; ++i) {
      out[i] = x;
      x = (x + y) % n_bits;
      y = (y + i + 1) % n_bits;
    }
  }

  void insert(util::ByteView id) {
    std::uint64_t pos[64];
    probe(id, pos);
    for (std::uint32_t i = 0; i < k; ++i) bits[pos[i] / 64] |= 1ULL << (pos[i] % 64);
  }

  [[nodiscard]] bool contains(util::ByteView id) const {
    std::uint64_t pos[64];
    probe(id, pos);
    for (std::uint32_t i = 0; i < k; ++i) {
      if ((bits[pos[i] / 64] & (1ULL << (pos[i] % 64))) == 0) return false;
    }
    return true;
  }
};

// --- Seed-replica scalar IBLT insert --------------------------------------
// Per-probe `mix64(seed + C·(i+1))` recomputation and a hardware `% stride`,
// exactly as the pre-batch Iblt::update computed positions.
struct SeedIblt {
  /// The seed's cell layout: count first, so padding holes inflate it to 24
  /// bytes — part of what the packed library layout buys back.
  struct Cell {
    std::int32_t count = 0;
    std::uint64_t key_sum = 0;
    std::uint32_t check_sum = 0;
  };

  std::uint32_t k;
  std::uint64_t seed;
  std::vector<Cell> cells;

  SeedIblt(std::uint32_t k_in, std::uint64_t cell_count, std::uint64_t s)
      : k(k_in), seed(s), cells(((cell_count + k_in - 1) / k_in) * k_in) {}

  void insert(std::uint64_t key) {
    const std::uint64_t stride = cells.size() / k;
    const auto check =
        static_cast<std::uint32_t>(util::mix64(key ^ 0xc0ffee3141592653ULL ^ seed));
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t h =
          util::mix64(key ^ util::mix64(seed + 0x9e3779b97f4a7c15ULL * (i + 1)));
      Cell& cell = cells[static_cast<std::uint64_t>(i) * stride + h % stride];
      cell.count = static_cast<std::int32_t>(static_cast<std::uint32_t>(cell.count) + 1u);
      cell.key_sum ^= key;
      cell.check_sum ^= check;
    }
  }
};

// --- Seed-replica heap-scheduled rateless encoder and decoder -------------
// The coded-symbol stream before the item-major prefix: a min-heap on each
// item's next index pops every item due at the current symbol. The decoder
// subtracted its local set through the same kind of heap, one checked cell
// update per local participant, and otherwise peels exactly as the library.
struct SeedWindow {
  struct Item {
    iblt::Digest32 digest;
    std::uint64_t check;
    iblt::IndexMapper mapper;
  };
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  ///< (next index, item)
  std::vector<Item> items;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  void add(Item item) {
    heap.emplace(item.mapper.current(), static_cast<std::uint32_t>(items.size()));
    items.push_back(item);
  }
  void add(const iblt::Digest32& d, std::uint64_t salt) {
    add({d, iblt::coded_symbol_check(d, salt),
         iblt::IndexMapper(iblt::coded_symbol_map_seed(d, salt))});
  }
  /// Pops every item due at `index`, hands it to `fn` and advances it.
  template <typename Fn>
  void drain(std::uint64_t index, Fn&& fn) {
    while (!heap.empty() && heap.top().first == index) {
      const std::uint32_t id = heap.top().second;
      heap.pop();
      Item& item = items[id];
      fn(item);
      heap.emplace(item.mapper.next(), id);
    }
  }
};

struct SeedRatelessEncoder {
  std::uint64_t salt;
  SeedWindow window;
  std::uint64_t next = 0;

  explicit SeedRatelessEncoder(std::uint64_t s) : salt(s) {}
  void add_item(const iblt::Digest32& d) { window.add(d, salt); }
  iblt::CodedSymbol next_symbol() {
    iblt::CodedSymbol out;
    window.drain(next++, [&](const SeedWindow::Item& it) { out.apply(it.digest, it.check, +1); });
    return out;
  }
};

struct SeedRatelessDecoder {
  std::uint64_t salt;
  std::vector<iblt::CodedSymbol> cells;
  SeedWindow local, rec_pos, rec_neg;
  std::vector<std::uint64_t> worklist;
  std::vector<iblt::Digest32> positives, negatives;
  std::unordered_set<std::uint64_t> peeled_keys;
  std::uint64_t received = 0, nonzero = 0, ops = 0;
  bool malformed = false;

  explicit SeedRatelessDecoder(std::uint64_t s) : salt(s) {}
  [[nodiscard]] bool decoded() const { return received > 0 && nonzero == 0 && !malformed; }

  void touch(std::uint64_t index, const iblt::Digest32& d, std::uint64_t check,
             std::int64_t dir) {
    iblt::CodedSymbol& cell = cells[index];
    const bool was_zero = cell.is_zero();
    cell.apply(d, check, dir);
    const bool now_zero = cell.is_zero();
    if (was_zero && !now_zero) ++nonzero;
    if (!was_zero && now_zero) --nonzero;
    ++ops;
  }
  void enqueue(std::uint64_t index) {
    if (cells[index].count == 1 || cells[index].count == -1) worklist.push_back(index);
  }
  [[nodiscard]] bool over_budget() const {
    const std::uint64_t tracked =
        local.items.size() + rec_pos.items.size() + rec_neg.items.size() + 1;
    const std::uint64_t log_m = static_cast<std::uint64_t>(std::bit_width(received + 1)) + 4;
    return ops > 4096 + 16 * received + 32 * tracked * log_m;
  }

  void add_symbol(const iblt::CodedSymbol& symbol) {
    if (malformed) return;
    const std::uint64_t index = received++;
    cells.push_back(symbol);
    if (!symbol.is_zero()) ++nonzero;
    const auto subtract = [&](SeedWindow& window, std::int64_t dir) {
      window.drain(index, [&](const SeedWindow::Item& it) {
        touch(index, it.digest, it.check, dir);
      });
    };
    subtract(local, -1);
    subtract(rec_pos, -1);
    subtract(rec_neg, +1);
    enqueue(index);
    peel();
    if (over_budget()) malformed = true;
  }

  void peel() {
    while (!worklist.empty() && !malformed) {
      const std::uint64_t index = worklist.back();
      worklist.pop_back();
      const iblt::CodedSymbol cell = cells[index];
      if (cell.count != 1 && cell.count != -1) continue;
      if (cell.check != iblt::coded_symbol_check(cell.sum, salt)) continue;
      const std::int64_t dir = cell.count;
      const std::uint64_t key =
          util::mix64(cell.check ^ (dir > 0 ? 0x5bf03635aULL : 0xa9e4f1c2dULL));
      if (!peeled_keys.insert(key).second) {
        malformed = true;
        return;
      }
      iblt::IndexMapper mapper(iblt::coded_symbol_map_seed(cell.sum, salt));
      for (std::uint64_t at = mapper.current(); at < received; at = mapper.next()) {
        touch(at, cell.sum, cell.check, -dir);
        enqueue(at);
        if (over_budget()) {
          malformed = true;
          return;
        }
      }
      (dir > 0 ? rec_pos : rec_neg).add({cell.sum, cell.check, mapper});
      (dir > 0 ? positives : negatives).push_back(cell.sum);
    }
  }
};

std::vector<chain::TxId> random_ids(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<chain::TxId> ids(count);
  for (chain::TxId& id : ids) {
    for (int w = 0; w < 4; ++w) {
      const std::uint64_t v = rng.next();
      for (int b = 0; b < 8; ++b) {
        id[static_cast<std::size_t>(8 * w + b)] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
  }
  return ids;
}

bool g_parity_ok = true;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("  PARITY DIVERGENCE: %s\n", what);
    g_parity_ok = false;
  }
}

struct ScaleResult {
  std::uint64_t m = 0, n = 0;
  double filter_seed_ms = 0, filter_lib_ms = 0, filter_batch_ms = 0;
  double filter_blocked_ms = 0;
  double iblt_seed_ms = 0, iblt_batch_ms = 0;
  double subtract_ms = 0, decode_ms = 0;
};

ScaleResult run_scale(std::uint64_t m, int reps) {
  ScaleResult res;
  res.m = m;
  res.n = m / 10;
  const std::uint64_t salt = 0xb10cf11e;
  const double fpr = 0.02;

  const std::vector<chain::TxId> block = random_ids(res.n, 0xb10c ^ m);
  const std::vector<chain::TxId> mempool = random_ids(m, 0x3e37 ^ m);
  std::vector<util::ByteView> views;
  views.reserve(mempool.size());
  for (const chain::TxId& id : mempool) views.emplace_back(id);

  // --- Mempool filter pass ------------------------------------------------
  SeedBloom seed_filter(res.n, fpr, salt);
  bloom::BloomFilter lib_filter(res.n, fpr, salt);
  bloom::BloomFilter blocked(res.n, fpr, salt, bloom::HashStrategy::kBlocked);
  {
    std::vector<util::ByteView> block_views;
    block_views.reserve(block.size());
    for (const chain::TxId& id : block) {
      seed_filter.insert(util::ByteView(id));
      block_views.emplace_back(id);
    }
    lib_filter.insert_batch(block_views.data(), block_views.size());
    blocked.insert_batch(block_views.data(), block_views.size());
  }
  check(seed_filter.n_bits == lib_filter.bit_count() &&
            seed_filter.k == lib_filter.hash_count(),
        "seed replica and library sized differently");

  std::uint64_t hits_seed = 0, hits_lib = 0, hits_batch = 0, hits_blocked = 0;
  res.filter_seed_ms = best_ms(reps, &hits_seed, [&] {
    std::uint64_t hits = 0;
    for (const chain::TxId& id : mempool) hits += seed_filter.contains(util::ByteView(id)) ? 1 : 0;
    return hits;
  });
  res.filter_lib_ms = best_ms(reps, &hits_lib, [&] {
    std::uint64_t hits = 0;
    for (const chain::TxId& id : mempool) hits += lib_filter.contains(util::ByteView(id)) ? 1 : 0;
    return hits;
  });
  std::vector<std::uint8_t> out(m, 0);
  res.filter_batch_ms = best_ms(reps, &hits_batch, [&] {
    lib_filter.contains_batch(views.data(), views.size(), out.data());
    std::uint64_t hits = 0;
    for (const std::uint8_t b : out) hits += b;
    return hits;
  });
  res.filter_blocked_ms = best_ms(reps, &hits_blocked, [&] {
    blocked.contains_batch(views.data(), views.size(), out.data());
    std::uint64_t hits = 0;
    for (const std::uint8_t b : out) hits += b;
    return hits;
  });
  check(hits_seed == hits_lib, "library scalar diverged from seed replica");
  check(hits_lib == hits_batch, "contains_batch diverged from scalar");

  // --- IBLT build / subtract / decode ------------------------------------
  // Tables are sized to the full mempool, not the block: this is the
  // difference-digest / strata-estimator / mempool-sync regime, where IBLTs
  // scale with m and construction is the memory-bound hot loop. (Protocol 1's
  // per-block I is tiny — a* cells — and never shows up in a profile.)
  const std::uint64_t items = m;
  const std::uint64_t cell_count = items / 2 + 8;
  std::vector<std::uint64_t> sids_a(items), sids_b(items);
  util::Rng sid_rng(0x51d ^ m);
  for (std::uint64_t i = 0; i < items; ++i) sids_a[i] = sid_rng.next();
  // b = a with the last 30 keys swapped out — a realistic small difference.
  sids_b = sids_a;
  const std::uint64_t delta = items < 30 ? items : 30;
  for (std::uint64_t i = 0; i < delta; ++i) sids_b[items - 1 - i] = sid_rng.next();

  std::uint64_t sink = 0;
  res.iblt_seed_ms = best_ms(reps, &sink, [&] {
    SeedIblt t(4, cell_count, salt);
    for (const std::uint64_t key : sids_a) t.insert(key);
    return static_cast<std::uint64_t>(t.cells[0].key_sum);
  });
  iblt::Iblt batch_table(iblt::IbltParams{4, cell_count}, salt);
  res.iblt_batch_ms = best_ms(reps, &sink, [&] {
    iblt::Iblt t(iblt::IbltParams{4, cell_count}, salt);
    t.insert_batch(sids_a.data(), sids_a.size());
    batch_table = t;
    return static_cast<std::uint64_t>(t.cells_for_test()[0].key_sum);
  });
  {
    SeedIblt seed_table(4, cell_count, salt);
    for (const std::uint64_t key : sids_a) seed_table.insert(key);
    const auto& lib_cells = batch_table.cells_for_test();
    bool same = lib_cells.size() == seed_table.cells.size();
    for (std::size_t i = 0; same && i < lib_cells.size(); ++i) {
      same = lib_cells[i].count == seed_table.cells[i].count &&
             lib_cells[i].key_sum == seed_table.cells[i].key_sum &&
             lib_cells[i].check_sum == seed_table.cells[i].check_sum;
    }
    check(same, "insert_batch cells diverged from seed replica");
  }

  iblt::Iblt other(iblt::IbltParams{4, cell_count}, salt);
  other.insert_batch(sids_b.data(), sids_b.size());
  iblt::Iblt diff(iblt::IbltParams{4, cell_count}, salt);
  res.subtract_ms = best_ms(reps, &sink, [&] {
    diff = batch_table.subtract(other);
    return static_cast<std::uint64_t>(diff.cells_for_test()[0].key_sum);
  });
  res.decode_ms = best_ms(reps, &sink, [&] {
    const iblt::DecodeResult dec = diff.decode();
    check(dec.success && dec.positives.size() == delta && dec.negatives.size() == delta,
          "difference failed to decode");
    return dec.peel_iterations;
  });
  return res;
}

// --- Rateless coded-symbol session -----------------------------------------

struct RatelessResult {
  std::uint64_t items = 500, symbols = 128, difference = 80, sessions = 0;
  double symbols_consumed = 0;  ///< mean per session, both decoders
  double encode_seed_us = 0, encode_lib_us = 0;  ///< per session
  double decode_seed_us = 0, decode_lib_us = 0;  ///< per session
};

/// Feeds `stream` to `dec` the way RatelessClientBackend receives it: chunks
/// that double the stream consumed so far (16, 16, 32, …), until it decodes.
void decode_in_chunks(iblt::RatelessDecoder& dec, std::span<const iblt::CodedSymbol> stream) {
  while (!dec.decoded() && !dec.malformed() && dec.received() < stream.size()) {
    const std::uint64_t len =
        std::min<std::uint64_t>(std::max<std::uint64_t>(16, dec.received()),
                                stream.size() - dec.received());
    (void)dec.add_symbols(stream.subspan(dec.received(), len));
  }
}

RatelessResult run_rateless(int reps, int sessions) {
  RatelessResult res;
  res.sessions = static_cast<std::uint64_t>(sessions);
  // The daemon_rateless sets: the client drops 40 host items and adds 40.
  const std::vector<chain::TxId> host = random_ids(res.items, 0x4a7e);
  std::vector<chain::TxId> client(host.begin() + 40, host.end());
  const std::vector<chain::TxId> extra = random_ids(40, 0xc11e);
  client.insert(client.end(), extra.begin(), extra.end());
  // One fresh salt per session, as the daemon draws them; every stream is
  // long enough for the decode to finish.
  const std::uint64_t kStream = 512;
  std::vector<std::uint64_t> salts;
  std::vector<std::vector<iblt::CodedSymbol>> streams;
  for (int i = 0; i < sessions; ++i) {
    salts.push_back(util::mix64(0x5e55104 + static_cast<std::uint64_t>(i)));
    iblt::RatelessEncoder enc(salts.back());
    SeedRatelessEncoder seed(salts.back());
    for (const chain::TxId& d : host) {
      enc.add_item(d);
      seed.add_item(d);
    }
    enc.extend(kStream);
    bool same = true;
    for (const iblt::CodedSymbol& sym : enc.prefix()) {
      const iblt::CodedSymbol ref = seed.next_symbol();
      same = same && sym.sum == ref.sum && sym.check == ref.check && sym.count == ref.count;
    }
    check(same, "item-major coded symbols diverged from the heap-scheduled replica");
    streams.emplace_back(enc.prefix().begin(), enc.prefix().end());

    iblt::RatelessDecoder dec(salts.back());
    SeedRatelessDecoder seed_dec(salts.back());
    for (const chain::TxId& d : client) {
      dec.add_local(d);
      seed_dec.local.add(d, salts.back());
    }
    decode_in_chunks(dec, streams.back());
    for (const iblt::CodedSymbol& sym : streams.back()) {
      if (seed_dec.decoded() || seed_dec.malformed) break;
      seed_dec.add_symbol(sym);
    }
    check(dec.decoded() && dec.positives().size() == 40 && dec.negatives().size() == 40,
          "rateless difference failed to decode");
    check(seed_dec.decoded() == dec.decoded() && seed_dec.received == dec.received() &&
              seed_dec.ops == dec.update_ops() && seed_dec.positives == dec.positives() &&
              seed_dec.negatives == dec.negatives(),
          "rateless decoder diverged from the heap-scheduled replica");
    res.symbols_consumed += static_cast<double>(dec.received()) / sessions;
  }

  const double per_session_us = 1e3 / sessions;
  std::uint64_t sink = 0;
  res.encode_seed_us = per_session_us * best_ms(reps, &sink, [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t salt : salts) {
      SeedRatelessEncoder enc(salt);
      for (const chain::TxId& d : host) enc.add_item(d);
      for (std::uint64_t i = 0; i < res.symbols; ++i) acc ^= enc.next_symbol().check;
    }
    return acc;
  });
  res.encode_lib_us = per_session_us * best_ms(reps, &sink, [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t salt : salts) {
      iblt::RatelessEncoder enc(salt);
      for (const chain::TxId& d : host) enc.add_item(d);
      enc.extend(res.symbols);
      for (const iblt::CodedSymbol& sym : enc.prefix()) acc ^= sym.check;
    }
    return acc;
  });
  res.decode_seed_us = per_session_us * best_ms(reps, &sink, [&] {
    std::uint64_t ops = 0;
    for (int i = 0; i < sessions; ++i) {
      SeedRatelessDecoder dec(salts[i]);
      for (const chain::TxId& d : client) dec.local.add(d, salts[i]);
      for (const iblt::CodedSymbol& sym : streams[i]) {
        if (dec.decoded() || dec.malformed) break;
        dec.add_symbol(sym);
      }
      ops += dec.ops;
    }
    return ops;
  });
  res.decode_lib_us = per_session_us * best_ms(reps, &sink, [&] {
    std::uint64_t ops = 0;
    for (int i = 0; i < sessions; ++i) {
      iblt::RatelessDecoder dec(salts[i]);
      for (const chain::TxId& d : client) dec.add_local(d);
      decode_in_chunks(dec, streams[i]);
      ops += dec.update_ops();
    }
    return ops;
  });
  return res;
}

}  // namespace

int main() {
  const char* fast_env = std::getenv("GRAPHENE_FAST");
  const bool fast = fast_env != nullptr && *fast_env == '1';
  const int reps = fast ? 2 : 3;
  std::vector<std::uint64_t> scales = fast
                                          ? std::vector<std::uint64_t>{10'000, 50'000}
                                          : std::vector<std::uint64_t>{10'000, 100'000,
                                                                       1'000'000};
  const RatelessResult rl = run_rateless(reps, fast ? 20 : 200);
  const double d = static_cast<double>(rl.difference);
  std::printf("rateless session (%llu items, %llu-symbol encode, d = %llu, %.1f symbols "
              "decoded, %llu sessions)\n",
              static_cast<unsigned long long>(rl.items),
              static_cast<unsigned long long>(rl.symbols),
              static_cast<unsigned long long>(rl.difference), rl.symbols_consumed,
              static_cast<unsigned long long>(rl.sessions));
  std::printf("  encode  seed %8.1f us | item-major %8.1f us  (%.2f vs %.2f us/diff elem, "
              "%.2fx)\n",
              rl.encode_seed_us, rl.encode_lib_us, rl.encode_seed_us / d,
              rl.encode_lib_us / d, rl.encode_seed_us / rl.encode_lib_us);
  std::printf("  decode  seed %8.1f us | item-major %8.1f us  (%.2f vs %.2f us/diff elem, "
              "%.2fx)\n",
              rl.decode_seed_us, rl.decode_lib_us, rl.decode_seed_us / d,
              rl.decode_lib_us / d, rl.decode_seed_us / rl.decode_lib_us);

  std::vector<ScaleResult> results;
  for (const std::uint64_t m : scales) {
    std::printf("m = %llu (n = %llu, %d reps, best-of)\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(m / 10), reps);
    const ScaleResult r = run_scale(m, reps);
    std::printf("  filter pass   seed %9.2f ms | scalar %9.2f | batch %9.2f | "
                "blocked %9.2f  (%.2fx vs seed)\n",
                r.filter_seed_ms, r.filter_lib_ms, r.filter_batch_ms,
                r.filter_blocked_ms, r.filter_seed_ms / r.filter_blocked_ms);
    std::printf("  iblt build    seed %9.2f ms | batch %9.2f  (%.2fx vs seed)\n",
                r.iblt_seed_ms, r.iblt_batch_ms, r.iblt_seed_ms / r.iblt_batch_ms);
    std::printf("  iblt subtract      %9.2f ms ; decode %9.3f ms\n",
                r.subtract_ms, r.decode_ms);
    results.push_back(r);
  }

  std::ofstream json("BENCH_hotpath.json");
  obs::json::Writer w;
  w.begin_object();
  w.key("reps");
  w.number(static_cast<std::uint64_t>(reps));
  w.key("fast");
  w.boolean(fast);
  w.key("rateless");
  w.begin_object();
  w.key("items");
  w.number(rl.items);
  w.key("symbols");
  w.number(rl.symbols);
  w.key("difference");
  w.number(rl.difference);
  w.key("sessions");
  w.number(rl.sessions);
  w.key("symbols_consumed");
  w.number(rl.symbols_consumed);
  w.key("encode_seed_us");
  w.number(rl.encode_seed_us);
  w.key("encode_item_major_us");
  w.number(rl.encode_lib_us);
  w.key("encode_seed_us_per_diff");
  w.number(rl.encode_seed_us / d);
  w.key("encode_item_major_us_per_diff");
  w.number(rl.encode_lib_us / d);
  w.key("decode_seed_us");
  w.number(rl.decode_seed_us);
  w.key("decode_item_major_us");
  w.number(rl.decode_lib_us);
  w.key("decode_seed_us_per_diff");
  w.number(rl.decode_seed_us / d);
  w.key("decode_item_major_us_per_diff");
  w.number(rl.decode_lib_us / d);
  w.end_object();
  w.key("scales");
  w.begin_array();
  for (const ScaleResult& r : results) {
    w.begin_object();
    w.key("m");
    w.number(r.m);
    w.key("n");
    w.number(r.n);
    w.key("filter_seed_ms");
    w.number(r.filter_seed_ms);
    w.key("filter_scalar_ms");
    w.number(r.filter_lib_ms);
    w.key("filter_batch_ms");
    w.number(r.filter_batch_ms);
    w.key("filter_blocked_ms");
    w.number(r.filter_blocked_ms);
    w.key("filter_speedup_vs_seed");
    w.number(r.filter_seed_ms / r.filter_blocked_ms);
    w.key("iblt_seed_build_ms");
    w.number(r.iblt_seed_ms);
    w.key("iblt_batch_build_ms");
    w.number(r.iblt_batch_ms);
    w.key("iblt_build_speedup_vs_seed");
    w.number(r.iblt_seed_ms / r.iblt_batch_ms);
    w.key("subtract_ms");
    w.number(r.subtract_ms);
    w.key("decode_ms");
    w.number(r.decode_ms);
    w.end_object();
  }
  w.end_array();
  w.key("parity_ok");
  w.boolean(g_parity_ok);
  w.end_object();
  json << w.str() << '\n';
  std::printf("\nwrote BENCH_hotpath.json — parity %s\n",
              g_parity_ok ? "OK" : "DIVERGED");
  return g_parity_ok ? 0 : 1;
}
