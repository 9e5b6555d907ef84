#include "iblt/coded_symbol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/hash.hpp"

namespace graphene::iblt {

namespace {

// Domain separators so the per-item checksum and the index-sequence seed are
// independent functions of (digest, salt).
constexpr std::uint64_t kCheckDomain = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMapDomain = 0xc2b2ae3d27d4eb4fULL;

// Largest gap the mapper will take in one step. Honest gaps fit easily
// (they are < 2^32 · idx); the clamp only matters for keeping the
// double→uint64 conversion well defined.
constexpr double kMaxGap = 9.0e15;

[[nodiscard]] std::uint64_t peel_key(const Digest32& digest, std::int64_t dir,
                                     std::uint64_t salt) noexcept {
  const std::uint64_t base =
      util::hash64(util::ByteView(digest.data(), digest.size()), salt ^ kCheckDomain);
  return util::mix64(base ^ (dir > 0 ? 0x5bf03635aULL : 0xa9e4f1c2dULL));
}

}  // namespace

std::uint64_t coded_symbol_check(const Digest32& digest, std::uint64_t salt) noexcept {
  return util::hash64(util::ByteView(digest.data(), digest.size()),
                      salt ^ kCheckDomain);
}

std::uint64_t coded_symbol_map_seed(const Digest32& digest,
                                    std::uint64_t salt) noexcept {
  return util::hash64(util::ByteView(digest.data(), digest.size()), salt ^ kMapDomain);
}

std::uint64_t IndexMapper::next() noexcept {
  // The riblt recurrence: one multiplicative-congruential step, then a gap
  // proportional to the current index scaled by (2^32/sqrt(r+1) - 1) for the
  // fresh PRNG draw r. With u = r/2^64 uniform, the next index is roughly
  // (idx+1.5)/sqrt(u): multiplicative growth with E[log step] = 1/2, so an
  // item visits ~2·ln(M) of the first M indices.
  prng_ *= 0xda942042e4dd58b5ULL;
  const double r = static_cast<double>(prng_);
  double gap = std::ceil((static_cast<double>(idx_) + 1.5) *
                         (4294967296.0 / std::sqrt(r + 1.0) - 1.0));
  // Clamp: r near 2^64 yields gap <= 0 (the sequence must strictly advance),
  // and r near 0 yields gaps beyond exact double range.
  if (!(gap >= 1.0)) gap = 1.0;
  if (gap > kMaxGap) gap = kMaxGap;
  idx_ += static_cast<std::uint64_t>(gap);
  return idx_;
}

void RatelessEncoder::add_item(const Digest32& digest) {
  const std::uint64_t check = coded_symbol_check(digest, salt_);
  sources_.push_back({digest, check, IndexMapper(coded_symbol_map_seed(digest, salt_))});
  fold(sources_.back(), prefix_.size());
  set_check_ ^= check;
}

void RatelessEncoder::extend(std::uint64_t upto) {
  if (upto <= prefix_.size()) return;
  prefix_.resize(upto);
  for (Source& src : sources_) fold(src, upto);
}

void RatelessEncoder::fold(Source& src, std::uint64_t upto) {
  for (std::uint64_t at = src.mapper.current(); at < upto; at = src.mapper.next()) {
    prefix_[at].apply(src.digest, src.check, +1);
  }
}

std::size_t RatelessDecoder::add_symbols(std::span<const CodedSymbol> symbols) {
  if (malformed_ || symbols.empty()) return 0;
  // Grow the local prefix at least geometrically, so symbol-at-a-time
  // feeding re-walks the local items O(log) times, not once per symbol.
  const std::uint64_t need = received_ + symbols.size();
  if (need > local_.produced()) local_.extend(std::max(need, 2 * local_.produced()));
  std::size_t used = 0;
  while (used < symbols.size()) {
    consume(symbols[used++]);
    if (malformed_ || decoded()) break;
  }
  return used;
}

void RatelessDecoder::consume(const CodedSymbol& symbol) {
  const std::uint64_t index = received_++;
  // Difference the arrival against everything we already know: our own set
  // (its symbol `index`, one update per local participant) and every item
  // recovered so far.
  const CodedSymbol& mine = local_.prefix()[index];
  CodedSymbol& cell = cells_.emplace_back(symbol);
  cell.apply(mine.sum, mine.check, -mine.count);
  if (!cell.is_zero()) ++nonzero_;
  ops_ += static_cast<std::uint64_t>(mine.count);
  apply_window(rec_pos_, index, -1);
  apply_window(rec_neg_, index, +1);
  enqueue_if_candidate(index);
  peel();
  if (over_budget()) malformed_ = true;
}

void RatelessDecoder::apply_window(Window& window, std::uint64_t index,
                                   std::int64_t dir) {
  while (!window.heap.empty() && window.heap.top().first == index) {
    const std::uint32_t id = window.heap.top().second;
    window.heap.pop();
    Tracked& item = window.items[id];
    touch_cell(index, item.digest, item.check, dir);
    window.heap.emplace(item.mapper.next(), id);
  }
}

void RatelessDecoder::touch_cell(std::uint64_t index, const Digest32& digest,
                                 std::uint64_t check, std::int64_t dir) {
  CodedSymbol& cell = cells_[index];
  const bool was_zero = cell.is_zero();
  cell.apply(digest, check, dir);
  const bool now_zero = cell.is_zero();
  if (was_zero && !now_zero) {
    ++nonzero_;
  } else if (!was_zero && now_zero) {
    --nonzero_;
  }
  ++ops_;
}

void RatelessDecoder::enqueue_if_candidate(std::uint64_t index) {
  const CodedSymbol& cell = cells_[index];
  // Cheap pre-filter; the hash-backed purity test runs when the worklist
  // entry is popped (the cell may have changed again by then anyway).
  if (cell.count == 1 || cell.count == -1) worklist_.push_back(index);
}

void RatelessDecoder::peel() {
  while (!worklist_.empty() && !malformed_) {
    const std::uint64_t index = worklist_.back();
    worklist_.pop_back();
    const CodedSymbol cell = cells_[index];
    if (cell.count != 1 && cell.count != -1) continue;
    if (cell.check != coded_symbol_check(cell.sum, salt_)) continue;
    const std::int64_t dir = cell.count;
    const Digest32 digest = cell.sum;
    const std::uint64_t check = cell.check;
    // §6.1-style defense: a digest peeling twice in the same direction means
    // the stream is inconsistent (an honest encoder cancels each recovered
    // item everywhere) — without this an adversary can induce endless
    // recover/re-recover churn.
    if (!peeled_keys_.insert(peel_key(digest, dir, salt_)).second) {
      malformed_ = true;
      return;
    }
    // Cancel the item from every consumed cell it participates in; cells it
    // will participate in later are handled by the recovered windows.
    IndexMapper mapper(coded_symbol_map_seed(digest, salt_));
    std::uint64_t at = mapper.current();
    while (at < received_) {
      touch_cell(at, digest, check, -dir);
      enqueue_if_candidate(at);
      at = mapper.next();
      if (over_budget()) {
        malformed_ = true;
        return;
      }
    }
    Window& future = dir > 0 ? rec_pos_ : rec_neg_;
    future.add(Tracked{digest, check, mapper});
    (dir > 0 ? positives_ : negatives_).push_back(digest);
  }
}

bool RatelessDecoder::over_budget() const noexcept {
  // Every tracked item (local + recovered) touches ~2·ln(M) of the first M
  // cells, plus one op per arriving symbol. Budget that with a generous
  // constant factor; honest streams sit far below, while a hostile stream
  // that manufactures unbounded peeling work trips it in bounded time.
  const std::uint64_t tracked = local_.item_count() + rec_pos_.items.size() +
                                rec_neg_.items.size() + 1;
  const std::uint64_t log_m =
      static_cast<std::uint64_t>(std::bit_width(received_ + 1)) + 4;
  const std::uint64_t cap = 4096 + 16 * received_ + 32 * tracked * log_m;
  return ops_ > cap;
}

}  // namespace graphene::iblt
