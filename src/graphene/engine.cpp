#include "graphene/engine.hpp"

#include <algorithm>

#include "bloom/bloom_math.hpp"
#include "chain/transaction.hpp"
#include "graphene/bounds.hpp"
#include "graphene/errors.hpp"
#include "iblt/param_cache.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {

namespace {

util::ByteView view(const Digest& d) noexcept { return util::ByteView(d.data(), d.size()); }
util::ByteView view(const Digest* d) noexcept { return view(*d); }

/// Byte views of `items` (digests or digest pointers) in scratch, the input
/// of the batch filter calls.
template <typename Range>
std::span<util::ByteView> views_of(const Range& items, util::ScratchScope& scratch) {
  const std::span<util::ByteView> out = scratch.span<util::ByteView>(items.size());
  std::size_t at = 0;
  for (const auto& d : items) out[at++] = view(d);
  return out;
}

/// hit[i] = 1 iff items[i] passes `filter`; the same pattern as querying
/// one item at a time.
template <typename Range>
std::span<const std::uint8_t> scan(const bloom::BloomFilter& filter, const Range& items,
                                   util::ScratchScope& scratch) {
  const std::span<util::ByteView> views = views_of(items, scratch);
  const std::span<std::uint8_t> hit = scratch.span<std::uint8_t>(views.size());
  bloom::contains_all(filter, views.data(), views.size(), hit.data());
  return hit;
}

/// max(count, 1) under formats that never size a filter for zero items.
std::uint64_t filter_items(std::uint64_t count, const WireFormat& fmt) noexcept {
  return fmt.min_one_filter_items ? std::max<std::uint64_t>(count, 1) : count;
}

}  // namespace

std::uint64_t short_id(const Digest& d, std::uint64_t salt, const WireFormat& fmt,
                       bool keyed) noexcept {
  if (keyed) return chain::short_id_keyed(util::SipHashKey{salt, salt ^ fmt.short_id_tweak}, d);
  return chain::short_id(d);
}

// --- host -------------------------------------------------------------------

GrapheneHost::GrapheneHost(std::vector<Digest> items, std::uint64_t salt,
                           const WireFormat& fmt, const ProtocolConfig& cfg)
    : items_(std::move(items)), salt_(salt), fmt_(&fmt), cfg_(cfg) {
  short_ids_.reserve(items_.size());
  for (const Digest& d : items_) {
    short_ids_.push_back(short_id(d, salt_, *fmt_, cfg_.keyed_short_ids));
  }
}

Protocol1Params GrapheneHost::size_offer(std::uint64_t client_count) const {
  const std::uint64_t n = size();
  return optimize_protocol1(n, std::max(client_count, n), cfg_);
}

bloom::BloomFilter GrapheneHost::build_s(const Protocol1Params& params) const {
  bloom::BloomFilter s(filter_items(size(), *fmt_), params.fpr, salt_ ^ fmt_->s_seed_tweak,
                       cfg_.bloom_strategy);
  util::ScratchScope scratch;  // per-thread arena: no heap churn per encode
  const std::span<util::ByteView> views = views_of(items_, scratch);
  s.insert_batch(views.data(), views.size());
  return s;
}

iblt::Iblt GrapheneHost::build_i(const Protocol1Params& params) const {
  iblt::Iblt i(params.iblt, salt_);
  i.insert_all(short_ids_);
  return i;
}

void GrapheneHost::check(const P2Request& req) const {
  // Deserializers cap each field on the wire, but b + y* sizes the IBLT J
  // allocated below: two fields at their individual caps would otherwise
  // allocate a multi-hundred-MB table, and in-memory requests skip the
  // deserializer altogether.
  if (req.b > util::wire::kMaxSizingParam || req.y_star > util::wire::kMaxSizingParam ||
      req.b + req.y_star > util::wire::kMaxIbltCells ||
      req.z > util::wire::kMaxWireCollection || !(req.fpr_r > 0.0 && req.fpr_r <= 1.0)) {
    ErrorContext ctx;
    ctx.n = size();
    ctx.z = req.z;
    ctx.y_star = req.y_star;
    ctx.b = req.b;
    throw ProtocolError(fmt_->serve_stage, "request sizing parameters out of range", ctx);
  }
}

GrapheneHost::Served GrapheneHost::partition(const P2Request& req) const {
  // Items that fail R are certainly missing at the client; the adapter sends
  // them in full. The membership pass is the batch scan; the partition
  // stays in item order.
  Served out;
  util::ScratchScope scratch;  // per-thread arena: serve scratch sized by n
  const std::span<const std::uint8_t> hit = scan(*req.filter_r, items_, scratch);
  out.passed.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    (hit[i] != 0 ? out.passed : out.missing).push_back(i);
  }
  out.j_items = req.b + req.y_star;
  return out;
}

void GrapheneHost::reverse(const P2Request& req, Served& served) const {
  // §3.3.2 m ≈ n path: the roles of host and client sets swap, and F
  // compensates R's false positives.
  const std::uint64_t n = size();
  const std::uint64_t z_s = served.passed.size();
  served.x_s = bound_x_star(z_s, /*m=*/n, /*n=*/req.z, req.fpr_r, cfg_.beta);
  served.y_s = bound_y_star(/*m=*/n, served.x_s, req.fpr_r, cfg_.beta);

  // Optimize b for the joint size of F (over z_s items) and J (b + y_s).
  const std::uint64_t denom =
      std::max<std::uint64_t>(1, req.z > served.x_s ? req.z - served.x_s : 1);
  std::uint64_t best_b = 1;
  std::size_t best_total = SIZE_MAX;
  for (std::uint64_t b = 1; b <= denom; b = (b < 128 ? b + 1 : b + b / 8)) {
    const double f_f = std::min(1.0, static_cast<double>(b) / static_cast<double>(denom));
    const std::size_t total =
        bloom::serialized_bytes(z_s, f_f) +
        iblt::cached_iblt_bytes(cfg_.param_cache, b + served.y_s, cfg_.fail_denom);
    if (total < best_total) {
      best_total = total;
      best_b = b;
    }
  }
  served.b_f = best_b;
  served.fpr_f = std::min(1.0, static_cast<double>(best_b) / static_cast<double>(denom));

  bloom::BloomFilter f(filter_items(z_s, *fmt_), served.fpr_f, salt_ ^ fmt_->f_seed_tweak,
                       cfg_.bloom_strategy);
  util::ScratchScope scratch;
  const std::span<util::ByteView> views = scratch.span<util::ByteView>(z_s);
  for (std::size_t i = 0; i < z_s; ++i) views[i] = view(items_[served.passed[i]]);
  f.insert_batch(views.data(), views.size());
  served.filter_f = std::move(f);
  served.j_items = best_b + served.y_s;
}

void GrapheneHost::build_j(Served& served) const {
  served.iblt_j =
      iblt::Iblt(iblt::cached_params(cfg_.param_cache, served.j_items, cfg_.fail_denom),
                 salt_ + 1);
  served.iblt_j.insert_all(short_ids_);
}

GrapheneHost::Served GrapheneHost::serve(const P2Request& req) const {
  check(req);
  Served served = partition(req);
  if (req.reversed) reverse(req, served);
  build_j(served);
  return served;
}

std::vector<std::size_t> GrapheneHost::fetch(std::span<const std::uint64_t> sids) const {
  std::unordered_map<std::uint64_t, std::size_t> by_short_id;
  by_short_id.reserve(short_ids_.size());
  for (std::size_t i = 0; i < short_ids_.size(); ++i) by_short_id.emplace(short_ids_[i], i);
  std::vector<std::size_t> out;
  out.reserve(sids.size());
  for (const std::uint64_t s : sids) {
    if (const auto it = by_short_id.find(s); it != by_short_id.end()) out.push_back(it->second);
  }
  return out;
}

// --- client -----------------------------------------------------------------

GrapheneClient::GrapheneClient(const WireFormat& fmt, const ProtocolConfig& cfg)
    : fmt_(&fmt), cfg_(cfg) {}

void GrapheneClient::begin(std::uint64_t salt) {
  salt_ = salt;
  by_short_id_.clear();
  ambiguous_.clear();
  candidates_.clear();
  params2_ = {};
  diff_j_.reset();
  dec_j_ = {};
  unresolved_.clear();
}

std::uint64_t GrapheneClient::short_id(const Digest& d) const noexcept {
  return core::short_id(d, salt_, *fmt_, cfg_.keyed_short_ids);
}

void GrapheneClient::index(const Digest& d) {
  const std::uint64_t s = short_id(d);
  const auto [it, inserted] = by_short_id_.emplace(s, d);
  if (!inserted && it->second != d) ambiguous_.insert(s);
  candidates_.insert(d);
}

void GrapheneClient::index_hits(std::span<const Digest*> items, const bloom::BloomFilter& s,
                                util::ScratchScope& scratch) {
  // Membership runs through the batch scan; indexing stays in input order.
  const std::span<const std::uint8_t> hit = scan(s, items, scratch);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (hit[i] != 0) index(*items[i]);
  }
}

iblt::Iblt GrapheneClient::mirror(const iblt::Iblt& sent) const {
  iblt::Iblt mine(iblt::IbltParams{sent.hash_count(), sent.cell_count()}, sent.seed());
  std::vector<std::uint64_t> sids;
  sids.reserve(candidates_.size());
  for (const Digest& d : candidates_) sids.push_back(short_id(d));
  mine.insert_all(sids);
  return mine;
}

GrapheneClient::Step GrapheneClient::peel_offer(const iblt::Iblt& iblt_i,
                                                iblt::DecodeResult& dec) {
  dec = iblt_i.subtract(mirror(iblt_i)).decode();
  if (dec.malformed) return Step::kFailed;
  // A 2-core, or host items the client does not hold (positives carry only
  // short IDs): Protocol 2.
  if (!dec.success || !dec.positives.empty()) return Step::kNeedsRequest;
  for (const std::uint64_t s : dec.negatives) {
    const auto it = by_short_id_.find(s);
    if (it == by_short_id_.end() || ambiguous_.count(s) > 0) return Step::kNeedsRequest;
    candidates_.erase(it->second);
  }
  return Step::kResolved;
}

Protocol2Params GrapheneClient::size_request(std::uint64_t local_count, std::uint64_t n,
                                             const bloom::BloomFilter& s, double& f_s) {
  f_s = bloom::expected_fpr(s.bit_count(), s.hash_count(), n);
  params2_ = optimize_protocol2(candidates_.size(), local_count, n, f_s, cfg_);
  return params2_;
}

bloom::BloomFilter GrapheneClient::build_r() const {
  bloom::BloomFilter r(std::max<std::uint64_t>(candidates_.size(), 1), params2_.fpr,
                       salt_ ^ fmt_->r_seed_tweak, cfg_.bloom_strategy);
  util::ScratchScope scratch;
  const std::span<util::ByteView> views = views_of(candidates_, scratch);
  r.insert_batch(views.data(), views.size());
  return r;
}

void GrapheneClient::prune(const std::optional<bloom::BloomFilter>& filter_f) {
  if (!params2_.reversed || !filter_f.has_value()) return;
  util::ScratchScope scratch;
  const std::span<Digest> cand = scratch.span<Digest>(candidates_.size());
  std::copy(candidates_.begin(), candidates_.end(), cand.begin());
  const std::span<const std::uint8_t> hit = scan(*filter_f, cand, scratch);
  for (std::size_t i = 0; i < cand.size(); ++i) {
    if (hit[i] == 0) candidates_.erase(cand[i]);
  }
}

const iblt::DecodeResult& GrapheneClient::peel_correction(const iblt::Iblt& iblt_j) {
  diff_j_ = iblt_j.subtract(mirror(iblt_j));
  dec_j_ = diff_j_->decode();
  return dec_j_;
}

bool GrapheneClient::wants_pingpong() const noexcept {
  return !dec_j_.success && !dec_j_.malformed && cfg_.enable_pingpong;
}

iblt::PingPongResult GrapheneClient::pingpong(const iblt::Iblt& iblt_i) {
  // I′ is rebuilt over the current candidates so both differences describe
  // the same set pair.
  iblt::PingPongResult pp = iblt::pingpong_decode(*diff_j_, iblt_i.subtract(mirror(iblt_i)));
  dec_j_.malformed = pp.malformed;
  if (!pp.malformed) {
    dec_j_.success = pp.success;
    dec_j_.positives = pp.positives;
    dec_j_.negatives = pp.negatives;
  }
  return pp;
}

GrapheneClient::Step GrapheneClient::resolve_correction() {
  unresolved_.clear();
  if (dec_j_.malformed || !dec_j_.success) return Step::kFailed;
  for (const std::uint64_t s : dec_j_.negatives) {
    // Every honest negative comes from J′ or I′, both built over indexed
    // candidates, so an unknown one marks a forged table.
    const auto it = by_short_id_.find(s);
    if (it == by_short_id_.end() || ambiguous_.count(s) > 0) return Step::kFailed;
    candidates_.erase(it->second);
  }
  for (const std::uint64_t s : dec_j_.positives) {
    // A positive the client indexed but dropped (F pruned it) is restored;
    // one it never indexed is left for the fetch round.
    const auto it = by_short_id_.find(s);
    if (it != by_short_id_.end() && ambiguous_.count(s) == 0) {
      candidates_.insert(it->second);
    } else {
      unresolved_.push_back(s);
    }
  }
  return unresolved_.empty() ? Step::kResolved : Step::kNeedsFetch;
}

GrapheneClient::Step GrapheneClient::decode_correction(const iblt::Iblt& iblt_j,
                                                       const iblt::Iblt& iblt_i) {
  (void)peel_correction(iblt_j);
  if (wants_pingpong()) (void)pingpong(iblt_i);
  return resolve_correction();
}

std::uint64_t GrapheneClient::checksum() const noexcept {
  std::uint64_t sum = 0;
  for (const Digest& d : candidates_) sum ^= util::mix64(short_id(d));
  return sum;
}

}  // namespace graphene::core
