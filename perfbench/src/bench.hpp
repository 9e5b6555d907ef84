// Shared plumbing for perfbench_relay: flag parsing, clocks,
// process accounting, quantiles, a flat JSON writer, and the span recorder
// the traced runs use.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graphene/params.hpp"

namespace perfbench {

/// `--name value` flags after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::runtime_error(std::string("unexpected argument: ") + argv[i]);
      }
      flags_[argv[i] + 2] = argv[i + 1];
    }
  }
  [[nodiscard]] std::uint64_t u64(const char* name, std::uint64_t fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 0);
  }
  [[nodiscard]] std::string str(const char* name, const char* fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> flags_;
};

[[nodiscard]] inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of the whole process (every thread), in nanoseconds.
[[nodiscard]] inline std::uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The getrusage fields the benchmark reports.
struct Usage {
  double cpu_ms = 0;
  std::uint64_t ctx_switches = 0;
  double maxrss_mb = 0;
};

[[nodiscard]] inline Usage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Nearest-rank quantile of an ascending sample (the same rule as
/// daemon::run_loadgen, so in-process and daemon percentiles compare).
[[nodiscard]] inline std::uint64_t quantile(const std::vector<std::uint64_t>& sorted,
                                            double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Latency quantile of a run, as the mean over consecutive windows of
/// `window` ops (in run order) of each window's quantile. The host's speed
/// drifts in phases of 10-30 s; a pooled quantile of a run that straddles a
/// fast and a slow phase lands on whichever phase holds the rank and jumps
/// between them from run to run, while this mean moves smoothly with the
/// share of the run each phase took.
[[nodiscard]] inline double windowed_quantile(const std::vector<std::uint64_t>& in_order,
                                              std::size_t window, double q) {
  window = std::max<std::size_t>(1, std::min(window, in_order.size()));
  double sum = 0;
  std::size_t windows = 0;
  for (std::size_t at = 0; at + window <= in_order.size(); at += window) {
    std::vector<std::uint64_t> w(in_order.begin() + static_cast<std::ptrdiff_t>(at),
                                 in_order.begin() + static_cast<std::ptrdiff_t>(at + window));
    std::sort(w.begin(), w.end());
    sum += static_cast<double>(quantile(w, q));
    ++windows;
  }
  return windows == 0 ? 0.0 : sum / static_cast<double>(windows);
}

/// Milliseconds per op of a span or timer total in nanoseconds.
[[nodiscard]] inline double ms_per(std::uint64_t ns, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(ns) / 1e6 / static_cast<double>(ops);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// One flat JSON object printed on a single line: numbers and booleans only.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// In-memory span log for the traced runs. Spans are recorded by benchmark
/// code around calls into the library (name, start, end, parent, op id) and
/// written out once, at exit. A disabled recorder costs one branch per span.
class Spans {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  ///< index into the log, -1 for an op root
    std::uint64_t op;
  };

  /// Scoped span; nests under the innermost open span of the same recorder.
  class Scope {
   public:
    Scope(Spans& log, const char* name) : log_(log.enabled ? &log : nullptr) {
      if (log_ == nullptr) return;
      index_ = log_->log_.size();
      log_->log_.push_back({name, now_ns(), 0, log_->open_, log_->op_});
      log_->open_ = static_cast<std::int64_t>(index_);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      Span& s = log_->log_[index_];
      s.end_ns = now_ns();
      log_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* log_;
    std::size_t index_ = 0;
  };

  bool enabled = false;

  void begin_op(std::uint64_t op) { op_ = op; }

  /// Total duration of spans named `name` (all ops), in nanoseconds.
  [[nodiscard]] std::uint64_t total_ns(const char* name) const {
    std::uint64_t sum = 0;
    for (const Span& s : log_) {
      if (std::strcmp(s.name, name) == 0) sum += s.end_ns - s.start_ns;
    }
    return sum;
  }

  /// Total duration of the direct children of spans named `parent` whose
  /// name starts with `prefix` ("" for every child).
  [[nodiscard]] std::uint64_t child_ns(const char* parent, const char* prefix) const {
    std::uint64_t sum = 0;
    const std::size_t plen = std::strlen(prefix);
    for (const Span& s : log_) {
      if (s.parent < 0) continue;
      const Span& p = log_[static_cast<std::size_t>(s.parent)];
      if (std::strcmp(p.name, parent) == 0 && std::strncmp(s.name, prefix, plen) == 0) {
        sum += s.end_ns - s.start_ns;
      }
    }
    return sum;
  }

  /// Writes one JSON object per span; returns false if the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const Span& s = log_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %lld, \"op\": %llu, \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                   i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> log_;
  std::int64_t open_ = -1;
  std::uint64_t op_ = 0;
};

/// `--backend graphene|rateless`.
[[nodiscard]] inline graphene::core::ReconcileBackend parse_backend(const std::string& name) {
  if (name == "graphene") return graphene::core::ReconcileBackend::kGraphene;
  if (name == "rateless") return graphene::core::ReconcileBackend::kRatelessIblt;
  throw std::runtime_error("unknown --backend " + name);
}

/// Daemon workload sets (tools/relayd_set.hpp convention): the host holds
/// kSetItems seeded digests; the client swaps kDiffEachWay of them for fresh
/// ones, a symmetric difference of 2 * kDiffEachWay.
inline constexpr std::uint64_t kSetItems = 500;
inline constexpr std::uint64_t kDiffEachWay = 40;

/// Connections of the daemon workloads' one load worker thread (the thread
/// and connection budget stays within a 4-core box: 1 daemon loop thread,
/// 1 load worker).
inline constexpr std::uint32_t kConnections = 4;

int run_block_relay(const Args& args);
int run_daemon_host(const Args& args);
int run_daemon_load(const Args& args);
int run_replay(const Args& args);

}  // namespace perfbench
