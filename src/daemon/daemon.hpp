// The relay daemon: an epoll event loop serving reconciliation sessions
// over TCP to thousands of concurrent peers.
//
// One RelayDaemon owns one listening socket (plus any adopted pre-connected
// fds — the deterministic harness's socketpairs), one epoll instance, and
// one PeerSession per connection. All protocol work happens in PeerSession
// (session.hpp); this layer owns exactly the things a socket adds:
//
//   * connection lifecycle — accept/adopt, typed close, fd hygiene (every
//     descriptor is closed on exactly one path; the soak suite counts fds);
//   * per-peer bounded send queues — replies buffer in user space, a peer
//     draining slower than it asks first stops being read (backpressure at
//     DaemonLimits::send_queue_cap) and is closed outright at the hard cap;
//   * timeouts — the epoll wait is bounded by the earliest session deadline,
//     and a sweep closes idle/overlong sessions (obs::monotonic_ns, so the
//     fault harness drives time with ScopedFakeClock);
//   * graceful drain — a closed session's queued bytes (typically its final
//     error frame) get one drain window before the fd is closed.
//
// Threading: the loop runs either on the service thread (start()/stop()) or
// is single-stepped by a test via poll_once() — never both. stop() requests
// a halt, joins the thread, then aborts surviving connections with typed
// kShutdown closes; in-flight sessions racing a stop are the TSan stress
// suite's subject. Cross-thread entry points (adopt, stats, stop) touch only
// the mutex-guarded intake queue and atomic counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/session.hpp"
#include "graphene/params.hpp"
#include "reconcile/types.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::daemon {

struct DaemonOptions {
  DaemonLimits limits;
  /// Carries obs/pool/param_cache into every session; reconcile_backend is
  /// overridden per hello.
  core::ProtocolConfig protocol;
  /// Connections beyond this are accepted and immediately closed (refused).
  std::uint32_t max_connections = 8192;
  /// Base salt for per-session short-ID keys.
  std::uint64_t salt = 0x6461656d6f6eULL;
  /// Extra time a closed connection's queued bytes may take to drain.
  std::uint64_t drain_timeout_ns = 5ULL * 1000 * 1000 * 1000;
};

/// Cross-thread snapshot of the daemon's accounting.
struct DaemonStats {
  std::uint64_t conns_opened = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t conns_refused = 0;
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::array<std::uint64_t, kCloseReasonCount> closed_by_reason{};
};

class RelayDaemon {
 public:
  /// The daemon serves `items` (its copy) to every peer.
  explicit RelayDaemon(reconcile::ItemSet items, DaemonOptions opts = {});
  ~RelayDaemon();
  RelayDaemon(const RelayDaemon&) = delete;
  RelayDaemon& operator=(const RelayDaemon&) = delete;

  /// Binds and listens on host:port (port 0 picks an ephemeral port).
  /// Returns the bound port. Throws std::runtime_error on socket errors.
  /// Call before start().
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Hands a pre-connected stream socket (TCP or socketpair) to the daemon.
  /// The daemon owns the fd from here on. Thread-safe.
  void adopt(int fd);

  /// Spawns the service thread. stop() (or destruction) ends it.
  void start();

  /// Requests a halt, joins the service thread, reads what each surviving
  /// connection's peer already sent (so a bye in flight is counted), then
  /// closes it with a typed kShutdown abort. Idempotent. Also the
  /// single-threaded finalizer when start() was never called.
  void stop();

  /// Runs one epoll iteration: drains adoptions, dispatches I/O, sweeps
  /// deadlines. Returns true if any event or deadline made progress. Only
  /// for single-threaded use (the deterministic harness); never call while
  /// the service thread runs.
  bool poll_once(int timeout_ms);

  [[nodiscard]] std::size_t open_connections() const noexcept {
    return open_conns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] const reconcile::ItemSet& items() const noexcept { return items_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  struct Conn;

  void run();
  void drain_intake();
  void add_connection(int fd);
  void accept_ready();
  void handle_io(int fd, std::uint32_t events);
  void handle_readable(Conn& conn);
  void queue_messages(Conn& conn, const std::vector<net::Message>& msgs);
  bool flush_writes(Conn& conn);  ///< false: transport dead (EPIPE/reset)
  /// stop(): feeds what the peer already sent through the session, up to
  /// send_queue_cap bytes, stopping at EAGAIN.
  void read_before_stop(Conn& conn, std::vector<net::Message>& out);
  void update_interest(Conn& conn);
  void begin_drain_or_close(Conn& conn);
  void finish_conn(Conn& conn);
  void sweep_deadlines(std::uint64_t now_ns);
  [[nodiscard]] int next_timeout_ms(std::uint64_t now_ns) const;
  void wake();

  reconcile::ItemSet items_;
  DaemonOptions opts_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  // Loop-thread-only state (poll_once caller or service thread; stop() joins
  // the thread before touching it).
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::vector<int> dead_fds_;  ///< scratch: conns to erase after dispatch

  util::Mutex intake_mu_;
  std::vector<int> intake_ GUARDED_BY(intake_mu_);

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::uint64_t> conns_opened_{0};
  std::atomic<std::uint64_t> conns_closed_{0};
  std::atomic<std::uint64_t> conns_refused_{0};
  std::atomic<std::uint64_t> sessions_ok_{0};
  std::atomic<std::uint64_t> sessions_failed_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::array<std::atomic<std::uint64_t>, kCloseReasonCount> closed_by_reason_{};
};

}  // namespace graphene::daemon
