// The two processes of the daemon_* workloads.
//
// `host` runs a RelayDaemon on 127.0.0.1 (ephemeral port) over the seeded
// host set, with a base salt drawn from `--seed` and `--batch`: each batch
// of a run starts a fresh daemon, and without the batch in the salt every
// batch would repeat the same sessions. It reports readiness by printing
// {"port": P} on stdout, answers each "stats" line on stdin with a snapshot
// taken at quiescence, and stops when stdin closes. Readiness and shutdown ride pipes, so nothing sleeps
// or polls on the set-up path.
//
// `load` runs daemon::run_loadgen from a fresh process (one worker thread,
// kConnections connections sharing `--sessions` back-to-back sessions, at
// least one each) against that port and prints the loadgen report plus its
// own CPU.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "daemon/daemon.hpp"
#include "daemon/loadgen.hpp"
#include "iblt/param_cache.hpp"
#include "obs/obs.hpp"
#include "relayd_set.hpp"

namespace perfbench {
namespace {

using namespace graphene;

/// Waits (bounded) until every accepted connection has closed, so the
/// daemon's per-connection tallies have been folded into its counters.
bool wait_quiescent(const daemon::RelayDaemon& served) {
  for (int i = 0; i < 5000; ++i) {
    if (served.open_connections() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

int run_daemon_host(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  iblt::ParamCache cache;
  // The registry is attached only for the daemon's per-session round counts
  // (the bye frames' `rounds`); the flight recorder stays off.
  obs::Registry registry;
  registry.recorder().set_enabled(false);
  daemon::DaemonOptions opts;
  opts.salt = util::mix64(util::mix64(seed) + args.u64("batch", 0));
  opts.protocol.param_cache = &cache;
  opts.protocol.obs = &registry;
  daemon::RelayDaemon served(tools::host_set(seed, kSetItems), opts);
  const std::uint16_t port = served.listen("127.0.0.1", 0);
  served.start();
  JsonLine().count("port", port).print();

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line != "stats") continue;
    const bool quiescent = wait_quiescent(served);
    const daemon::DaemonStats s = served.stats();
    std::uint64_t rounds = 0;
    std::uint64_t byes = 0;
    for (const char* backend : {"graphene", "rateless"}) {
      const obs::Histogram& h =
          registry.histogram("daemon_session_rounds", {{"backend", backend}});
      rounds += h.sum();
      byes += h.count();
    }
    const Usage u = self_usage();
    JsonLine()
        .flag("quiescent", quiescent)
        .count("sessions_ok", s.sessions_ok)
        .count("bytes_in", s.bytes_in)
        .count("bytes_out", s.bytes_out)
        .count("bye_rounds", rounds)
        .count("byes", byes)
        .num("cpu_ms", u.cpu_ms)
        .count("ctx_switches", u.ctx_switches)
        .num("maxrss_mb", u.maxrss_mb)
        .print();
  }
  served.stop();
  return 0;
}

int run_daemon_load(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const reconcile::ItemSet items = tools::client_set(seed, kSetItems, kDiffEachWay);
  iblt::ParamCache cache;
  daemon::LoadgenOptions lg;
  lg.port = static_cast<std::uint16_t>(args.u64("port", 0));
  lg.connections = kConnections;
  lg.sessions_per_conn = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, args.u64("sessions", kConnections) / kConnections));
  lg.workers = 1;
  lg.items = &items;
  lg.protocol.param_cache = &cache;
  lg.protocol.reconcile_backend = parse_backend(args.str("backend", "graphene"));

  const Usage before = self_usage();
  const daemon::LoadgenReport r = daemon::run_loadgen(lg);
  const Usage after = self_usage();
  JsonLine()
      .count("attempted", static_cast<std::uint64_t>(lg.connections) * lg.sessions_per_conn)
      .count("ok", r.sessions_ok)
      .count("bytes_in", r.bytes_in)
      .count("bytes_out", r.bytes_out)
      .count("elapsed_ns", r.elapsed_ns)
      .count("p50_ns", r.p50_ns)
      .count("p95_ns", r.p95_ns)
      .num("cpu_ms", after.cpu_ms - before.cpu_ms)
      .count("ctx_switches", after.ctx_switches - before.ctx_switches)
      .print();
  return 0;
}

}  // namespace perfbench
