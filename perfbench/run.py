#!/usr/bin/env python3
"""Relay benchmark entry point.

    python3 perfbench/run.py --workload block_relay|daemon_graphene|daemon_rateless \
        --seed N --seconds T --trace 0|1

Builds perfbench_relay (the library sources under src/ plus perfbench/src)
into .bench_build/perfbench, runs one workload, checks its outputs, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans to .bench_build/perfbench/traces/). The design record
(workloads, budgets, the layer-to-metric map) is perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_relay")

WORKLOADS = ("block_relay", "daemon_graphene", "daemon_rateless")
BATCHES = 10             # per daemon run; each is a set-up and one measured load
WARMUP_SESSIONS = 32     # sessions in each daemon set-up's warm-up load
LEDGER_MIN = 0.9
# Sessions per second each daemon workload's count is sized for, end to end
# and in the in-process replay (4-core x86 reference box): a run measures
# about --seconds there, and the fixed count keeps byte and round-trip
# totals exact for a seed.
NOMINAL_RATE = {"graphene": 2600, "rateless": 1000}
REPLAY_RATE = {"graphene": 2000, "rateless": 700}

# The daemon (or block_relay) and the load process each get a CPU of their
# own (the last two this process may use). Left to the scheduler, daemon and
# load often shared one CPU for seconds at a time (wake-affine placement of
# a ping-pong pair), which halved throughput for that stretch and made runs
# bimodal.
_ALLOWED = sorted(os.sched_getaffinity(0))
CPUS = ({"host": _ALLOWED[-1], "load": _ALLOWED[-2]} if len(_ALLOWED) >= 2
        else {"host": None, "load": None})

# Metric names and units, as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench_relay", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed; see {log_path}")


def last_json(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    return json.loads(lines[-1])


def pinned(cpu):
    """preexec_fn pinning a child to one CPU (None: no pinning)."""
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


def run_binary(args, cpu=None, timeout=170):
    proc = subprocess.run([BINARY] + [str(a) for a in args], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=pinned(cpu))
    if proc.returncode != 0:
        fail(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return last_json(proc.stdout, args[0])


def trace_path(workload, seed):
    path = os.path.join(BUILD, "traces")
    os.makedirs(path, exist_ok=True)
    return os.path.join(path, f"{workload}-seed{seed}.jsonl")


def block_relay(seed, seconds, trace):
    args = ["block_relay", "--seed", seed, "--seconds", seconds, "--trace", int(trace)]
    if trace:
        args += ["--trace-out", trace_path("block_relay", seed)]
    out = run_binary(args, cpu=CPUS["host"])
    names = PER_LAYER if trace else END_TO_END
    metrics = {name: out.get(name, 0.0) for name in names}
    return out["correct"], out["attempted"], out["failed"], metrics


class Host:
    """The daemon process. Readiness arrives as its first stdout line; each
    stats request is a line on its stdin; closing stdin stops it."""

    def __init__(self, seed, batch):
        self.proc = subprocess.Popen([BINARY, "host", "--seed", str(seed),
                                      "--batch", str(batch)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, close_fds=True,
                                     preexec_fn=pinned(CPUS["host"]))
        self.port = self._reply()["port"]

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            fail("daemon host exited early")
        return json.loads(line)

    def stats(self):
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            fail(f"daemon host exited {self.proc.returncode}")


def load(host, backend, seed, sessions):
    return run_binary(["load", "--seed", seed, "--port", host.port, "--backend", backend,
                       "--sessions", sessions], cpu=CPUS["load"])


def daemon_run(backend, seed, sessions):
    """BATCHES batches, each a fresh daemon: set-up (daemon start plus a
    warm-up load), then one measured load, so the set-ups are spread over
    the run like the measured loads. Each load is a fresh process and each
    daemon starts from a state fixed by seed and batch (its base salt), so
    connection order and descriptors, hence the daemon's per-session salts,
    repeat exactly for a seed, and the daemon's counter deltas at
    quiescence cover exactly the measured load. Warm-up sessions count
    toward attempted and failed ops only."""
    setup_s = []
    batches = []
    rss_mb = 0.0
    warm_attempted = warm_failed = 0
    for batch in range(BATCHES):
        t0 = time.perf_counter()
        host = Host(seed, batch)
        try:
            warm = load(host, backend, seed, WARMUP_SESSIONS)
            setup_s.append(time.perf_counter() - t0)
            warm_attempted += warm["attempted"]
            warm_failed += warm["attempted"] - warm["ok"]
            before = host.stats()
            m = load(host, backend, seed, max(1, sessions // BATCHES))
            after = host.stats()
        finally:
            host.stop()
        d = {k: after[k] - before[k] for k in
             ("cpu_ms", "ctx_switches", "sessions_ok", "bytes_in", "bytes_out",
              "byes", "bye_rounds")}
        d["quiescent"] = before["quiescent"] and after["quiescent"]
        batches.append((m, d))
        rss_mb = max(rss_mb, after["maxrss_mb"])
    return statistics.median(setup_s), batches, rss_mb, (warm_attempted, warm_failed)


def daemon_workload(backend, seed, seconds, trace):
    # The traced run spends half its time on the daemon and half on the replay.
    share = 0.5 if trace else 1.0
    sessions = int(seconds * share * NOMINAL_RATE[backend])
    setup_s, batches, rss_mb, (warm_attempted, warm_failed) = daemon_run(backend, seed,
                                                                         sessions)

    def total(side, key):
        return sum(b[side][key] for b in batches)

    def mean(f):
        # Timings average over batches for the reason windowed_quantile() in
        # src/bench.hpp gives: the host's speed drifts in long phases.
        return statistics.fmean(f(m, d) for m, d in batches)

    attempted = total(0, "attempted")
    ok = total(0, "ok")
    elapsed_ns = total(0, "elapsed_ns")
    server_cpu = total(1, "cpu_ms")
    client_cpu = total(0, "cpu_ms")
    # Output checks: the daemon was quiescent around every load, and both
    # ends counted the same bytes in each direction.
    correct = all(d["quiescent"] and d["bytes_in"] == m["bytes_out"]
                  and d["bytes_out"] == m["bytes_in"] for m, d in batches)

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ok * 1e9 / elapsed_ns,
            "latency_p50_ms": mean(lambda m, d: m["p50_ns"] / 1e6),
            "latency_p95_ms": mean(lambda m, d: m["p95_ns"] / 1e6),
            "cpu_ms_per_op": (server_cpu + client_cpu) / attempted,
            "wire_bytes_per_op": (total(0, "bytes_in") + total(0, "bytes_out")) / attempted,
            # The hello/opening exchange plus one per client request.
            "round_trips_per_op":
                (total(1, "byes") + total(1, "bye_rounds")) / total(1, "byes"),
            "peak_rss_mb": rss_mb,
        }
        return (correct, attempted + warm_attempted, attempted - ok + warm_failed,
                metrics)

    replay_sessions = max(2, int(seconds * share * REPLAY_RATE[backend]))
    r = run_binary(["replay", "--seed", seed, "--backend", backend, "--sessions",
                    replay_sessions, "--trace-out", trace_path(f"daemon_{backend}", seed)],
                   cpu=CPUS["load"])
    correct = correct and r["wrong"] == 0
    metrics = {name: r.get(name, 0.0) for name in PER_LAYER}
    metrics.update({
        "daemon.server_cpu_ms_per_op": server_cpu / attempted,
        "daemon.client_cpu_ms_per_op": client_cpu / attempted,
        "daemon.server_busy_share": server_cpu * 1e6 / elapsed_ns,
        "daemon.transport_ms": mean(lambda m, d: m["p50_ns"] / 1e6) - r["replay.latency_p50_ms"],
        "daemon.ctx_switches_per_op":
            (total(1, "ctx_switches") + total(0, "ctx_switches")) / attempted,
        "daemon.accounting_gap": ok - total(1, "sessions_ok"),
    })
    return (correct, attempted + warm_attempted + r["attempted"],
            attempted - ok + warm_failed + r["failed"], metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    seconds = max(1, args.seconds)
    if args.workload == "block_relay":
        correct, attempted, failed, metrics = block_relay(args.seed, seconds, args.trace)
    else:
        backend = args.workload.split("_", 1)[1]
        correct, attempted, failed, metrics = daemon_workload(backend, args.seed, seconds,
                                                              args.trace)
    if args.trace:
        # Ledger rule: the layer spans account for at least LEDGER_MIN of the
        # op's wall time, or a layer is missing from the trace. On
        # block_relay the graphene.* calls alone must reach it.
        ledger = ("ledger.graphene_coverage" if args.workload == "block_relay"
                  else "ledger.coverage")
        correct = correct and metrics[ledger] >= LEDGER_MIN
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
