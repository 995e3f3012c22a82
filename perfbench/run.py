#!/usr/bin/env python3
"""The lmre serve benchmark.

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

Run from the root of an lmre checkout.  Builds `lmre` and the benchmark's
helpers from source into .bench_build/, generates the workload from the
seed, drives a real `lmre serve --tcp` process, checks every response, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import workloads  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LMRE = os.path.join(BUILD, "lmre_tools", "lmre")
PERF = os.path.join(BUILD, "lmre_perf")
TRACE = os.path.join(BUILD, "lmre_perf_trace")
GOLDEN = os.path.join(ROOT, "tests", "golden", "batch_loops.json")

WORKLOADS = ("cold_mix", "warm_hits", "churn_open")
SETUP_SPAWNS = 15         # extra server spawns timed for setup_s
# Distinct cold_mix requests generated per second of window; the seed server
# completes ~1700/s on 4 cores.  A faster server that runs out ends its
# window early, which shortens the measurement but does not fail it.
COLD_POOL_PER_SECOND = 3000
WARM_SCHEDULE = 100000
TRACE_LIMIT = {"cold_mix": 400, "warm_hits": 20000, "churn_open": 20000}
COUNT_PASS = {"cold_mix": 400, "warm_hits": 5000}  # repeat-checked passes
# An open loop whose sends ran later than this on average fell behind its
# schedule: the run is invalid.  (Isolated host stalls of 10+ ms move the
# p99 lag but hardly the mean.)
MAX_GEN_LAG_MEAN_MS = 1.0
SNAPSHOT_COUNTERS = ("runs.computed", "runs.cached", "serve.coalesced",
                     "serve.overloaded", "oracle.accesses", "oracle.fallback_runs")
SNAPSHOT_GAUGES = ("cache.evictions", "serve.queue_peak")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Invalid(Exception):
    """The run cannot produce a trustworthy result (exit 3, no result)."""


def connections(workload):
    """Client connections, and server workers, for a workload: at most
    nproc (and 4).  warm_hits uses half: its requests cost microseconds, so
    client threads and server workers are all busy at once, and more
    busy threads than cores turn the tail into waiting for a time slice
    (p99 doubled over a 20 s run with 4+4 threads on 4 cores)."""
    cores = max(1, min(4, os.cpu_count() or 1))
    return max(1, cores // 2) if workload == "warm_hits" else cores


def build(trace):
    """Configures once, then builds the targets this run needs."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Invalid("no lmre sources next to perfbench/ (need src/, tools/, "
                      "examples/, tests/golden/); run from a full checkout")
    tmp = os.path.join(BUILD, "tmp")  # the compiler's scratch files stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD], stdout=out,
                           stderr=subprocess.STDOUT, env=env, check=True)
        targets = ["lmre_cli", "lmre_perf"] + (["lmre_perf_trace"] if trace else [])
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target"]
        if subprocess.run(cmd + targets, stdout=out, stderr=subprocess.STDOUT,
                          env=env).returncode:
            raise Invalid("build failed; see " + log_path)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One `lmre serve --tcp` process.  `setup_s` is the time from spawn
    until the first response (a tiny lint request) arrives."""

    PROBE = (json.dumps({"id": 0, "kind": "lint",
                         "source": "for i = 1 to 4\n  A[i] = A[i - 1];\n"}) + "\n").encode()

    def __init__(self, workers, metrics_path=None):
        self.port = free_port()
        cmd = [LMRE, "serve", "--tcp=127.0.0.1:%d" % self.port, "--workers=%d" % workers]
        if metrics_path:
            cmd.append("--metrics=" + metrics_path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            while True:
                try:
                    sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
                    break
                except ConnectionRefusedError:
                    if self.proc.poll() is not None or time.perf_counter() - t0 > 30:
                        raise Invalid("lmre serve did not start")
                    time.sleep(0.0002)
            with sock:
                sock.sendall(self.PROBE)
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise Invalid("lmre serve closed the first connection")
                    reply += chunk
            self.setup_s = time.perf_counter() - t0
            if b'"status":0' not in reply:
                raise Invalid("first response failed: " + reply.decode()[:200])
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_json(cmd):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise Invalid("%s failed (%d): %s" % (os.path.basename(cmd[0]), res.returncode,
                                              res.stderr.strip()[-500:]))
    return json.loads(res.stdout.strip().splitlines()[-1])


def load(req_path, work, seconds, conns, count=0):
    """Starts a server, runs the load client against it, stops the server
    and returns (client report, server snapshot, setup_s)."""
    metrics_path = os.path.join(work, "serve-metrics-%d.json" % time.monotonic_ns())
    server = Server(conns, metrics_path)
    try:
        cmd = [PERF, "load", "--requests", req_path, "--port", str(server.port),
               "--pid", str(server.proc.pid), "--conns", str(conns),
               "--seconds", repr(seconds), "--golden", GOLDEN]
        if count:
            cmd += ["--count", str(count)]
        report = run_json(cmd)
    finally:
        server.stop()
    with open(metrics_path) as f:
        snap = json.load(f)["result"]
    return report, snap, server.setup_s


def snapshot_counts(snap):
    out = {}
    for name in SNAPSHOT_COUNTERS:
        out["snapshot." + name] = snap["counters"].get(name, 0)
    for name in SNAPSHOT_GAUGES:
        out["snapshot." + name] = snap["gauges"].get(name, 0)
    return out


def generate(workload, seed, seconds, work):
    if workload == "cold_mix":
        w = workloads.cold_mix(seed, int(COLD_POOL_PER_SECOND * seconds))
    elif workload == "warm_hits":
        w = workloads.warm_hits(seed, ROOT, WARM_SCHEDULE)
    else:
        w = workloads.churn_open(seed, seconds)
    path = os.path.join(work, workload + ".tsv")
    w.write(path)
    return path


def check_window(report):
    """Failures of one load-client report, as messages."""
    problems = list(report["messages"])
    if report["mismatches"]:
        problems.append("%d templates failed the reference check" % report["mismatches"])
    return problems


def end_to_end(args, work, conns):
    req = generate(args.workload, args.seed, args.seconds, work)
    setups = []
    for _ in range(SETUP_SPAWNS):
        s = Server(conns)
        s.stop()
        setups.append(s.setup_s)
    report, snap, setup_s = load(req, work, args.seconds, conns)
    setups.append(setup_s)
    if report["mode"] == "open" and report["gen_lag_mean_ms"] > MAX_GEN_LAG_MEAN_MS:
        raise Invalid("open-loop generator fell behind its schedule: mean lag %.2f ms "
                      "> %.1f ms" % (report["gen_lag_mean_ms"], MAX_GEN_LAG_MEAN_MS))
    return req, report, snap, setups


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build(args.trace)
    conns = connections(args.workload)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        req, report, snap, setups = end_to_end(args, work, conns)
        problems = check_window(report)
        attempted = report["attempted"]
        failed = report["failed"]
        completed = report["completed"]
        if args.trace == 0:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "throughput_rps": (report["throughput_rps"], "1/s"),
                "latency_p50_ms": (report["latency_p50_ms"], "ms"),
                "latency_p99_ms": (report["latency_p99_ms"], "ms"),
                "peak_rss_mb": (report["server_hwm_kb"] / 1024.0, "MB"),
                "server_cpu_ms_per_req": (report["server_cpu_ms"] / max(1, completed), "ms"),
            }
            print("# %s seed=%d: %d latency samples over %.2f s%s in %d one-second slices, "
                  "%d setup samples, "
                  "%d templates checked, warm-up %d requests, client CPU %.0f ms, "
                  "open-loop lag mean %.3f ms, p99 %.3f ms" % (
                      args.workload, args.seed, completed, report["elapsed_s"],
                      " (request pool used up)" if report["exhausted"] else "",
                      report["latency_slices"], len(setups),
                      report["checked"], report["warmup_requests"], report["client_cpu_ms"],
                      report["gen_lag_mean_ms"], report["gen_lag_p99_ms"]))
        else:
            metrics = per_layer(args, req, work, conns, report, snap, problems)
        print(json.dumps({
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        for msg in problems:
            log("check: " + msg)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer(args, req, work, conns, report, snap, problems):
    """The traced run's metrics: spans and counts from the in-process
    replay, the server snapshot, the contention probes and generator
    health."""
    metrics = {}
    counts = snapshot_counts(snap)
    if args.workload in COUNT_PASS:
        # Two fixed-count passes over one connection must agree exactly.
        passes = []
        for _ in range(2):
            pass_report, pass_snap, _ = load(req, work, 0, 1, COUNT_PASS[args.workload])
            problems.extend(check_window(pass_report))
            if pass_report["failed"]:
                problems.append("%d requests failed in a fixed-count pass" % pass_report["failed"])
            passes.append(snapshot_counts(pass_snap))
        if passes[0] != passes[1]:
            problems.append("server counters differ between two passes: %s vs %s"
                            % (passes[0], passes[1]))
        counts = passes[0]
    for name, value in counts.items():
        metrics[name] = (value, "count")

    spans_path = os.path.join(ROOT, ".bench_build", "spans-%s-%d.tsv" % (args.workload, args.seed))
    trace = run_json([TRACE, "--requests", req, "--limit", str(TRACE_LIMIT[args.workload]),
                      "--spans", spans_path])
    if trace["failed"]:
        problems.append("%d replayed requests failed" % trace["failed"])
    for name, s in trace["spans"].items():
        metrics[name + ".calls"] = (s["calls"], "count")
        metrics[name + ".self_ms"] = (s["self_ms"], "ms")
        metrics[name + ".p50_us"] = (s["p50_us"], "us")
    units = {"ns_per_access": "ns", "ratio": "ratio", "c_bytes": "bytes"}
    for name, value in trace["counts"].items():
        unit = next((u for k, u in units.items() if name.endswith(k)), "count")
        metrics[name] = (value, unit)

    warm = generate("warm_hits", args.seed, args.seconds, work)
    probe = run_json([PERF, "probe", "--requests", warm, "--threads",
                      str(connections("cold_mix"))])
    for name in ("runtime.cache.get_hit_ns", "runtime.cache.get_hit_ns_contended",
                 "runtime.metrics.count_ns", "runtime.metrics.count_ns_contended"):
        metrics[name] = (probe[name], "ns")

    completed = max(1, report["completed"])
    metrics["client.gen_lag_p99_ms"] = (report["gen_lag_p99_ms"], "ms")
    metrics["client.gen_late_fraction"] = (report["gen_late_fraction"], "ratio")
    metrics["client.cpu_ms_per_req"] = (report["client_cpu_ms"] / completed, "ms")
    metrics["client.error_rate"] = (report["failed"] / max(1, report["attempted"]), "ratio")
    return metrics


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except Invalid as e:
        log("run invalid: %s" % e)
        sys.exit(3)
    except subprocess.CalledProcessError as e:
        log("run invalid: %s" % e)
        sys.exit(3)
