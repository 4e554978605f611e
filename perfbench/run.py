#!/usr/bin/env python3
"""Benchmark of the tags-pepa reproduction, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the libraries, the
harness (perfbench/harness.cpp), tags_server and tags_client from source
into $CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
Every file the benchmark writes stays under that directory.

Workloads (inputs are a function of --seed alone):

  paper_figures  the published figure points on one thread: the fig06/07
                 exponential t-sweep, the fig08 integer-t optimiser row at
                 lambda = 5, two seed-picked shards of the fig09/10 H2
                 t-sweep, and the random and shortest-queue baselines.
                 Values are checked against perfbench/reference (copies of
                 results/fig06, fig08, fig09, fig10.csv) at their printed
                 precision.
  fast_paths     one thread, seed-ordered: cold solves of deep/narrow TAGS
                 and H2 chains (level-QBD), rare-timeout square chains
                 (NCD-AD), the square t = 50 chain both gates decline, the
                 paper's PEPA models (Fig 3 at K = 10 and 20, Fig 5) parsed,
                 derived and solved from source, and one batch-8 warm
                 t-sweep on a deep/narrow chain. Checked against
                 reference/fast_paths.csv (dense LU or tight Gauss-Seidel)
                 and, for PEPA, against the direct builders.
  serve_mix      tags_server with 2 workers and a durable store pre-seeded
                 before timing, driven by 2 client connections in closed
                 loop. Each client is a sweep tool re-running a paper
                 t-scan at three times the published resolution (see
                 make_scripts). Every answer is compared with tags_client
                 --oneshot outside the timed window.

Thread budget: OMP_NUM_THREADS = 1 for every program process; the campaigns
run their sweeps on one thread, the server on 2 workers. Runnable threads
stay at or below 4. Each process is pinned to fixed CPUs (the last allowed
CPU for a campaign; the last two for tags_server, the others for its
clients). The program's observability level is left at its default.

A run repeats its workload in passes of identical work until --seconds is
spent. The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the exit status is 0 only when every check passed. With --trace 0
the metrics are the end-to-end ones, from untraced passes:

  setup_s         process start to the first timed call, median of 21
                  set-ups (serve_mix: server start, store recovery and cache
                  warm-load, median over passes)
  campaign_s      wall time of the whole fixed campaign: the sum of its
                  operations, each at its median over the run's passes
                  (serve_mix: the longer client script, each request at the
                  median of the faster half of its answers over the passes)
  peak_rss_mb     peak resident memory of the harness, or of the server
  latency_ms_p50, latency_ms_p99
                  serve_mix: send to response line, pooled over the faster
                  half of each request's answers over the passes (about
                  1500 samples a run), shed probes excluded.
                  Campaigns: a delivered point's latency is the median wall
                  time of the public call that returns it
  throughput_rps  answered requests, or delivered points, per second of
                  campaign_s

A campaign operation is computation only, so its median over the passes is
the steadiest figure on a shared host: the fastest pass is a rare fast
stretch of the host, not the program. A served request also waits on the
socket and on the store's disk flush, and that part of its time swung from
2.5 to 7 ms (median over a run) between runs of one program on a shared
4-vCPU VM, so there the faster half of its answers is the steadier figure.

With --trace 1 they are the per-layer ones, from spans the benchmark records
around each public call it makes (the program itself is not instrumented
further; traced and untraced passes alternate, which gives the tracing
overhead) and from the counters, solve log and telemetry the program
exports; a layer the workload does not exercise reports 0. A line before the
result records the run's fingerprint (threads, CPUs, compiler, build type,
obs level, host steal time). Operations are checked solves, checked values
and requests; any failure makes "correct" false and the exit status 1.
"""

import argparse
import atexit
import concurrent.futures
import json
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper_figures", "fast_paths", "serve_mix")
SETUP_PROBES = 10  # before and again after the timed passes
SERVER_WORKERS = 2
BUILD_JOBS = 4


def fail(msg, code=2):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------

def build(root, out_dir):
    """Configure once, then build the harness, the daemon and its client (a
    no-op when up to date). Returns the directory holding the binaries."""
    cmake_dir = os.path.join(out_dir, "cmake")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(BUILD_JOBS, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  timeout=850)
            if proc.returncode != 0:
                fail("build step %s failed; see %s" % (" ".join(cmd[:2]), log_path), 3)
    return cmake_dir


def program_env():
    """Fixed thread budget; every knob that would change the program's
    behaviour is removed so each commit runs the same configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAGS_")}
    env["OMP_NUM_THREADS"] = "1"
    return env


def cpu_plan():
    """(campaign CPUs, server CPUs, client CPUs) from the allowed set: fixed
    CPUs, so the scheduler never migrates a timed thread, and the server
    and its clients never compete for one CPU when there are three or
    more."""
    cpus = sorted(os.sched_getaffinity(0))
    server = cpus[-SERVER_WORKERS:]
    clients = cpus[:-SERVER_WORKERS] or cpus
    return cpus[-1:], server, clients


def pinned(cpus):
    """preexec_fn that pins the child process to `cpus`."""
    return lambda: os.sched_setaffinity(0, cpus)


def read_steal():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# Per-layer counts from the program's counters and solve log
# ---------------------------------------------------------------------------

def solver_counts(counters, solves, nnz_of):
    """Count metrics of the ctmc and linalg layers. `solves` are steady-state
    solve-log records; `nnz_of` maps a chain size to its generator's
    nonzeros (for the computed Gauss-Seidel flops and bytes)."""
    acc = {"level-qbd": 0, "ncd-ad": 0, "gauss-seidel": 0}
    other = uncertified = gs_iter = 0
    declined_qbd = declined_ncd = tried_qbd = tried_ncd = 0
    gs_flops = gs_bytes = 0
    for r in solves:
        method = r["method"]
        if method in acc:
            acc[method] += 1
        else:
            other += 1
        if not (r["certified"] and r["converged"]):
            uncertified += 1
        attempts = r["attempts"]
        declined_qbd += attempts.count("level-qbd[gate:")
        declined_ncd += attempts.count("ncd-ad[gate:")
        tried_qbd += attempts.count("level-qbd")
        tried_ncd += attempts.count("ncd-ad")
        if method == "gauss-seidel":
            it, n = r["iterations"], r["n"]
            nnz = nnz_of.get(n, 0)
            if not nnz:
                print("warning: no generator size for a %d-state chain" % n,
                      file=sys.stderr)
            gs_iter += it
            # Computed from array sizes, per sweep: 2 flops per nonzero;
            # CSR values and column indices, row pointers, and the iterate
            # read and written once.
            gs_flops += it * 2 * nnz
            gs_bytes += it * (16 * nnz + 8 * (n + 1) + 16 * n)
    solves_n = len(solves)
    hits = counters.get("numerics.transpose_cache.hits", 0)
    misses = counters.get("numerics.transpose_cache.misses", 0)
    tried = tried_qbd + tried_ncd
    return {
        "ctmc.solves": solves_n,
        "ctmc.uncertified": uncertified,
        "ctmc.gs_iterations": gs_iter,
        "ctmc.accepted.level_qbd": acc["level-qbd"],
        "ctmc.accepted.ncd_ad": acc["ncd-ad"],
        "ctmc.accepted.gauss_seidel": acc["gauss-seidel"],
        "ctmc.accepted.other": other,
        "ctmc.gate_declined.level_qbd": declined_qbd,
        "ctmc.gate_declined.ncd_ad": declined_ncd,
        "ctmc.fast_path_yield":
            (acc["level-qbd"] + acc["ncd-ad"]) / tried if tried else 0.0,
        "ctmc.warm_hit_ratio":
            counters.get("ctmc.steady_state.warm_start.hits", 0) / solves_n
            if solves_n else 0.0,
        "linalg.gs_flops": gs_flops,
        "linalg.gs_bytes": gs_bytes,
        "linalg.transpose_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "linalg.ncd_sweeps": counters.get("ncd.sweeps", 0),
        "models.assembles": counters.get("ctmc.generator.assembles", 0),
        "models.rebinds": counters.get("ctmc.generator.rebinds", 0),
        "store.records_recovered": counters.get("store.records_recovered", 0),
        "store.cache_loaded": counters.get("store.cache_loaded", 0),
        "store.commits": counters.get("store.commits", 0),
    }


# Span names the harness records, reported as <name>_s (time per pass).
CAMPAIGN_SPANS = ("pepa.derive", "pepa.solve", "pepa.measure", "models.assemble",
                  "ctmc.solve", "approx.scan", "core.sweep", "core.scenario")
SERVE_LAYER = ("serve.queue_ms_p50", "serve.queue_ms_p99", "serve.solve_ms_p50",
               "serve.solve_ms_p99", "serve.overhead_ms_p50", "serve.cached_ms_p50",
               "serve.warm_ms_p50", "serve.cold_ms_p50", "serve.cache_hit_ratio",
               "serve.shed")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    if name.endswith("gs_flops"):
        return "flop"
    if name.endswith("gs_bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# In-process campaigns (paper_figures, fast_paths)
# ---------------------------------------------------------------------------

def last_json_line(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("%s printed nothing" % what)
    return json.loads(lines[-1])


def typical_ops(passes):
    """(median wall time over the passes, points) of each operation; every
    pass makes the same operations in the same order."""
    n_ops = len(passes[0]["ops"])
    if any(len(p["ops"]) != n_ops for p in passes):
        fail("passes made different operations")
    return [(median([p["ops"][i][0] for p in passes]), passes[0]["ops"][i][1])
            for i in range(n_ops)]


def run_campaign(args, harness, env, cpus):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference", os.path.join("perfbench", "reference")]
    setups = []

    def setup_probes():
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic_ns()
            proc = subprocess.run([harness] + common + ["--setup-probe"], env=env,
                                  capture_output=True, text=True, timeout=120,
                                  preexec_fn=pinned(cpus))
            if proc.returncode != 0:
                fail("harness set-up probe failed: %s" % proc.stderr.strip())
            setups.append((last_json_line(proc.stdout, "harness")["ready_ns"] - t0) * 1e-9)

    setup_probes()
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [harness] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, capture_output=True, text=True, timeout=170, preexec_fn=pinned(cpus))
    if proc.returncode != 0:
        fail("harness failed: %s" % proc.stderr.strip())
    raw = last_json_line(proc.stdout, "harness")
    setups.append((raw["ready_ns"] - t0) * 1e-9)
    setup_probes()  # half the set-ups before the passes, half after
    for f in raw["failures"]:
        print("check failed: %s" % f, file=sys.stderr)

    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = raw["pass_counts"]
    if any(c != counts[0] for c in counts[1:]):
        print("warning: program counts differ between passes", file=sys.stderr)

    fingerprint = {"passes": len(passes), "sweep_threads": 1}

    if not args.trace:
        ops = typical_ops(untraced)
        campaign = sum(wall for wall, _ in ops)
        # A point's latency is the wall time of the operation delivering it.
        lat = [wall * 1e3 for wall, n in ops for _ in range(n)]
        metrics = {
            "setup_s": (median(setups), "s"),
            "campaign_s": (campaign, "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
            "latency_ms_p50": (percentile(lat, 50), "ms"),
            "latency_ms_p99": (percentile(lat, 99), "ms"),
            "throughput_rps": (len(lat) / campaign, "1/s"),
        }
        fingerprint["latency_samples"] = len(lat)
        fingerprint["pass_wall_s"] = [round(p["wall_s"], 4) for p in untraced]
        return raw["attempted"], raw["failed"], metrics, fingerprint

    nnz_of = {n: nnz for n, nnz in raw["structures"]}
    first = counts[0]
    layer = solver_counts(first["counters"], first["solves"], nnz_of)
    layer["pepa.states"] = first["pepa_states"]
    layer["approx.scan_solves"] = first["scan_solves"]
    layer["core.sweep_points"] = first["sweep_points"]
    for name in CAMPAIGN_SPANS:
        layer[name + "_s"] = median(
            [sum((e - s) * 1e-9 for n, s, e in p["spans"] if n == name) for p in traced])
    layer["obs.span_coverage_pct"] = median(
        [100.0 * union_length([(s, e) for _, s, e in p["spans"]]) * 1e-9 / p["wall_s"]
         for p in traced])
    layer["obs.trace_overhead_pct"] = 100.0 * (
        median([p["wall_s"] for p in traced]) /
        median([p["wall_s"] for p in untraced]) - 1.0)
    for name in SERVE_LAYER:
        layer[name] = 0.0
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    return raw["attempted"], raw["failed"], metrics, fingerprint


# ---------------------------------------------------------------------------
# serve_mix: tags_server over its Unix socket
# ---------------------------------------------------------------------------

# The documented client (README, "The analysis server") explores the
# paper's TAGS chain by sending it new timeout rates: {"model": "tags",
# "params": {"lambda": 5, "t": 51}}. Each client connection here is such a
# sweep tool re-running a published t-scan at three times its resolution on
# one of the paper's chains: lambda 5, mu 10, buffers k1 = k2 = 10, with
# n = 6 ticks (figs 6-8) or n = 5 (fig 8's second row), over the fig06/07 t
# grid. The store holds the published grid points and the baselines from an
# earlier campaign, so those come back cached; the new points are rebinds
# of the client's warm model slot (the first one a cold solve). The
# proportions of the other kinds are assumed: a re-plot re-requests a few
# answered points (cache hits) and a few requests carry an already expired
# deadline (deadline_ms = 0), which the server must shed.
SCAN_CHAINS = (6, 5)                              # n, one chain per client
PUBLISHED_T = tuple(10 + 5 * i for i in range(29))  # fig06/07's grid
REFINE = 2        # new points per published interval, evenly spaced
JITTER = 0.25     # how far the seed moves each new point
REPLOT = 10       # answered points re-requested after the scan
PROBES = 5        # requests per client with an expired deadline
CHAIN = {"lambda": 5, "mu": 10, "k1": 10, "k2": 10}


def request_line(req_id, policy, params, deadline=None):
    body = {"op": "solve", "id": req_id, "model": policy, "params": params}
    if deadline is not None:
        body["deadline_ms"] = deadline
    return json.dumps(body, separators=(",", ":"))


def baselines():
    rates = {"lambda": CHAIN["lambda"], "mu": CHAIN["mu"], "k1": CHAIN["k1"]}
    return [("random", rates), ("shortest_queue", rates)]


def tags_point(n, t):
    return "tags", dict(CHAIN, n=n, t=t)


def make_scripts(seed):
    """(preseed request lines, one script per client). Script entries are
    (kind, line) with kind cached, cold, rebind or probe.

    Every seed gives each client the same number of each kind of request
    on the same chain, and the new points the same spacing within JITTER,
    so the solves cost about the same; the seed draws the new points within
    that margin, where the probes go and which points are re-plotted."""
    rng = random.Random(seed)
    preseed = list(baselines())
    scripts = []
    for c, n in enumerate(SCAN_CHAINS):
        preseed += [tags_point(n, t) for t in PUBLISHED_T]
        used = set(PUBLISHED_T)

        def fresh(lo, hi):
            while True:
                t = round(rng.uniform(lo, hi), 3)
                if lo < t < hi and t not in used:
                    used.add(t)
                    return t

        entries = [("cached",) + b for b in baselines()]
        for lo in PUBLISHED_T:
            entries.append(("cached",) + tags_point(n, lo))
            if lo == PUBLISHED_T[-1]:
                break
            for j in range(1, REFINE + 1):
                mid = lo + 5.0 * j / (REFINE + 1)
                kind = "cold" if (lo, j) == (PUBLISHED_T[0], 1) else "rebind"
                entries.append((kind,) + tags_point(n, fresh(mid - JITTER, mid + JITTER)))
        answered = list(entries)
        entries += [("cached",) + rng.choice(answered)[1:] for _ in range(REPLOT)]
        for _ in range(PROBES):
            t = fresh(PUBLISHED_T[0], PUBLISHED_T[-1])
            entries.insert(rng.randrange(3, len(entries) + 1), ("probe",) + tags_point(n, t))
        scripts.append([(kind, request_line("c%dr%d" % (c, i), policy, params,
                                            deadline=0 if kind == "probe" else None))
                        for i, (kind, policy, params) in enumerate(entries)])
    preseed_lines = [request_line("p%d" % i, policy, params)
                     for i, (policy, params) in enumerate(preseed)]
    return preseed_lines, scripts


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(path)
        self.buf = b""

    def roundtrip(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        out, self.buf = self.buf.split(b"\n", 1)
        return out.decode()

    def close(self):
        self.sock.close()


LIVE_SERVERS = set()


@atexit.register
def _stop_live_servers():
    """A run that fails midway still leaves no server running."""
    for server in list(LIVE_SERVERS):
        server.kill()


class Server:
    """One tags_server process; wait_ready() returns once it accepts requests."""

    def __init__(self, binary, workdir, store, env, cpus, telemetry=None):
        # Relative to the checkout root (every process runs there): a Unix
        # socket path must stay under ~107 bytes however deep the checkout.
        self.sock_path = os.path.relpath(os.path.join(workdir, "s.sock"))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        cmd = [binary, "--socket=%s" % self.sock_path, "--threads=%d" % SERVER_WORKERS,
               "--store=%s" % store]
        if telemetry:
            cmd.append("--telemetry-out=%s" % telemetry)
        self.log = open(os.path.join(workdir, "server.log"), "a")
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True, preexec_fn=pinned(cpus))
        LIVE_SERVERS.add(self)

    def wait_ready(self, timeout=60):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "tags_server listening on" not in line:
            self.kill()
            fail("tags_server did not start: %r" % line)

    def peak_rss_mb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def shutdown(self):
        try:
            conn = Connection(self.sock_path)
            conn.roundtrip('{"op":"shutdown"}')
            conn.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            fail("tags_server did not shut down")
        finally:
            LIVE_SERVERS.discard(self)
            self.proc.stdout.close()
            self.log.close()
        if self.proc.returncode != 0:
            fail("tags_server exited with status %d" % self.proc.returncode)

    def kill(self):
        LIVE_SERVERS.discard(self)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def drive(server, scripts):
    """Closed loop: one connection per script, each sending its next
    request when the previous answer arrived. Returns per-script lists of
    (send ns, answer ns, answer line)."""
    records = [[] for _ in scripts]
    errors = []

    def client(script, out):
        try:
            conn = Connection(server.sock_path)
            for _, line in script:
                t0 = time.monotonic_ns()
                reply = conn.roundtrip(line)
                out.append((t0, time.monotonic_ns(), reply))
            conn.close()
        except Exception as e:  # reported after the join; never silently lost
            errors.append(repr(e))

    threads = [threading.Thread(target=client, args=(s, r))
               for s, r in zip(scripts, records)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail("client failed: %s" % errors[0])
    return records


def result_part(line):
    pos = line.find('"result":')
    return line[pos:] if pos >= 0 else None


def scenario_key(line):
    """The request without its id: identical scenarios share a key."""
    body = json.loads(line)
    body.pop("id", None)
    body.pop("deadline_ms", None)
    return json.dumps(body, sort_keys=True)


# A warm-started answer agrees with the cold one-shot answer to the
# solvers' accuracy, not to the bit. Over whole scripts, two certified
# Gauss-Seidel solves of one chain from different starting vectors differ
# by up to 5e-5 relative on the loss rates above 1e-6, and by up to 1e-10
# absolute on the smaller ones (the smallest served is 3.8e-9); every other
# measure agrees far closer. The bound is four times that, so a loss rate
# 10% off fails down to 2e-9.
MEASURE_REL_TOL = 2e-4
MEASURE_ABS_TOL = 2e-10


def close_measures(a, b):
    """Served and reference result objects agree in every field, numbers to
    the solvers' accuracy (warm-started iterative answers only)."""
    def close(x, y, key):
        if isinstance(x, dict) and isinstance(y, dict):
            return x.keys() == y.keys() and all(close(x[k], y[k], k) for k in x)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        if numeric and key != "n_states":
            return abs(x - y) <= MEASURE_REL_TOL * abs(y) + MEASURE_ABS_TOL
        return key == "pi_digest" or x == y

    return close(json.loads("{" + a)["result"], json.loads("{" + b)["result"], "")


def check_answers(script, replies, reference, origins):
    """Failure accounting for one script: (attempted, failed, notes, near),
    where `near` counts answers accepted within tolerance, not bytes.

    `origins` maps a scenario to the (result bytes, warm) of the answer the
    store already holds. A cached reply must repeat its origin's bytes
    exactly; a fresh reply must equal the cold one-shot bytes, except that a
    warm-started iterative solve may differ from them in its last digits
    (serve/engine.hpp promises byte identity for cold solves only) and is
    then held to the measures' accuracy instead."""
    origins = dict(origins)
    for (kind, line), reply in zip(script, replies):
        resp = json.loads(reply)
        if kind != "probe" and resp.get("ok") and not resp["cached"]:
            origins.setdefault(scenario_key(line), (result_part(reply), resp["warm"]))
    failed, near, notes = 0, 0, []
    for (kind, line), reply in zip(script, replies):
        resp = json.loads(reply)
        if kind == "probe":
            ok = resp.get("shed") is True and resp.get("reason") == "deadline"
        elif not resp.get("ok"):
            ok = False  # an error, or a shed although the deadline had not expired
        else:
            served = result_part(reply)
            origin = origins.get(scenario_key(line))
            ref = reference[scenario_key(line)]
            res = resp["result"]
            # Closed-form policies have no chain, hence no certificate.
            ok = (res["converged"] and origin is not None
                  and (res["certified"] or res["method"] == "closed-form"))
            if ok and resp["cached"]:
                ok = served == origin[0]
            if ok and served != ref:
                ok = origin[1] and close_measures(served, ref)
                near += ok
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append("%s request %s -> %s" % (kind, line, reply[:300]))
    return len(script), failed, notes, near


def oneshot_reference(client_bin, lines, env):
    """The result object tags_client --oneshot gives for each scenario
    (untimed; up to four one-shot processes at a time)."""
    keys = {}
    for line in lines:
        keys.setdefault(scenario_key(line), line)

    def solve(line):
        proc = subprocess.run([client_bin, "--oneshot", "--request=%s" % line], env=env,
                              capture_output=True, text=True, timeout=120)
        out = proc.stdout.strip()
        if proc.returncode != 0 or result_part(out) is None:
            fail("one-shot reference failed for %s: %s" % (line, proc.stderr.strip()))
        return result_part(out)

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(solve, keys.values()))
    return dict(zip(keys, answers))


def run_serve(args, bin_dir, env, cpus):
    _, server_cpus, client_cpus = cpus
    os.sched_setaffinity(0, client_cpus)
    server_bin = os.path.join(bin_dir, "tags_server")
    work = os.path.join(os.path.dirname(bin_dir), "work", "serve_mix")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    preseed, scripts = make_scripts(args.seed)

    # Pre-seed the durable store (untimed): these answers are recovered and
    # warm-loaded into the cache by every timed server start.
    seed_store = os.path.join(work, "seed_store")
    server = Server(server_bin, work, seed_store, env, server_cpus)
    server.wait_ready()
    conn = Connection(server.sock_path)
    preseed_replies = [conn.roundtrip(line) for line in preseed]
    conn.close()
    server.shutdown()

    passes = []
    start = time.monotonic()
    min_passes = 4 if args.trace else 3
    while len(passes) < min_passes or (
            time.monotonic() - start + median([p["wall_s"] for p in passes])
            <= args.seconds):
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        store = os.path.join(work, "store%d" % k)
        shutil.copytree(seed_store, store)
        telemetry = os.path.join(work, "telemetry%d.json" % k) if traced else None
        t0 = time.monotonic_ns()
        server = Server(server_bin, work, store, env, server_cpus, telemetry)
        server.wait_ready()
        ready = time.monotonic_ns()
        records = drive(server, scripts)
        wall = (max(r[1] for rs in records for r in rs) - ready) * 1e-9
        rss = server.peak_rss_mb()
        server.shutdown()
        shutil.rmtree(store, ignore_errors=True)
        p = {"setup_s": (ready - t0) * 1e-9, "wall_s": wall, "records": records,
             "traced": traced, "rss_mb": rss}
        if telemetry:
            with open(telemetry) as f:
                p["telemetry"] = json.load(f)
        passes.append(p)

    reference = oneshot_reference(
        os.path.join(bin_dir, "tags_client"),
        preseed + [line for s in scripts for kind, line in s if kind != "probe"], env)

    # The pre-seed answers are checked like any other, and become the
    # origins of the answers each timed server warm-loads from the store.
    preseed_script = [("preseed", line) for line in preseed]
    attempted, failed, notes, near = check_answers(preseed_script, preseed_replies,
                                                   reference, {})
    origins = {}
    for line, reply in zip(preseed, preseed_replies):
        resp = json.loads(reply)
        if resp.get("ok"):
            origins[scenario_key(line)] = (result_part(reply), resp["warm"])
    for p in passes:
        for script, records in zip(scripts, p["records"]):
            a, f, n, w = check_answers(script, [r[2] for r in records], reference,
                                       origins)
            attempted += a
            failed += f
            notes += n
            near += w
    for n in notes[:10]:
        print("check failed: %s" % n, file=sys.stderr)

    fingerprint = {"passes": len(passes), "server_workers": SERVER_WORKERS,
                   "clients": len(scripts), "answers_within_tolerance": near}
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not args.trace:
        # Every pass replays the same scripts against a fresh server, so
        # each request is answered once per pass. A request's samples are
        # the faster half of its answers, which leaves out the slow disk
        # flushes and host stalls (see the module notes). The latency
        # percentiles pool those samples (about 1500 a run, so over ten lie
        # beyond p99); a script's time is the sum of its requests' medians
        # of them.
        def faster_half(xs):
            return sorted(xs)[:(len(xs) + 1) // 2]

        samples = [[faster_half([(p["records"][c][i][1] - p["records"][c][i][0]) * 1e-9
                                 for p in untraced]) for i in range(len(script))]
                   for c, script in enumerate(scripts)]
        campaign = max(sum(median(xs) for xs in reqs) for reqs in samples)
        answered = sum(kind != "probe" for script in scripts for kind, _ in script)
        lat = [x * 1e3 for script, reqs in zip(scripts, samples)
               for (kind, _), xs in zip(script, reqs) if kind != "probe" for x in xs]
        metrics = {
            "setup_s": (median([p["setup_s"] for p in passes]), "s"),
            "campaign_s": (campaign, "s"),
            "peak_rss_mb": (median([p["rss_mb"] for p in passes]), "MB"),
            "latency_ms_p50": (percentile(lat, 50), "ms"),
            "latency_ms_p99": (percentile(lat, 99), "ms"),
            "throughput_rps": (answered / campaign, "1/s"),
        }
        fingerprint["latency_samples"] = len(lat)
        fingerprint["pass_wall_s"] = [round(p["wall_s"], 4) for p in untraced]
        return attempted, failed, metrics, fingerprint

    layer = serve_layers(scripts, traced)
    tel = traced[0]["telemetry"]
    one_per_chain = [next(line for kind, line in s if kind == "cold") for s in scripts]
    proc = subprocess.run([os.path.join(bin_dir, "perfbench_harness"), "--chain-sizes"],
                          input="\n".join(one_per_chain) + "\n", env=env,
                          capture_output=True, text=True, timeout=120)
    nnz_of = {n: nnz for n, nnz in map(json.loads, proc.stdout.split())}
    layer.update(solver_counts(tel.get("counters", {}),
                               [r for r in tel.get("solves", [])
                                if r.get("context") == "steady_state"], nnz_of))
    for name in ("pepa.states", "approx.scan_solves", "core.sweep_points"):
        layer[name] = 0
    for name in CAMPAIGN_SPANS:
        layer[name + "_s"] = 0.0
    layer["obs.span_coverage_pct"] = median(
        [100.0 * union_length([(r[0], r[1]) for rs in p["records"] for r in rs]) * 1e-9
         / p["wall_s"] for p in traced])
    layer["obs.trace_overhead_pct"] = 100.0 * (
        median([p["wall_s"] for p in traced]) /
        median([p["wall_s"] for p in untraced]) - 1.0)
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    return attempted, failed, metrics, fingerprint


def serve_layers(scripts, passes):
    """serve.* metrics from each response's queue_ms / solve_ms / cached /
    warm fields, over the traced passes."""
    queue, solve, overhead = [], [], []
    by_kind = {"cached": [], "warm": [], "cold": []}
    hits = answered = shed = 0
    for p in passes:
        for script, records in zip(scripts, p["records"]):
            for (t0, t1, reply) in records:
                resp = json.loads(reply)
                if resp.get("shed"):
                    shed += 1
                    continue
                if not resp.get("ok"):
                    continue
                lat = (t1 - t0) * 1e-6
                answered += 1
                q, s = resp["queue_ms"], resp["solve_ms"]
                queue.append(q)
                solve.append(s)
                overhead.append(lat - q - s)
                if resp["cached"]:
                    hits += 1
                    by_kind["cached"].append(lat)
                elif resp["warm"]:
                    by_kind["warm"].append(lat)
                else:
                    by_kind["cold"].append(lat)
    n = max(1, len(passes))
    return {
        "serve.queue_ms_p50": percentile(queue, 50),
        "serve.queue_ms_p99": percentile(queue, 99),
        "serve.solve_ms_p50": percentile(solve, 50),
        "serve.solve_ms_p99": percentile(solve, 99),
        "serve.overhead_ms_p50": percentile(overhead, 50),
        "serve.cached_ms_p50": percentile(by_kind["cached"], 50),
        "serve.warm_ms_p50": percentile(by_kind["warm"], 50),
        "serve.cold_ms_p50": percentile(by_kind["cold"], 50),
        "serve.cache_hit_ratio": hits / answered if answered else 0.0,
        "serve.shed": shed / n,
    }


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for rel in ("src/CMakeLists.txt", "tools/tags_server.cpp", "tools/tags_client.cpp",
                "perfbench/CMakeLists.txt", "perfbench/harness.cpp"):
        if not os.path.isfile(os.path.join(root, rel)):
            fail("run from the repository root: %s is missing" % rel)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    bin_dir = build(root, out_dir)
    harness = os.path.join(bin_dir, "perfbench_harness")
    env = program_env()
    cpus = cpu_plan()

    steal0 = read_steal()
    if args.workload == "serve_mix":
        attempted, failed, metrics, fp = run_serve(args, bin_dir, env, cpus)
    else:
        attempted, failed, metrics, fp = run_campaign(args, harness, env, cpus[0])
    steal1 = read_steal()

    proc = subprocess.run([harness, "--fingerprint"], env=env, capture_output=True,
                          text=True, timeout=60)
    fp.update(last_json_line(proc.stdout, "harness"))
    fp.update(workload=args.workload, seed=args.seed, trace=args.trace,
              nproc=os.cpu_count(), omp_num_threads=env["OMP_NUM_THREADS"],
              cpu_model=cpu_model(), campaign_cpus=cpus[0], server_cpus=cpus[1],
              client_cpus=cpus[2])
    if steal0 and steal1 and steal1[1] > steal0[1]:
        fp["steal_pct"] = 100.0 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    print(json.dumps({"fingerprint": fp}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
