#!/usr/bin/env python3
"""End-to-end smoke test for the tags_server daemon.

Starts the daemon on a throwaway Unix socket, then scripts the conversation
the server exists to serve:

  1. a solve request (cold: "cached":false),
  2. the identical request again ("cached":true, byte-identical "result"),
  3. the same request through `tags_client --oneshot` (no daemon) — the
     "result" object must match the served bytes exactly,
  4. stats (cache_hits >= 1),
  5. a deadline_ms=0 request (deterministically shed, reason "deadline"),
  6. an invalid-parameter request (error response, daemon stays up),
  7. ping, then shutdown.

On shutdown the daemon writes its telemetry export; tools/check_bench_json.py
validates it against schema v3 (including the "server" section) and, in
obs-enabled builds, asserts the serve counters actually moved.

Responses carry functional fields (ok/cached/shed) maintained by the serve
layer itself, so steps 1-7 are asserted identically in obs-off builds; only
the exported-counter checks are conditional (check_bench_json skips them
when obs_level < 0).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

SOLVE_PARAMS = '{"lambda":5,"mu":10,"t":50,"n":2,"k1":3,"k2":3}'


def solve_request(req_id, extra="", params=SOLVE_PARAMS):
    return ('{"op":"solve","id":"%s","model":"tags","params":%s,"want_pi":true%s}'
            % (req_id, params, extra))


def fail(msg):
    print("serve_smoke: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def result_part(line):
    pos = line.find('"result":')
    if pos < 0:
        fail("no result object in response: %s" % line)
    return line[pos:]


def client_lines(client, socket, args, timeout=120):
    cmd = [client, "--socket=%s" % socket] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        fail("client %s exited %d: %s" % (args, proc.returncode, proc.stderr))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("client %s produced no output" % args)
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--server", required=True)
    ap.add_argument("--client", required=True)
    ap.add_argument("--check", required=True)
    ap.add_argument("--python", default=sys.executable)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir, exist_ok=True)
    telemetry = os.path.join(args.workdir, "telemetry.json")
    prom = os.path.join(args.workdir, "metrics.prom")
    # AF_UNIX paths are limited to ~107 bytes; build trees run long, so the
    # socket lives under a short tmpdir instead of the workdir.
    sockdir = tempfile.mkdtemp(prefix="tags_srv_")
    socket = os.path.join(sockdir, "s.sock")

    server = subprocess.Popen(
        [args.server, "--socket=%s" % socket, "--threads=2",
         "--cache-capacity=32", "--queue-depth=8",
         "--telemetry-out=%s" % telemetry, "--metrics-prom=%s" % prom],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = {}

        def read_banner():
            banner["line"] = server.stdout.readline()

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        reader.join(timeout=60)
        if "line" not in banner or "tags_server listening on" not in banner["line"]:
            fail("server did not announce readiness: %r" % banner.get("line"))

        # 1. Cold solve.
        first = client_lines(args.client, socket,
                             ["--request=%s" % solve_request("s1")])[0]
        if '"ok":true' not in first or '"cached":false' not in first:
            fail("cold solve not served fresh: %s" % first)

        # 2. Identical request: served from the cache, bit-identical result.
        second = client_lines(args.client, socket,
                              ["--request=%s" % solve_request("s2")])[0]
        if '"cached":true' not in second:
            fail("repeat request was not a cache hit: %s" % second)
        if result_part(first) != result_part(second):
            fail("cache hit changed the result bytes:\n%s\n%s" % (first, second))

        # 3. One-shot (no daemon) equals the served answer byte-for-byte.
        oneshot = subprocess.run(
            [args.client, "--oneshot", "--request=%s" % solve_request("s1")],
            capture_output=True, text=True, timeout=120)
        if oneshot.returncode != 0:
            fail("oneshot failed: %s" % oneshot.stderr)
        if result_part(first) != result_part(oneshot.stdout.strip()):
            fail("served and one-shot results differ:\n%s\n%s"
                 % (first, oneshot.stdout.strip()))

        # 4. Stats reflect the hit.
        stats_line = client_lines(args.client, socket, ["--stats"])[0]
        stats = json.loads(stats_line)["stats"]
        if stats["cache_hits"] < 1:
            fail("stats show no cache hit: %s" % stats_line)
        if stats["requests"] < 2:
            fail("stats undercount requests: %s" % stats_line)

        # 5. A request whose deadline already passed is shed, not hung. It
        #    must use a fresh rate point: a cached one would be answered on
        #    the submit fast path without ever reaching the queue.
        shed_params = '{"lambda":5,"mu":10,"t":60,"n":2,"k1":3,"k2":3}'
        shed = client_lines(
            args.client, socket,
            ["--request=%s" % solve_request("d1", ',"deadline_ms":0',
                                            params=shed_params)])[0]
        if '"shed":true' not in shed or '"reason":"deadline"' not in shed:
            fail("expired request was not shed: %s" % shed)
        stats2 = json.loads(client_lines(args.client, socket,
                                         ["--stats"])[0])["stats"]
        if stats2["jobs_shed"] < 1 or stats2["deadline_missed"] < 1:
            fail("shed counters did not move: %s" % stats2)

        # 6. Bad parameters produce an error response and the daemon survives.
        bad = ('{"op":"solve","id":"e1","model":"tags",'
               '"params":{"lambda":-1}}')
        err = client_lines(args.client, socket, ["--request=%s" % bad])[0]
        if '"ok":false' not in err or '"error":' not in err:
            fail("invalid request not rejected cleanly: %s" % err)

        # 7. Ping, then orderly shutdown.
        ping = client_lines(args.client, socket, ["--ping"])[0]
        if '"ok":true' not in ping:
            fail("ping failed: %s" % ping)
        ack = client_lines(args.client, socket, ["--shutdown"])[0]
        if '"ok":true' not in ack:
            fail("shutdown not acknowledged: %s" % ack)
        if server.wait(timeout=120) != 0:
            fail("server exited with status %d" % server.returncode)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        shutil.rmtree(sockdir, ignore_errors=True)

    # Telemetry: schema v3 with a "server" section; in obs-enabled builds the
    # serve counters must have moved (check_bench_json skips the counter
    # assertions when the export says obs was compiled out).
    if not os.path.exists(telemetry):
        fail("server wrote no telemetry export at %s" % telemetry)
    if not os.path.exists(prom):
        fail("server wrote no Prometheus export at %s" % prom)
    check = subprocess.run(
        [args.python, args.check, telemetry,
         "--require", "server.requests=+4",
         "--require", "server.cache_hit=+1",
         "--require", "server.cache_miss=+1",
         "--require", "server.jobs_shed=+1",
         "--require", "server.deadline_missed=+1"],
        capture_output=True, text=True, timeout=120)
    sys.stdout.write(check.stdout)
    sys.stderr.write(check.stderr)
    if check.returncode != 0:
        fail("telemetry validation failed")

    print("serve_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
