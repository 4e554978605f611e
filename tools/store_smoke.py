#!/usr/bin/env python3
"""End-to-end smoke for the durable solve-record store.

Drives the real fig06 bench binary through the whole durability loop:

 1. cold run with --store=DIR    -> journals every shard, commits the CSV
 2. warm rerun, same store       -> every shard resumed, CSV byte-identical
 3. env-armed crash mid-sweep    -> the process dies by SIGKILL in a commit
 4. resume after the crash       -> still byte-identical to the cold run
 5. store_query --stats/--verify -> every record re-verified, no drops
 6. store_query --dump-bench     -> the committed CSV round-trips exactly
 7. check_bench_json.py          -> telemetry v4 store counters conform

Exercised this way, the store's crash-safety claims are checked against
the same binaries an experiment campaign would use, not just the unit
scaffolding.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys


def log(msg):
    print(f"[store_smoke] {msg}", flush=True)


def fail(msg):
    print(f"[store_smoke] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def run_fig(binary, cwd, store, extra_env=None, expect_kill=False):
    os.makedirs(cwd, exist_ok=True)
    env = dict(os.environ)
    env.pop("TAGS_STORE_CRASH_AFTER_COMMITS", None)
    env.pop("TAGS_STORE_CRASH_BEFORE_INDEX", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [binary, f"--store={store}", "--threads=2"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    if expect_kill:
        if proc.returncode != -signal.SIGKILL:
            fail(f"expected SIGKILL, got returncode {proc.returncode}\n{proc.stdout}{proc.stderr}")
        return proc
    if proc.returncode != 0:
        fail(f"fig06 exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc


def resumed_count(stdout):
    m = re.search(r"(\d+) shards \((\d+) resumed\)", stdout)
    if not m:
        fail(f"no sweep-stats line in output:\n{stdout}")
    return int(m.group(1)), int(m.group(2))


def read_bytes(path):
    if not os.path.exists(path):
        fail(f"missing artifact: {path}")
    with open(path, "rb") as f:
        return f.read()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fig06", required=True)
    ap.add_argument("--store-query", required=True)
    ap.add_argument("--check", required=True)
    ap.add_argument("--python", default=sys.executable)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    store = os.path.join(args.workdir, "store")
    run1 = os.path.join(args.workdir, "run_cold")
    run2 = os.path.join(args.workdir, "run_warm")
    run3 = os.path.join(args.workdir, "run_crash")
    run4 = os.path.join(args.workdir, "run_resume")

    # 1. Cold run: nothing to resume, everything journalled.
    out = run_fig(args.fig06, run1, store)
    shards, resumed = resumed_count(out.stdout)
    if resumed != 0:
        fail(f"cold run resumed {resumed} shards from an empty store")
    log(f"cold run: {shards} shards journalled")
    cold_csv = read_bytes(os.path.join(run1, "fig06.csv"))
    if not cold_csv:
        fail("cold run wrote an empty CSV")

    # 2. Warm rerun: every shard replays from the store, bytes identical.
    out = run_fig(args.fig06, run2, store)
    shards2, resumed2 = resumed_count(out.stdout)
    if (shards2, resumed2) != (shards, shards):
        fail(f"warm rerun resumed {resumed2}/{shards2}, want {shards}/{shards}")
    if read_bytes(os.path.join(run2, "fig06.csv")) != cold_csv:
        fail("warm rerun CSV differs from the cold run")
    log(f"warm rerun: {resumed2}/{shards2} shards resumed, CSV byte-identical")

    # 3. Crash mid-sweep against a FRESH store: the env hooks arm the store
    # to SIGKILL itself inside a commit, before the index publish.
    crash_store = os.path.join(args.workdir, "crash_store")
    run_fig(args.fig06, run3, crash_store,
            extra_env={"TAGS_STORE_CRASH_AFTER_COMMITS": "3",
                       "TAGS_STORE_CRASH_BEFORE_INDEX": "1"},
            expect_kill=True)
    log("crash run: fig06 died by SIGKILL mid-commit as armed")

    # 4. Resume from the crashed store: partial replay, identical output.
    out = run_fig(args.fig06, run4, crash_store)
    shards4, resumed4 = resumed_count(out.stdout)
    if resumed4 == 0 or resumed4 >= shards4:
        fail(f"post-crash run resumed {resumed4}/{shards4}; expected a partial replay")
    if read_bytes(os.path.join(run4, "fig06.csv")) != cold_csv:
        fail("post-crash resume CSV differs from the cold run")
    log(f"post-crash resume: {resumed4}/{shards4} shards replayed, CSV byte-identical")

    # 5. store_query stats + full verification (re-reads every frame).
    for flags in (["--stats"], ["--verify"]):
        proc = subprocess.run([args.store_query, f"--store={store}"] + flags,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"store_query {flags} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    log("store_query --stats/--verify clean")

    # 6. The committed kBench record round-trips the published CSV.
    proc = subprocess.run([args.store_query, f"--store={store}", "--dump-bench=fig06"],
                          capture_output=True, timeout=60)
    if proc.returncode != 0 or proc.stdout != cold_csv:
        fail("dump-bench payload differs from the published CSV")
    log("dump-bench round-trips the CSV bit-exactly")

    # 7. Telemetry schema v4: the warm rerun's store counters must show the
    # resume.
    telemetry = os.path.join(run2, "results", "fig06_telemetry.json")
    proc = subprocess.run(
        [args.python, args.check,
         "--require", "store.shards_resumed=+1",
         "--require", "store.lookup_hits=+1",
         telemetry],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"check_bench_json failed\n{proc.stdout}{proc.stderr}")
    log("telemetry v4 store counters conform")

    log("OK")


if __name__ == "__main__":
    main()
