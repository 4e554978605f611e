#!/usr/bin/env python3
"""Validate a bench telemetry JSON file against the v1..v6 schema.

Usage: check_bench_json.py [--require SECTION.FIELD[=VALUE|=+N]] ...
                           <telemetry.json> [...]

--require (repeatable) additionally asserts that every file carries
SECTION.FIELD, split on the first dot: SECTION is "gauges" (FIELD is then
a registry gauge name, which may itself contain dots) or one of the fixed
sections "server" (v3+) or "store" (v4+). With =VALUE the
field must also equal VALUE (within 1e-9), and with =+N (e.g. =+1) it must
be at least N. Used by the bench fixtures and smoke harnesses to pin down
report invariants (e.g. that the parallel sweep produced bit-identical
results).

Stdlib only. Exit 0 when every file conforms, 1 otherwise with one line per
problem.

Zero-length files are rejected outright: every writer in the repo
publishes via write-temp-then-rename, so an empty artifact always means a
failed or interrupted export, never a legitimate document.

The schema (see README "Observability"):

  {
    "id": str,
    "schema_version": 6,         # 1..5 accepted for earlier files
    "obs_level": int,            # 0 off, 1 metrics
    "timers": {span_name: {"count": int, "total_ms": num, "self_ms": num}},
    "spans": [{"id": int, "parent": int, "thread": int, "name": str,
               "start_ms": num, "end_ms": num, "self_ms": num,
               "num": {key: num}?, "str": {key: str}?}],   # v2 only
    "spans_dropped": int,        # v2 only
    "counters": {name: int},
    "gauges": {name: num},
    "histograms": {name: {"count": int, "sum": num, "p50": num,
                          "p90": num, "p99": num}},
    "solves": [{"context": str, "method": str, "n": int, "iterations": int,
                "residual": num, "relative_residual": num, "converged": bool,
                "diverged": bool, "certified": bool, "wall_ms": num,
                "condition": num?, ...}],
    "solves_dropped": int,
    "server": {"requests": int, "cache_hit": int, "cache_miss": int,
               "cache_evicted": int, "jobs_shed": int,
               "deadline_missed": int, "queue_depth": num,
               "cache_size": num},                         # v3+
    "store": {"records_appended": int, "commits": int,
              "records_dropped": int, "records_recovered": int,
              "decode_failures": int, "lookups": int, "lookup_hits": int,
              "shards_journaled": int, "shards_resumed": int,
              "cache_loaded": int, "records": num, "bytes": num},  # v4+
  }

Schema v5 documents also carry an "ncd" section, which v6 dropped with the
solver it described; it is not checked.

Span entries are additionally checked for causal consistency: ids unique
and positive, timestamps monotonic (end >= start), parents listed before
their children with child intervals inside the parent's (same-thread
children only — cross-thread spans overlap by design), and self time
nonnegative and no larger than the duration.

An empty document (all collections empty) is valid — that is what a run
at TAGS_OBS_LEVEL=0 produces.
"""

import json
import sys

NUMBER = (int, float)


# The fixed sections: name -> (first schema version, fields).
SECTIONS = {
    "server": (3, (
        ("requests", int),
        ("cache_hit", int),
        ("cache_miss", int),
        ("cache_evicted", int),
        ("jobs_shed", int),
        ("deadline_missed", int),
        ("queue_depth", NUMBER),
        ("cache_size", NUMBER),
    )),
    "store": (4, (
        ("records_appended", int),
        ("commits", int),
        ("records_dropped", int),
        ("records_recovered", int),
        ("decode_failures", int),
        ("lookups", int),
        ("lookup_hits", int),
        ("shards_journaled", int),
        ("shards_resumed", int),
        ("cache_loaded", int),
        ("records", NUMBER),
        ("bytes", NUMBER),
    )),
}


def check(path, requirements=()):
    problems = []

    def err(msg):
        problems.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]
    if not raw.strip():
        return [f"{path}: zero-length artifact (failed or interrupted export)"]
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        return [f"{path}: invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]

    def field(name, types):
        if name not in doc:
            err(f"missing required field '{name}'")
            return None
        if not isinstance(doc[name], types) or isinstance(doc[name], bool):
            err(f"field '{name}' has wrong type {type(doc[name]).__name__}")
            return None
        return doc[name]

    field("id", str)
    version = field("schema_version", int)
    if version not in (None, 1, 2, 3, 4, 5, 6):
        err(f"unsupported schema_version {doc['schema_version']}")
    field("obs_level", int)
    field("solves_dropped", int)

    timers = field("timers", dict)
    for span_name, stat in (timers or {}).items():
        if not isinstance(stat, dict):
            err(f"timer '{span_name}' must be an object")
            continue
        for key, types in (("count", int), ("total_ms", NUMBER), ("self_ms", NUMBER)):
            if not isinstance(stat.get(key), types) or isinstance(stat.get(key), bool):
                err(f"timer '{span_name}' field '{key}' missing or wrong type")

    if version in (2, 3, 4, 5, 6):
        field("spans_dropped", int)
        spans = field("spans", list)
        seen = {}  # id -> record, in listed (parent-before-child) order
        span_fields = (
            ("id", int),
            ("parent", int),
            ("thread", int),
            ("name", str),
            ("start_ms", NUMBER),
            ("end_ms", NUMBER),
            ("self_ms", NUMBER),
        )
        for i, rec in enumerate(spans or []):
            if not isinstance(rec, dict):
                err(f"spans[{i}] must be an object")
                continue
            bad = False
            for key, types in span_fields:
                v = rec.get(key)
                if not isinstance(v, types) or isinstance(v, bool):
                    err(f"spans[{i}] field '{key}' missing or wrong type")
                    bad = True
            if bad:
                continue
            if rec["id"] <= 0:
                err(f"spans[{i}] id must be positive")
            if rec["id"] in seen:
                err(f"spans[{i}] duplicate id {rec['id']}")
            if rec["end_ms"] < rec["start_ms"]:
                err(f"spans[{i}] ({rec['name']}) end_ms precedes start_ms")
            duration = rec["end_ms"] - rec["start_ms"]
            if rec["self_ms"] < 0 or rec["self_ms"] > duration * 1.001 + 1e-6:
                err(
                    f"spans[{i}] ({rec['name']}) self_ms {rec['self_ms']} "
                    f"outside [0, duration {duration}]"
                )
            if rec["parent"] != 0:
                parent = seen.get(rec["parent"])
                if parent is None:
                    # Orphans are legitimate only when the store overflowed.
                    if doc.get("spans_dropped", 0) == 0:
                        err(
                            f"spans[{i}] ({rec['name']}) parent {rec['parent']} "
                            "not listed before it (parent-before-child order)"
                        )
                elif parent["thread"] == rec["thread"] and (
                    rec["start_ms"] < parent["start_ms"] - 1e-6
                    or rec["end_ms"] > parent["end_ms"] + 1e-6
                ):
                    err(
                        f"spans[{i}] ({rec['name']}) interval escapes its "
                        f"same-thread parent {parent['name']}"
                    )
            for attrs, types in (("num", NUMBER), ("str", str)):
                if attrs in rec:
                    if not isinstance(rec[attrs], dict):
                        err(f"spans[{i}] field '{attrs}' must be an object")
                        continue
                    for k, v in rec[attrs].items():
                        if not isinstance(v, types) or isinstance(v, bool):
                            err(f"spans[{i}] attribute '{k}' wrong type")
            seen[rec["id"]] = rec

    counters = field("counters", dict)
    for name, v in (counters or {}).items():
        if not isinstance(v, int) or isinstance(v, bool):
            err(f"counter '{name}' must be an integer")

    gauges = field("gauges", dict)
    for name, v in (gauges or {}).items():
        if not isinstance(v, NUMBER) or isinstance(v, bool):
            err(f"gauge '{name}' must be a number")

    hists = field("histograms", dict)
    for name, h in (hists or {}).items():
        if not isinstance(h, dict):
            err(f"histogram '{name}' must be an object")
            continue
        for key in ("count", "sum", "p50", "p90", "p99"):
            v = h.get(key)
            # percentiles may be null if the writer saw non-finite values
            if v is not None and (not isinstance(v, NUMBER) or isinstance(v, bool)):
                err(f"histogram '{name}' field '{key}' missing or wrong type")

    solves = field("solves", list)
    required = (
        ("context", str),
        ("method", str),
        ("n", int),
        ("iterations", int),
        ("residual", (NUMBER, type(None))),
        ("relative_residual", (NUMBER, type(None))),
        ("converged", bool),
        ("diverged", bool),
        ("certified", bool),
        ("wall_ms", NUMBER),
    )
    for i, rec in enumerate(solves or []):
        if not isinstance(rec, dict):
            err(f"solves[{i}] must be an object")
            continue
        for key, types in required:
            if key not in rec:
                err(f"solves[{i}] missing field '{key}'")
            elif types is not bool and isinstance(rec[key], bool):
                err(f"solves[{i}] field '{key}' wrong type")
            elif not isinstance(rec[key], types):
                err(f"solves[{i}] field '{key}' wrong type")
        # Optional: condition estimate, present only on dense-LU solves
        # (null when the estimate overflowed to a non-finite value).
        cond = rec.get("condition")
        if cond is not None and (not isinstance(cond, NUMBER) or isinstance(cond, bool)):
            err(f"solves[{i}] field 'condition' wrong type")

    sections = {"gauges": gauges}
    for name, (since, fields) in SECTIONS.items():
        if version is None or version < since:
            continue
        sections[name] = field(name, dict)
        for key, types in fields:
            v = (sections[name] or {}).get(key)
            if not isinstance(v, types) or isinstance(v, bool):
                err(f"{name} field '{key}' missing or wrong type")

    for spec in requirements:
        target, _, want = spec.partition("=")
        section, _, name = target.partition(".")
        v = (sections.get(section) or {}).get(name)
        if not isinstance(v, NUMBER) or isinstance(v, bool):
            err(f"required {section} field '{name}' missing")
        elif want.startswith("+"):
            if v < float(want[1:]):
                err(f"{section} field '{name}' is {v}, expected at least {want[1:]}")
        elif want and abs(v - float(want)) > 1e-9:
            err(f"{section} field '{name}' is {v}, expected {want}")

    return problems


def main(argv):
    required = []
    paths = []
    i = 1
    while i < len(argv):
        if argv[i] == "--require" and i + 1 < len(argv):
            required.append(argv[i + 1])
            i += 2
        elif argv[i].startswith("--require="):
            required.append(argv[i].split("=", 1)[1])
            i += 1
        else:
            paths.append(argv[i])
            i += 1
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    all_problems = []
    for path in paths:
        all_problems += check(path, required)
    for p in all_problems:
        print(p, file=sys.stderr)
    if not all_problems:
        print(f"ok: {len(paths)} file(s) conform to the telemetry schema")
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
