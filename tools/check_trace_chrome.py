#!/usr/bin/env python3
"""Validate a Chrome Trace Event file emitted via --trace-chrome=.

Structural checks (always):
  * top level is an object with a traceEvents array,
  * every complete ("X") event has name, ts, dur, pid, tid and an args.id,
  * args.id values are unique and positive,
  * durations are nonnegative and self_ms fits inside the duration,
  * a nonzero args.parent refers to an event in the file (unless spans were
    dropped, which legitimately orphans survivors).

Coverage check (--coverage-root NAME): for every span named NAME —
optionally only those with a descendant named --when-descendant — the
fraction of its wall time attributed to child spans (1 - self/duration)
must reach --min-coverage, and each --require-descendant name must appear
somewhere below it. This pins the acceptance criterion that a two-level
solve's time decomposes into named phases rather than untracked gaps.

Exit status: 0 = valid, 1 = validation failure, 2 = bad input.
Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import sys


def fail(msg):
    print(f"check_trace_chrome: FAIL: {msg}")
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--coverage-root", metavar="NAME")
    ap.add_argument("--min-coverage", type=float, default=0.95)
    ap.add_argument("--when-descendant", metavar="NAME")
    ap.add_argument(
        "--require-descendant", action="append", default=[], metavar="NAME"
    )
    args = ap.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace_chrome: cannot read {args.trace}: {e}", file=sys.stderr)
        sys.exit(2)

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        fail("top level must be an object with a traceEvents array")
    dropped = doc.get("spans_dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        fail("spans_dropped must be a nonnegative integer")

    spans = []
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"traceEvents[{i}]: not an event object")
        if ev["ph"] != "X":
            continue
        for key in ("name", "ts", "dur", "pid", "tid", "args"):
            if key not in ev:
                fail(f"traceEvents[{i}]: X event missing {key!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"traceEvents[{i}]: ts must be nonnegative")
        if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            fail(f"traceEvents[{i}]: dur must be nonnegative")
        span_id = ev["args"].get("id")
        if not isinstance(span_id, int) or span_id <= 0:
            fail(f"traceEvents[{i}]: args.id must be a positive integer")
        parent = ev["args"].get("parent")
        if not isinstance(parent, int) or parent < 0:
            fail(f"traceEvents[{i}]: args.parent must be a nonnegative integer")
        self_ms = ev["args"].get("self_ms")
        if not isinstance(self_ms, (int, float)) or self_ms < 0:
            fail(f"traceEvents[{i}]: args.self_ms must be nonnegative")
        dur_ms = ev["dur"] / 1e3
        if self_ms > dur_ms * 1.001 + 1e-6:
            fail(
                f"traceEvents[{i}] ({ev['name']}): self_ms {self_ms} exceeds "
                f"duration {dur_ms}"
            )
        spans.append(ev)

    ids = [ev["args"]["id"] for ev in spans]
    if len(ids) != len(set(ids)):
        fail("duplicate args.id values")
    known = set(ids)
    if dropped == 0:
        for ev in spans:
            parent = ev["args"]["parent"]
            if parent != 0 and parent not in known:
                fail(
                    f"span {ev['args']['id']} ({ev['name']}) names missing "
                    f"parent {parent} with no spans dropped"
                )

    print(f"check_trace_chrome: {len(spans)} spans, {dropped} dropped: format OK")

    if args.coverage_root:
        children = {}
        for ev in spans:
            children.setdefault(ev["args"]["parent"], []).append(ev)

        def descendant_names(span_id):
            names = set()
            stack = [span_id]
            while stack:
                for child in children.get(stack.pop(), []):
                    names.add(child["name"])
                    stack.append(child["args"]["id"])
            return names

        measured = 0
        for ev in spans:
            if ev["name"] != args.coverage_root:
                continue
            below = descendant_names(ev["args"]["id"])
            if args.when_descendant and args.when_descendant not in below:
                continue
            measured += 1
            missing = [n for n in args.require_descendant if n not in below]
            if missing:
                fail(
                    f"span {ev['args']['id']} ({ev['name']}): missing required "
                    f"descendants {missing}; has {sorted(below)}"
                )
            dur_ms = ev["dur"] / 1e3
            if dur_ms <= 0:
                continue
            coverage = 1.0 - ev["args"]["self_ms"] / dur_ms
            if coverage < args.min_coverage:
                fail(
                    f"span {ev['args']['id']} ({ev['name']}, {dur_ms:.2f} ms): "
                    f"child coverage {coverage:.4f} < {args.min_coverage}"
                )
            print(
                f"check_trace_chrome: {ev['name']} #{ev['args']['id']} "
                f"{dur_ms:.2f} ms, child coverage {coverage:.4f}"
            )
        if measured == 0:
            fail(
                f"no {args.coverage_root!r} span"
                + (
                    f" with a {args.when_descendant!r} descendant"
                    if args.when_descendant
                    else ""
                )
                + " found to measure"
            )
        print(f"check_trace_chrome: coverage OK on {measured} span(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
