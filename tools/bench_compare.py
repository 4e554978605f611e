#!/usr/bin/env python3
"""Diff two bench telemetry JSONs and flag performance regressions.

The continuous bench-regression gate: CI runs the micro_* report binaries,
then compares the fresh telemetry against the committed baseline under
results/baselines/ with per-metric relative thresholds.

    bench_compare.py BASELINE.json CURRENT.json
        [--threshold F]            default relative threshold (default 0.5)
        [--threshold PATTERN=F]    override for metric names containing
                                   PATTERN (first match wins, in order)
        [--min-ms F]               ignore timers where both sides are under
                                   this floor (noise, default 5.0)
        [--inject-slowdown F]      self-test hook: scale CURRENT's
                                   lower-is-better metrics by F (and divide
                                   its higher-is-better metrics by F) before
                                   comparing, so the gate's sensitivity is
                                   itself testable
        [--json PATH]              write the machine-readable verdict here

Compared metrics:
  * timers: total_ms per span name (lower is better),
  * gauges ending in `_ms` or `_pct` (lower is better),
  * gauges containing `speedup` (higher is better).
All other gauges/counters are configuration or correctness pins (already
enforced by check_bench_json.py --require gauges.NAME) and are not gated
here.

A metric present on only one side is reported but never fails the gate:
instrumentation legitimately comes and goes across PRs; thresholds are for
the metrics both sides know about.

Exit status: 0 = no regression, 1 = regression(s), 2 = bad input.
Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"bench_compare: {path}: not a JSON object", file=sys.stderr)
        sys.exit(2)
    return doc


def comparable_metrics(doc):
    """name -> (value, direction) where direction is 'lower' or 'higher'."""
    out = {}
    timers = doc.get("timers", {})
    if isinstance(timers, dict):
        for name, stat in timers.items():
            if isinstance(stat, dict) and isinstance(
                stat.get("total_ms"), (int, float)
            ):
                out[f"timer:{name}.total_ms"] = (float(stat["total_ms"]), "lower")
    gauges = doc.get("gauges", {})
    if isinstance(gauges, dict):
        for name, value in gauges.items():
            if not isinstance(value, (int, float)):
                continue
            if "speedup" in name:
                out[f"gauge:{name}"] = (float(value), "higher")
            elif name.endswith("_ms") or name.endswith("_pct"):
                out[f"gauge:{name}"] = (float(value), "lower")
    return out


def pick_threshold(name, overrides, default):
    for pattern, value in overrides:
        if pattern in name:
            return value
    return default


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="F|PATTERN=F",
        help="default threshold (bare float) or per-pattern override",
    )
    ap.add_argument("--min-ms", type=float, default=5.0)
    ap.add_argument("--inject-slowdown", type=float, default=1.0)
    ap.add_argument("--json", dest="json_out")
    args = ap.parse_args()

    default_threshold = 0.5
    overrides = []
    for spec in args.threshold:
        if "=" in spec:
            pattern, _, raw = spec.partition("=")
            try:
                overrides.append((pattern, float(raw)))
            except ValueError:
                print(f"bench_compare: bad threshold spec {spec!r}", file=sys.stderr)
                sys.exit(2)
        else:
            try:
                default_threshold = float(spec)
            except ValueError:
                print(f"bench_compare: bad threshold spec {spec!r}", file=sys.stderr)
                sys.exit(2)

    base = comparable_metrics(load(args.baseline))
    cur = comparable_metrics(load(args.current))

    if args.inject_slowdown != 1.0:
        cur = {
            name: (
                v * args.inject_slowdown
                if direction == "lower"
                else v / args.inject_slowdown,
                direction,
            )
            for name, (v, direction) in cur.items()
        }

    regressions, improvements, compared, skipped, only_one_side = [], [], [], [], []
    for name in sorted(base.keys() | cur.keys()):
        if name not in base or name not in cur:
            only_one_side.append(name)
            continue
        base_v, direction = base[name]
        cur_v = cur[name][0]
        is_timer = name.startswith("timer:") or name.endswith("_ms")
        if is_timer and base_v < args.min_ms and cur_v < args.min_ms:
            skipped.append(name)
            continue
        if base_v <= 0.0:
            skipped.append(name)
            continue
        # Positive delta = worse, for either direction.
        if direction == "lower":
            delta = (cur_v - base_v) / base_v
        else:
            delta = (base_v - cur_v) / base_v
        threshold = pick_threshold(name, overrides, default_threshold)
        entry = {
            "metric": name,
            "baseline": base_v,
            "current": cur_v,
            "delta": round(delta, 4),
            "threshold": threshold,
            "direction": direction,
        }
        compared.append(entry)
        if delta > threshold:
            regressions.append(entry)
        elif delta < -threshold:
            improvements.append(entry)

    verdict = {
        "verdict": "regression" if regressions else "ok",
        "baseline": args.baseline,
        "current": args.current,
        "compared": len(compared),
        "skipped_below_floor": len(skipped),
        "only_one_side": only_one_side,
        "regressions": regressions,
        "improvements": improvements,
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(verdict, f, indent=2)
            f.write("\n")

    for entry in regressions:
        print(
            f"REGRESSION {entry['metric']}: {entry['baseline']:.3f} -> "
            f"{entry['current']:.3f} ({entry['delta']:+.1%}, "
            f"threshold {entry['threshold']:.0%}, {entry['direction']} is better)"
        )
    for entry in improvements:
        print(
            f"improvement {entry['metric']}: {entry['baseline']:.3f} -> "
            f"{entry['current']:.3f} ({entry['delta']:+.1%})"
        )
    print(
        f"bench_compare: {len(compared)} compared, {len(skipped)} below noise "
        f"floor, {len(only_one_side)} on one side only -> {verdict['verdict']}"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
