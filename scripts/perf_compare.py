#!/usr/bin/env python3
"""Compare bench_selfperf JSON reports.

Consumes the results/BENCH_selfperf.json schema (written by
`bench_selfperf --json`, which itself fails if its kernel backends
simulate different Stats):

gate CURRENT.json BASELINE.json [--min-ratio R]
    Assert CURRENT's total_mcycles_per_sec is at least R times
    BASELINE's (default 0.5 — a loose floor, because shared CI runners
    are noisy; the ratio catches order-of-magnitude regressions, not
    single-digit ones). Also re-checks the identity of sim_mcycles for
    rows present in both files, so a perf "win" that changed simulated
    behaviour still fails.

Exit codes: 0 ok, 1 comparison failed, 2 usage/malformed input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("bench") != "selfperf" or "results" not in doc:
        print(f"perf_compare: {path} is not a selfperf report",
              file=sys.stderr)
        sys.exit(2)
    return doc


def rows(doc):
    return {(r["workload"], r["design"]): r for r in doc["results"]}


def check_identity(a, b, name_a, name_b):
    ra, rb = rows(a), rows(b)
    shared = sorted(set(ra) & set(rb))
    if not shared:
        print("perf_compare: no shared (workload, design) rows")
        return False
    ok = True
    for key in shared:
        ma, mb = ra[key]["sim_mcycles"], rb[key]["sim_mcycles"]
        if ma != mb:
            wl, d = key
            print(f"MISMATCH {wl}/{d}: sim_mcycles "
                  f"{ma} ({name_a}) != {mb} ({name_b})")
            ok = False
    if ok:
        print(f"identity ok: {len(shared)} rows, sim_mcycles "
              f"bit-identical ({name_a} vs {name_b})")
    return ok


def cmd_gate(args):
    cur, base = load(args.current), load(args.baseline)
    if not check_identity(cur, base, args.current, args.baseline):
        return False
    tc = cur.get("total_mcycles_per_sec", 0.0)
    tb = base.get("total_mcycles_per_sec", 0.0)
    if tb <= 0:
        print("perf_compare: baseline total_mcycles_per_sec <= 0",
              file=sys.stderr)
        sys.exit(2)
    ratio = tc / tb
    print(f"throughput: current {tc:.4g} vs baseline {tb:.4g} "
          f"Mcycles/sec (ratio {ratio:.3f}, floor {args.min_ratio})")
    if ratio < args.min_ratio:
        print(f"FAIL: simulator throughput regressed below "
              f"{args.min_ratio}x of the committed baseline")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(
        description="Compare bench_selfperf JSON reports")
    sub = ap.add_subparsers(dest="mode", required=True)

    p_gate = sub.add_parser(
        "gate", help="throughput floor vs committed baseline")
    p_gate.add_argument("current")
    p_gate.add_argument("baseline")
    p_gate.add_argument("--min-ratio", type=float, default=0.5)
    p_gate.set_defaults(run=cmd_gate)

    args = ap.parse_args()
    sys.exit(0 if args.run(args) else 1)


if __name__ == "__main__":
    main()
