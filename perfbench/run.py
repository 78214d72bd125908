#!/usr/bin/env python3
"""Benchmark entry point.

Builds perfbench (perfbench.cc, linked against the simulator sources
in ../src) into $CARGO_TARGET_DIR or .bench_build, runs one workload,
and prints the metrics BENCHMARK.json names as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 those are the end_to_end metrics, with --trace 1 the
per_layer ones (the traced run also writes its spans to
<build>/spans/<workload>-seed<N>.jsonl). Exits non-zero if any check
failed or the build or run did.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--inject-corruption]
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}")
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def spec_problems(spec):
    """What is wrong with the metric names and units of @spec."""
    problems = []
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    if len(names) != len(set(names)):
        problems.append("metric names are not unique")
    for m in metrics:
        unit = m.get("unit", "")
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(unit):
            problems.append(f"bad metric name or unit: {m['name']!r} "
                            f"{m.get('unit')!r}")
    return problems


def metric_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = spec_problems(spec)
    if problems:
        fail("; ".join(problems))
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-corruption", action="store_true",
                    help="self-test: corrupt one NVM line under TVARAK")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = metric_spec(args.trace)
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.inject_corruption:
        cmd.append("--inject-corruption")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            fail(f"perfbench did not report {name}")
        if got["unit"] != unit:
            fail(f"{name}: perfbench unit {got['unit']!r}, defined {unit!r}")
        metrics[name] = got
    extra = sorted(set(raw["metrics"]) - set(metrics))
    if extra:
        fail(f"perfbench reports metrics BENCHMARK.json lacks: {extra}")

    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
