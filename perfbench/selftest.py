#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Checks that every metric is well named and carries a unit, that a
seed reproduces its deterministic results exactly, that the seed moves
only ctree-rebuild's simulated results, that a failed check is counted
and makes the benchmark exit non-zero, and that the benchmark refuses
to run without the simulator sources. Runs each workload with a 1 s
budget; takes about two minutes.

usage: python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (run.py, next to this file)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["redis-txb", "triad-stream", "ctree-rebuild"]
DETERMINISTIC = ["tvarak_norm_runtime", "tvarak_norm_nvm_accesses",
                 "tvarak_norm_energy", "paper_err"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace=0, extra=(), root=ROOT):
    """(exit code, result object or None, {design: Stats digest})."""
    p = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = p.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    digests = {}
    for line in lines:
        if line.startswith("digest "):
            _, _, design, digest = line.split()
            digests[design] = digest
    return p.returncode, result, digests


def test_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = bench.spec_problems(spec)
    check(not problems, "every metric is uniquely and well named and has "
          f"a unit {problems}")
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json lists the three workloads")


def test_seeds():
    for w in WORKLOADS:
        rc1, r1, d1 = run(w, 1)
        rc2, r2, d2 = run(w, 1)
        rc3, r3, d3 = run(w, 2)
        ok = rc1 == rc2 == rc3 == 0 and None not in (r1, r2, r3)
        check(ok, f"{w}: three runs pass their checks")
        if not ok:
            continue
        check(all(r1["metrics"][k] == r2["metrics"][k]
                  for k in DETERMINISTIC) and d1 == d2 and d1,
              f"{w}: same seed gives identical simulated metrics, digests")
        changed = {k for k in d1 if d1[k] != d3.get(k)}
        want = {"tvarak-failure"} if w == "ctree-rebuild" else set()
        check(changed == want,
              f"{w}: another seed changes exactly {sorted(want)} "
              f"(changed {sorted(changed)})")


def test_traced_run():
    rc, r, _ = run("ctree-rebuild", 1, trace=1)
    check(rc == 0 and r is not None and r["failed"] == 0,
          "ctree-rebuild traced run passes (replay Stats equal direct)")
    if r is not None:
        m = r["metrics"]
        check(m["redundancy.degraded_reads"]["value"] > 0 and
              m["redundancy.rebuild_lines"]["value"] > 0,
              "traced run reports degraded reads and rebuilt lines")


def test_failed_check_is_counted():
    rc, r, _ = run("triad-stream", 1, extra=["--inject-corruption"])
    check(rc != 0, "an injected corruption makes the benchmark exit "
          f"non-zero (exit {rc})")
    check(r is not None and r["failed"] >= 1 and r["correct"] is False,
          "the corrupted design run is counted as failed")


def test_refuses_without_sources():
    bare = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "redis-txb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=170)
    lines = p.stdout.splitlines()
    check(p.returncode != 0 and not (lines and lines[-1].startswith("{")),
          "without the simulator sources it exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    test_names_and_units()
    test_refuses_without_sources()
    test_failed_check_is_counted()
    test_traced_run()
    test_seeds()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
