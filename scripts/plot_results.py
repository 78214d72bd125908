#!/usr/bin/env python3
"""Render the bench binaries' machine-readable `csv,` lines as ASCII
bar charts (one chart per figure), mirroring the paper's normalized
bar plots.

Usage, after regenerating results/bench_*.txt with the bench_* loop
in EXPERIMENTS.md:
    cat results/bench_*.txt > bench_output.txt
    scripts/plot_results.py bench_output.txt
"""

import sys
from collections import defaultdict


def parse(path):
    """figure -> workload -> [(design, norm_runtime)]"""
    figures = defaultdict(lambda: defaultdict(list))
    for line in open(path, errors="replace"):
        if not line.startswith("csv,"):
            continue
        parts = line.strip().split(",")
        # Fig 8 format: csv,<fig>,<workload>,<design>,<runtime>,<norm>,...
        if len(parts) >= 6 and parts[1].startswith("fig8"):
            fig, workload, design, norm = (
                parts[1], parts[2], parts[3], parts[5])
            try:
                value = float(norm)
            except ValueError:
                continue  # header line
            figures[fig][workload].append((design, value))
    return figures


def bar(value, scale, width=46):
    n = min(width, max(1, int(round(value * scale))))
    return "#" * n


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    figures = parse(path)
    if not figures:
        print(f"no csv lines found in {path}", file=sys.stderr)
        return 1
    for fig in sorted(figures):
        print(f"\n=== {fig}: runtime normalized to Baseline ===")
        rows = figures[fig]
        peak = max(v for w in rows.values() for _, v in w)
        scale = 46.0 / peak
        for workload in rows:
            print(f"  {workload}")
            for design, norm in rows[workload]:
                print(f"    {design:<18} {norm:7.2f} "
                      f"|{bar(norm, scale)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
