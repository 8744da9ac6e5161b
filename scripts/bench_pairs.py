#!/usr/bin/env python3
"""Compare two source checkouts on the benchmark in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json
        [--pairs 10] [--seed 1]

PARENT and CHANGE are checkout roots, each with its own ``perfbench/run.py``
and ``src/``.  For every workload the script runs ``perfbench/run.py
--trace 0`` k times on each side, for the ``run_seconds`` that
``BENCHMARK.json`` fixes, alternating which side goes first, so a drift of
the host's speed falls on both alike.  The JSON it writes holds,
per workload and end-to-end metric of ``BENCHMARK.json``, the median and
interquartile range (IQR) of each side, the change's wins over the k pairs,
and the gain of the medians over the parent's IQR.  The metrics of
``run.py`` are wall times put on a reference host speed by its speed probe;
the raw wall times it prints beside them (its ``wall <metric>`` lines) get
the same summary under ``wall``, so a gain can be told from a shift of the
probe.  Once per report it records the host's core count and the ``src/``
line count of each checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    wall = {parts[1]: float(parts[2]) for parts in map(str.split, lines) if len(parts) == 4 and parts[0] == "wall"}
    return {"metrics": metrics, "wall": wall, "attempted": result["attempted"], "failed": result["failed"]}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1, "runs": values}


def compare(parent: list[dict], change: list[dict], metric: str, lower_is_better: bool,
            key: str = "metrics") -> dict:
    p = [r[key][metric] for r in parent]
    c = [r[key][metric] for r in change]
    sign = 1.0 if lower_is_better else -1.0
    ps, cs = summary(p), summary(c)
    gain = sign * (ps["median"] - cs["median"])
    return {
        "better": "lower" if lower_is_better else "higher",
        "parent": ps,
        "change": cs,
        "change_wins": sum(sign * (a - b) > 0.0 for a, b in zip(p, c)),
        "rel_change": (cs["median"] - ps["median"]) / ps["median"],
        "gain_over_parent_iqr": gain / ps["iqr"] if ps["iqr"] > 0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: a side's quartiles need two runs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    report = {
        "command": "perfbench/run.py --trace 0",
        "pairs": args.pairs,
        "seconds": spec["run_seconds"],
        "seed": args.seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "src_loc": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                runs[side].append(run_once(getattr(args, side), workload, args.seed, spec["run_seconds"]))
                print(f"{workload} pair {i + 1}/{args.pairs} {side} {time.perf_counter() - t0:.0f} s",
                      file=sys.stderr)
        entry = {side: {"failed": sum(r["failed"] for r in rs), "attempted": sum(r["attempted"] for r in rs)}
                 for side, rs in runs.items()}
        for m in spec["end_to_end"]:
            lower = m["better"] == "lower"
            entry[m["name"]] = compare(runs["parent"], runs["change"], m["name"], lower)
            if all(m["name"] in r["wall"] for rs in runs.values() for r in rs):
                entry[m["name"]]["wall"] = compare(runs["parent"], runs["change"], m["name"], lower, "wall")
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # keep finished workloads
    return 0


if __name__ == "__main__":
    sys.exit(main())
