#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare two sets of runs.

Usage, from the root of a checkout::

    python3 perfbench/steady.py

Each workload in ``BENCHMARK.json`` runs once per seed, in two sets of
ten seeds; each run is a fresh process.  Runs of different workloads
alternate so host drift falls on all of them alike.  For each
end-to-end metric the command prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median.  It fails (exit 1)
when a spread exceeds the metric's bound in ``BENCHMARK.json``, or when
the two sets' medians differ, in either direction, by more than the
bound.  The sets use disjoint seeds, so they also show how much the
choice of seeds moves a median.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
RUNS = 10
SETS = 2


def run_once(spec: Dict[str, Any], workload: str,
             seed: int) -> Dict[str, Any]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def shift(first: float, second: float) -> float:
    """How far ``second`` lies from ``first``, as a share of ``first``."""
    return abs(second - first) / first if first else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m: [[] for _ in range(SETS)] for m in metrics}
        for w in workloads}
    for s in range(SETS):
        for r in range(RUNS):
            seed = 1 + s * RUNS + r
            for w in workloads:
                t0 = time.perf_counter()
                result = run_once(spec, w, seed)
                for m in metrics:
                    values[w][m][s].append(result["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed} {w}: "
                      f"{time.perf_counter() - t0:.1f}s", file=sys.stderr,
                      flush=True)

    failures: List[str] = []
    report: Dict[str, Any] = {}
    for w in workloads:
        for m, meta in metrics.items():
            sets = [summarise(v) for v in values[w][m]]
            report[f"{w}/{m}"] = {"sets": sets, "values": values[w][m]}
            bound = meta["bound"]
            for i, stats in enumerate(sets):
                flag = ""
                if stats["spread"] > bound:
                    flag = "  SPREAD > BOUND"
                    failures.append(f"{w}/{m} set {i + 1} spread")
                elif stats["spread"] > bound / 3:
                    flag = "  (spread above a third of the bound)"
                if i > 0 and shift(sets[0]["median"],
                                   stats["median"]) > bound:
                    flag += "  MEDIAN OFF SET 1'S BY > BOUND"
                    failures.append(f"{w}/{m} set {i + 1} median")
                print(f"{w:13s} {m:13s} set {i + 1}: median "
                      f"{stats['median']:.6g} q1 {stats['q1']:.6g} q3 "
                      f"{stats['q3']:.6g} spread {stats['spread']:.4f} "
                      f"bound {bound}{flag}")
    out = ROOT / ".perfbench_work"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"# per-run values written to {path}")
    if failures:
        print("NOT STEADY: " + ", ".join(failures))
        return 1
    print("steady: every spread and median shift is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
