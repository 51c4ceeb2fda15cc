#!/usr/bin/env python3
"""Run one workload of the PROCLUS benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_fig7 --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs untraced and traced operations in pairs and
prints the per-layer metrics, ``trace.overhead_frac`` among them.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the checkout holds no program to measure (no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and trace output; listed in the repository's .gitignore.
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("fit_fig7", "predict_bulk")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> List[int]:
    """Pin this process, and the servers it starts, to one CPU.

    Client and server sharing one vCPU gave the steadiest serving
    tails; the fits and predicts run one thread either way.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


def commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(affinity: List[int]) -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit(), "cpu": cpu_model()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    affinity = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import bench

    print("# env " + json.dumps(environment(affinity)), flush=True)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    run = bench.Run(seed=args.seed, seconds=args.seconds,
                    scale=bench.SMOKE if args.smoke else bench.FULL,
                    work=work, out=WORK, src=SRC)
    try:
        outcome = bench.WORKLOADS[args.workload](run, bool(args.trace))
    except bench.CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# notes " + json.dumps(outcome.notes), flush=True)
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
