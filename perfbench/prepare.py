"""Build one benchmark run's inputs in a fresh process.

    python3 perfbench/prepare.py <workload> <seed> <directory> [--smoke]

``run.py`` starts this with the program's ``src`` on ``PYTHONPATH``;
see :func:`bench.prepare` for what it writes.  Exits 3 when an output
check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        bench.prepare(args.workload, args.seed,
                      bench.SMOKE if args.smoke else bench.FULL,
                      args.directory)
    except bench.CheckFailed as exc:
        print(f"output check failed while preparing inputs: {exc}",
              file=sys.stderr)
        return bench.PREPARE_CHECK_FAILED
    return 0


if __name__ == "__main__":
    sys.exit(main())
