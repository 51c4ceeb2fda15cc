"""Restart fan-out speedup on the Figure-7 scalability workload.

Restarts are embarrassingly parallel: each child runs the full
init/iterative/refinement pipeline on its own spawned seed stream, so
``n_jobs`` workers fanning out over a shared-memory copy of ``X``
should approach an ``n_jobs``-fold speedup — *without changing a single
bit of the answer*.  This bench runs ``restarts=4`` on the paper's
Figure-7 configuration serially and with ``n_jobs=4``, asserts the two
winners are bit-identical, and requires the fan-out to win by at least
1.5x **when the machine has the cores to show it** (four restarts on
fewer than four cores are partly serialized by the OS; the JSON then
records the core count that capped the run instead of failing).

Timings land in ``BENCH_parallel_restarts.json`` at the repo root (see
``docs/performance.md`` for how to read it).
"""

import json
import os
import time
from pathlib import Path

from conftest import run_once

from repro.core.proclus import proclus
from repro.data.synthetic import SyntheticDataGenerator
from repro.experiments.configs import make_scalability_config

K, L = 5, 5
N_DIMS = 20
SEED = 7
N_POINTS = 6000
RESTARTS = 4
N_JOBS = 4
REPEATS = 3

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel_restarts.json"

FIT = dict(seed=SEED, restarts=RESTARTS)


def _workload(n_points=N_POINTS):
    cfg = make_scalability_config(n_points, N_DIMS, K, seed=SEED)
    return SyntheticDataGenerator(cfg).generate().points


def _fingerprint(result):
    return (result.labels.tolist(), result.medoid_indices.tolist(),
            result.dimensions, result.objective,
            result.iterative_objective, result.terminated_by)


def test_parallel_smoke_bit_identical():
    """CI gate: serial and fanned-out restarts agree to the last bit."""
    X = _workload(1500)
    serial = proclus(X, K, L, **FIT)
    fanned = proclus(X, K, L, n_jobs=2, **FIT)
    assert _fingerprint(serial) == _fingerprint(fanned)
    assert fanned.parallelism["n_workers"] == 2
    assert fanned.parallelism["restarts_completed"] == RESTARTS


def test_parallel_restart_speedup_fig7(benchmark):
    cores = os.cpu_count() or 1

    def sweep():
        X = _workload()
        proclus(X, K, L, **FIT)  # warm numpy/allocator
        serial_s = min(_timed(X, 1) for _ in range(REPEATS))
        fanned_s = min(_timed(X, N_JOBS) for _ in range(REPEATS))
        serial = proclus(X, K, L, **FIT)
        fanned = proclus(X, K, L, n_jobs=N_JOBS, **FIT)
        assert _fingerprint(serial) == _fingerprint(fanned)
        return {
            "n_points": N_POINTS,
            "restarts": RESTARTS,
            "n_jobs": N_JOBS,
            "cpu_cores": cores,
            "serial_seconds": serial_s,
            "parallel_seconds": fanned_s,
            "speedup": serial_s / fanned_s,
            "parallelism": fanned.parallelism,
        }

    def _timed(X, n_jobs):
        t0 = time.perf_counter()
        proclus(X, K, L, n_jobs=n_jobs, **FIT)
        return time.perf_counter() - t0

    row = run_once(benchmark, sweep)

    report = {
        "workload": {
            "figure": 7,
            "n_dims": N_DIMS,
            "n_clusters": K,
            "cluster_dimensionality": 5,
            "outlier_fraction": 0.05,
            "k": K,
            "l": L,
            "seed": SEED,
            "timing": f"best of {REPEATS} full proclus() runs",
        },
        "result": row,
    }
    if cores >= N_JOBS:
        report["note"] = (
            f"{cores} cores available for n_jobs={N_JOBS}; "
            "the >= 1.5x speedup gate applies."
        )
        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        assert row["speedup"] >= 1.5
    else:
        # fewer cores than workers: the OS time-slices the restart
        # processes, so wall-clock gains are capped near 1x no matter
        # what the execution layer does.  Record the cap instead of
        # failing — the bit-identity assertion above still ran.
        report["note"] = (
            f"runner has {cores} CPU core(s); n_jobs={N_JOBS} restarts "
            "are time-sliced, capping the achievable speedup near 1x. "
            "The >= 1.5x gate applies only on >= 4 cores; this run "
            "records timings and verifies bit-identity only."
        )
        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        # fan-out overhead (process spawn + shared-memory publish) must
        # still be bounded even when it cannot win
        assert row["speedup"] > 0.5
