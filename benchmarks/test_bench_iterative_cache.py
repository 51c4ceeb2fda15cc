"""Incremental-cache speedup on the Figure-7 scalability workload.

The hill climbing revisits a vertex that differs from the best one in
only the swapped (bad) medoids — typically 1-2 of ``k``.  The
:mod:`repro.perf` cache therefore recomputes only the invalidated
columns, cutting the per-iteration distance work from ``O(N*k*d)`` to
``O(N*|bad|*d)``.  This bench runs the iterative phase on the paper's
Figure-7 configuration (20-dim space, 5 clusters of dimensionality 5,
5% outliers) with the cache on and off, asserts the two runs are
**bit-identical**, and requires the cache to win by at least 2x at the
largest size.

Timings land in ``BENCH_iterative_cache.json`` at the repo root (see
``docs/performance.md`` for how to read it).
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import run_once

from repro.core import run_iterative_phase
from repro.core.initialization import initialize_medoid_pool
from repro.data.synthetic import SyntheticDataGenerator
from repro.experiments.configs import make_scalability_config
from repro.rng import ensure_rng, spawn

K, L = 5, 5
N_DIMS = 20
SEED = 7
SIZES = (2000, 4000, 8000, 16000)
REPEATS = 3

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_iterative_cache.json"


def _workload(n_points):
    cfg = make_scalability_config(n_points, N_DIMS, K, seed=SEED)
    X = SyntheticDataGenerator(cfg).generate().points
    rng_init, _ = spawn(ensure_rng(SEED), 2)
    pool = initialize_medoid_pool(X, 30 * K, 5 * K, seed=rng_init)
    return X, pool


def _run(X, pool, cache):
    return run_iterative_phase(X, pool, K, L, seed=SEED,
                               cache=cache)


def _fingerprint(out):
    return (out.medoid_indices.tolist(), out.dim_sets, out.labels.tolist(),
            out.objective, out.n_iterations, out.terminated_by)


def test_cache_smoke_bit_identical():
    """CI gate: cached and uncached phases agree to the last bit."""
    X, pool = _workload(1500)
    cached = _run(X, pool, cache=True)
    uncached = _run(X, pool, cache=False)
    assert _fingerprint(cached) == _fingerprint(uncached)
    assert cached.cache_stats is not None
    assert cached.cache_stats["distance"]["hits"] > 0


def test_cache_speedup_fig7(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            X, pool = _workload(n)
            _run(X, pool, cache=False)  # warm numpy/allocator
            uncached = min(_timed(X, pool, False) for _ in range(REPEATS))
            cached = min(_timed(X, pool, True) for _ in range(REPEATS))
            out_cached = _run(X, pool, cache=True)
            out_uncached = _run(X, pool, cache=False)
            assert _fingerprint(out_cached) == _fingerprint(out_uncached)
            rows.append({
                "n_points": n,
                "uncached_seconds": uncached,
                "cached_seconds": cached,
                "speedup": uncached / cached,
                "cache_stats": out_cached.cache_stats,
            })
        return rows

    def _timed(X, pool, cache):
        t0 = time.perf_counter()
        _run(X, pool, cache=cache)
        return time.perf_counter() - t0

    rows = run_once(benchmark, sweep)

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
            "timing": f"best of {REPEATS} runs of run_iterative_phase",
        },
        "sizes": list(SIZES),
        "results": rows,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    speedups = [r["speedup"] for r in rows]
    # the cacheable O(N*k*d) work grows with N while per-vertex Python
    # overhead does not, so the win must be largest at the biggest size
    assert speedups[-1] >= 2.0
    assert all(s > 1.0 for s in speedups)
    # the distance store should be doing real work, not thrashing
    largest = rows[-1]["cache_stats"]["distance"]
    assert largest["hit_rate"] > 0.3
    assert largest["evictions"] == 0
