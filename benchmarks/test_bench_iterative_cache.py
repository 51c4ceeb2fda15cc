"""Incremental-cache speedup on the Figure-7 scalability workload.

The hill climbing revisits a vertex that differs from the best one in
only the swapped (bad) medoids — typically 1-2 of ``k``.  The
:mod:`repro.perf` cache therefore recomputes only the invalidated
columns, cutting the per-iteration distance work from ``O(N*k*d)`` to
``O(N*|bad|*d)``.  This bench runs the iterative phase on the paper's
Figure-7 configuration (20-dim space, 5 clusters of dimensionality 5,
5% outliers) with a shared cache and with a
:class:`~conftest.NoReuseCache` (the same fused pass, nothing reused
across vertices; reported as "uncached"), asserts the two runs are
**bit-identical**, and requires reuse to win by at least 2x at the
largest size.

Timings land in ``BENCH_iterative_cache.json`` at the repo root (see
``docs/performance.md`` for how to read it).
"""

import json
import time
from pathlib import Path

from conftest import (K, L, N_DIMS, SEED, phase_fingerprint,
                      phase_workload, run_once, run_phase)

SIZES = (2000, 4000, 8000, 16000)
REPEATS = 3

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_iterative_cache.json"


def test_cache_smoke_bit_identical():
    """CI gate: shared-cache and no-reuse phases agree to the last bit."""
    X, pool = phase_workload(1500)
    cached = run_phase(X, pool)
    uncached = run_phase(X, pool, reuse=False)
    assert phase_fingerprint(cached) == phase_fingerprint(uncached)
    assert cached.cache_stats["distance"]["hits"] > 0
    assert uncached.cache_stats["distance"]["hits"] == 0


def test_cache_speedup_fig7(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            X, pool = phase_workload(n)
            run_phase(X, pool, reuse=False)  # warm numpy/allocator
            uncached = min(_timed(X, pool, False) for _ in range(REPEATS))
            cached = min(_timed(X, pool, True) for _ in range(REPEATS))
            out_cached = run_phase(X, pool)
            out_uncached = run_phase(X, pool, reuse=False)
            assert (phase_fingerprint(out_cached)
                    == phase_fingerprint(out_uncached))
            rows.append({
                "n_points": n,
                "uncached_seconds": uncached,
                "cached_seconds": cached,
                "speedup": uncached / cached,
                "cache_stats": out_cached.cache_stats,
            })
        return rows

    def _timed(X, pool, reuse):
        t0 = time.perf_counter()
        run_phase(X, pool, reuse=reuse)
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
            "uncached": "NoReuseCache: stores emptied every vertex",
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
