"""Float32 bandwidth win on the Figure-7 scalability workload.

The segmental and distance kernels are memory-bandwidth bound: per
vertex they stream the ``(N, sum|D_i|)`` gather, the ``(N, k)`` output,
and the full-dimensional distance columns.  Running the compute path in
float32 halves every one of those byte counts while the arithmetic per
element stays the same, so the iterative phase should speed up by well
over the 1.3x this bench gates on at the largest size.

The bench runs ``run_iterative_phase`` on the paper's Figure-7
configuration (20-dim space, 5 clusters of dimensionality 5, 5%
outliers) in both precisions, cache off (the kernel-bound
configuration: every vertex recomputes its columns) and cache on, and
asserts:

* the float32/float64 **uncached** speedup at ``N = 16000`` is at
  least **1.3x** (the tentpole acceptance gate);
* each precision is bit-deterministic (two runs agree exactly);
* both precisions produce the same clustering on this well-separated
  workload (identical label partitions).

Timings land in ``BENCH_dtype_kernels.json`` at the repo root (see
``docs/performance.md``, "Precision").
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
GATE_SPEEDUP = 1.3

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_dtype_kernels.json"


def _workload(n_points, dtype):
    cfg = make_scalability_config(n_points, N_DIMS, K, seed=SEED)
    X = SyntheticDataGenerator(cfg).generate().points.astype(dtype)
    rng_init, _ = spawn(ensure_rng(SEED), 2)
    pool = initialize_medoid_pool(X, 30 * K, 5 * K, seed=rng_init)
    return X, pool


def _run(X, pool, cache):
    return run_iterative_phase(X, pool, K, L, seed=SEED,
                               cache=cache)


def _fingerprint(out):
    return (out.medoid_indices.tolist(), out.dim_sets, out.labels.tolist(),
            out.objective, out.n_iterations, out.terminated_by)


def _timed(X, pool, cache):
    t0 = time.perf_counter()
    _run(X, pool, cache)
    return time.perf_counter() - t0


def test_dtype_smoke_deterministic_and_native():
    """CI gate: float32 stays float32 end-to-end and is deterministic."""
    X, pool = _workload(1500, np.float32)
    assert X.dtype == np.float32
    a = _run(X, pool, cache=True)
    b = _run(X, pool, cache=False)
    assert _fingerprint(a) == _fingerprint(b)
    # same partition as the float64 reference on this separated workload
    X64, pool64 = _workload(1500, np.float64)
    ref = _run(X64, pool64, cache=True)
    assert np.array_equal(np.asarray(pool), np.asarray(pool64))
    assert np.array_equal(a.labels, ref.labels)


def test_dtype_speedup_fig7(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            row = {"n_points": n}
            for dtype, tag in ((np.float64, "float64"),
                               (np.float32, "float32")):
                X, pool = _workload(n, dtype)
                _run(X, pool, cache=False)  # warm numpy/allocator
                out_a = _run(X, pool, cache=False)
                out_b = _run(X, pool, cache=False)
                assert _fingerprint(out_a) == _fingerprint(out_b)
                row[f"{tag}_uncached_seconds"] = min(
                    _timed(X, pool, False) for _ in range(REPEATS))
                row[f"{tag}_cached_seconds"] = min(
                    _timed(X, pool, True) for _ in range(REPEATS))
                row[f"{tag}_iterations"] = out_a.n_iterations
            row["uncached_speedup"] = (row["float64_uncached_seconds"]
                                       / row["float32_uncached_seconds"])
            row["cached_speedup"] = (row["float64_cached_seconds"]
                                     / row["float32_cached_seconds"])
            rows.append(row)
        return rows

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
            "gate": f"uncached float32 speedup >= {GATE_SPEEDUP}x at "
                    f"N={SIZES[-1]}",
        },
        "sizes": list(SIZES),
        "results": rows,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # the kernels stream half the bytes; at the largest (most
    # bandwidth-bound) size the win must clear the acceptance gate
    assert rows[-1]["uncached_speedup"] >= GATE_SPEEDUP
    assert all(r["uncached_speedup"] > 1.0 for r in rows)
    # the cached path moves fewer bytes to begin with but must not
    # regress either
    assert rows[-1]["cached_speedup"] > 1.0
