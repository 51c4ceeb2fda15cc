"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on the
identical code path at reduced scale (see DESIGN.md section 3 and
EXPERIMENTS.md for paper-scale runs).  Workloads are generated once per
session and reused; the benchmarked callable is the algorithm run, and
each bench *asserts the paper's qualitative claim* on the result so a
regression in either speed or shape fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_iterative_phase
from repro.core.initialization import initialize_medoid_pool
from repro.data.synthetic import SyntheticDataGenerator
from repro.experiments.configs import make_case_config, make_scalability_config
from repro.perf.cache import IterativeCache
from repro.rng import ensure_rng, spawn

#: A generator seed giving paper-like balanced cluster sizes in both cases.
BALANCED_SEED = 70


@pytest.fixture(scope="session")
def case1_dataset():
    """Case-1 workload (all clusters 7-dim, l=7) at bench scale."""
    cfg = make_case_config(1, n_points=4000, seed=BALANCED_SEED)
    return SyntheticDataGenerator(cfg.synthetic_config()).generate()


@pytest.fixture(scope="session")
def case2_dataset():
    """Case-2 workload (cluster dims 7,3,2,6,2; l=4) at bench scale."""
    cfg = make_case_config(2, n_points=4000, seed=BALANCED_SEED)
    return SyntheticDataGenerator(cfg.synthetic_config()).generate()


@pytest.fixture(scope="session")
def scalability_dataset():
    """Figure 7-9 style workload: 5 clusters of dimensionality 5."""
    cfg = make_scalability_config(3000, 20, 5, seed=7)
    return SyntheticDataGenerator(cfg).generate()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round (experiment-scale runs)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


# ----------------------------------------------------------------------
# The hill-climb speed gates (cache, float32): one Figure-7 workload
# ----------------------------------------------------------------------

#: The gates' Figure-7 shape: 20-dim space, 5 clusters of dimensionality
#: 5, 5% outliers, k = l = 5.
K, L = 5, 5
N_DIMS = 20
SEED = 7


class NoReuseCache(IterativeCache):
    """An :class:`IterativeCache` that empties its stores every vertex.

    A vertex starts with :meth:`distance_columns` (its localities), so
    clearing there leaves the fused pass per new medoid and nothing
    reused across vertices: the hill climb at its best without reuse.
    The gates time it as their "uncached" side.
    """

    def distance_columns(self, X, medoid_indices, metric, **kwargs):
        for store in self._stores:
            store.clear()
        return super().distance_columns(X, medoid_indices, metric, **kwargs)


def phase_workload(n_points, dtype=np.float64):
    """The Figure-7 data in ``dtype`` and the fit's own medoid pool."""
    cfg = make_scalability_config(n_points, N_DIMS, K, seed=SEED)
    X = SyntheticDataGenerator(cfg).generate().points.astype(dtype,
                                                             copy=False)
    rng_init, _ = spawn(ensure_rng(SEED), 2)
    pool = initialize_medoid_pool(X, 30 * K, 5 * K, seed=rng_init)
    return X, pool


def run_phase(X, pool, reuse=True):
    """One hill climb; ``reuse=False`` runs it on a :class:`NoReuseCache`."""
    return run_iterative_phase(X, pool, K, L, seed=SEED,
                               cache=None if reuse else NoReuseCache())


def phase_fingerprint(out):
    """Everything a hill climb returns that must not depend on reuse."""
    return (out.medoid_indices.tolist(), out.dim_sets, out.labels.tolist(),
            out.objective, out.n_iterations, out.terminated_by)
