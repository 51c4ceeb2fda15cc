"""Oracle tests for the fit's fused hot path.

A new medoid's distance column and its locality statistics row are both
reductions of one ``A = |X - X[m]|`` block, and the cache hands out its
stored columns instead of copying them into an ``(N, k)`` matrix.  The
tests below pin that path to the formulas it replaced, bit for bit, in
both working dtypes:

* each metric's row reduction of ``|X - p|`` against the earlier
  ``pairwise_to_point`` formula, written out here;
* the cache's distance columns and statistics rows against
  :func:`cross_distances` and :func:`per_dimension_average_distance`,
  for a new medoid, a retained medoid whose radius changed and the
  ``min_locality_size`` fallback;
* the work counters: one ``N``-row column per computed medoid;
* stored columns are read-only, since the cache hands out its own
  arrays;
* the public names that pass user data into a step function still
  reject non-finite ``X``, as the hill climb validates once per phase.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro import core, proclus
from repro.core.assignment import segmental_distance_matrix
from repro.core.dimensions import compute_localities, find_dimensions
from repro.core.objective import cluster_dispersions
from repro.distance import (
    LpDistance,
    ManhattanSegmentalDistance,
    cross_distances,
    get_metric,
    per_dimension_average_distance,
)
from repro.distance.matrix import distances_and_diffs
from repro.exceptions import DataError
from repro.metrics import projected_objective
from repro.obs import Tracer, use_tracer
from repro.perf import IterativeCache
from repro.robustness import guards

DTYPES = [np.float64, np.float32]
SEGMENTAL_DIMS = (0, 2, 3)


def _earlier_formula(name, X, p):
    """The per-metric ``pairwise_to_point`` bodies before the split."""
    if name == "euclidean":
        diff = X - p
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if name == "manhattan":
        return np.abs(X - p).sum(axis=1)
    if name == "chebyshev":
        return np.abs(X - p).max(axis=1)
    if name == "lp3":
        return np.power(np.power(np.abs(X - p), 3.0).sum(axis=1), 1.0 / 3.0)
    dims = np.asarray(SEGMENTAL_DIMS)
    return np.abs(X[:, dims] - p[dims]).mean(axis=1)


METRICS = {
    "euclidean": get_metric("euclidean"),
    "manhattan": get_metric("manhattan"),
    "chebyshev": get_metric("chebyshev"),
    "lp3": LpDistance(3),
    "segmental": ManhattanSegmentalDistance(SEGMENTAL_DIMS),
}


class TestRowReductionOracle:
    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduction_of_abs_diffs_matches_earlier_formula(self, name,
                                                            dtype, data):
        n = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(4, 24))
        values = st.floats(-1e6, 1e6, allow_nan=False, width=32)
        X = data.draw(arrays(dtype, (n, d), elements=values))
        p = data.draw(arrays(dtype, d, elements=values))
        metric = METRICS[name]
        expected = _earlier_formula(name, X, p)
        got = metric.reduce_rows(np.abs(X - p))
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(metric.pairwise_to_point(X, p),
                                      expected)
        column, diffs = distances_and_diffs(X, p, metric)
        np.testing.assert_array_equal(column, expected)
        np.testing.assert_array_equal(diffs, np.abs(X - p))


def _radii(X, rows, metric):
    """The medoids' locality radii, as ``compute_localities`` takes them."""
    radii = cross_distances(X[rows], X[rows], metric)
    np.fill_diagonal(radii, np.inf)
    return radii.min(axis=1)


def _columns(cache, X, rows, metric):
    """``cache.distance_columns`` with the medoids' locality radii."""
    return cache.distance_columns(X, rows, metric,
                                  deltas=_radii(X, rows, metric), min_size=2)


def _clustered(dtype):
    rng = np.random.default_rng(7)
    centres = rng.uniform(-50, 50, size=(4, 6))
    X = np.concatenate([c + rng.normal(size=(60, 6)) for c in centres])
    X[6] = X[5] + 1e-3  # a near-duplicate: its radius holds one point
    return X.astype(dtype)


def _assert_cache_matches_oracles(cache, X, medoids, metric, min_size):
    """Columns and statistics rows the cache holds for ``medoids``."""
    localities, deltas = compute_localities(
        X, medoids, metric=metric, min_locality_size=min_size, cache=cache)
    find_dimensions(X, medoids, 3, metric=metric, min_per_cluster=2,
                    localities=localities, deltas=deltas, cache=cache)
    columns = cache.distance_columns(X, medoids, metric, deltas=deltas,
                                     min_size=min_size)
    np.testing.assert_array_equal(np.column_stack(columns),
                                  cross_distances(X, X[medoids], metric))
    uncached, _ = compute_localities(X, medoids, metric=metric,
                                     min_locality_size=min_size)
    misses = cache.stats["stats"].misses
    stored = cache.dimension_stats(X, medoids, localities, deltas, min_size,
                                   metric)
    assert cache.stats["stats"].misses == misses  # every row was stored
    for i, row in enumerate(medoids):
        np.testing.assert_array_equal(localities[i], uncached[i])
        np.testing.assert_array_equal(
            stored[i], per_dimension_average_distance(X[localities[i]], X[row]))
    return localities, deltas


class TestCachedProductsOracle:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan",
                                        "chebyshev", LpDistance(3)],
                             ids=["euclidean", "manhattan", "chebyshev",
                                  "lp3"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_new_and_retained_medoids(self, metric, dtype):
        X = _clustered(dtype)
        cache = IterativeCache()
        # vertex 1: every medoid is new, so every statistics row comes
        # from its |X - m| block
        first = np.array([5, 70, 130, 200])
        _, deltas1 = _assert_cache_matches_oracles(cache, X, first, metric, 2)
        # vertex 2: medoid 200 is swapped for a point next to medoid 5,
        # which shrinks the radius of the retained medoid 5; its row is
        # recomputed from the gathered locality instead
        second = np.array([5, 70, 130, 6])
        _, deltas2 = _assert_cache_matches_oracles(cache, X, second, metric,
                                                   2)
        assert deltas2[0] < deltas1[0]

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_min_locality_size_fallback(self, dtype):
        X = _clustered(dtype)
        cache = IterativeCache()
        # two near-duplicate medoids: the tiny radius holds fewer than
        # min_size points, so the nearest min_size are used
        medoids = np.array([5, 6, 70, 130])
        min_size = 12
        localities, deltas = _assert_cache_matches_oracles(
            cache, X, medoids, "euclidean", min_size)
        column = cross_distances(X, X[medoids[:1]])[:, 0]
        assert np.count_nonzero(column <= deltas[0]) - 1 < min_size
        assert len(localities[0]) == min_size

    def test_over_budget_falls_back_to_gathered_statistics(self, monkeypatch):
        X = _clustered(np.float64)
        reference = IterativeCache()
        medoids = np.array([5, 70, 130, 200])
        _assert_cache_matches_oracles(reference, X, medoids, "euclidean", 2)
        # a budget smaller than one |X - m| block: columns come from the
        # row-chunked kernel and no statistics row is filled early
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 4096)
        column, diffs = distances_and_diffs(X, X[5], "euclidean")
        assert diffs is None
        np.testing.assert_array_equal(
            column, cross_distances(X, X[[5]])[:, 0])
        chunked = IterativeCache()
        _assert_cache_matches_oracles(chunked, X, medoids, "euclidean", 2)
        assert chunked.stats["stats"].misses == medoids.size


class TestWorkCounters:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_one_column_of_n_rows_per_computed_medoid(self, dtype):
        X = _clustered(dtype)
        n = X.shape[0]
        cache = IterativeCache()
        tracer = Tracer()
        vertices = [np.array([5, 70]), np.array([5, 70, 130])]
        # the radii are measured outside the traced span
        radii = [_radii(X, rows, "euclidean") for rows in vertices]
        with use_tracer(tracer):
            for rows, deltas in zip(vertices, radii):
                cache.distance_columns(X, rows, "euclidean", deltas=deltas,
                                       min_size=2)
        counters = tracer.profile()["counters"]
        assert counters["cache.distance_computed"] == 3
        assert counters["cache.distance_served"] == 2
        assert counters["kernel.distance_rows"] == 3 * n
        assert counters["kernel.distance_bytes"] == (
            3 * n * (X.shape[1] + 1) * X.itemsize)

    def test_fit_counts_columns_plus_medoid_radii(self, tiny_projected_dataset):
        # besides one N-row column per computed medoid, each vertex
        # measures its k x k medoid-to-medoid distances for the radii
        X = tiny_projected_dataset.points
        k = 3
        result = proclus(X, k, 4, seed=5, profile=True)
        counters = result.profile["counters"]
        assert counters["kernel.distance_rows"] == (
            X.shape[0] * counters["cache.distance_computed"]
            + k * k * result.n_iterations)


class TestReadOnlyColumns:
    def test_distance_columns_are_read_only(self):
        X = _clustered(np.float64)
        cache = IterativeCache()
        fresh = _columns(cache, X, np.array([5, 70]), "euclidean")
        served = _columns(cache, X, np.array([5, 70]), "euclidean")
        for col in fresh + served:
            with pytest.raises(ValueError):
                col[0] = 1.0

    def test_segmental_columns_are_read_only(self):
        X = _clustered(np.float64)
        cache = IterativeCache()
        dims = [(0, 1), (2, 3)]
        fresh = cache.segmental_matrix(X, np.array([5, 70]), dims)
        served = cache.segmental_matrix(X, np.array([5, 70]), dims)
        for col in fresh + served:
            with pytest.raises(ValueError):
                col[0] = 1.0


_MEDOIDS = np.array([5, 70])
_DIMS = [(0, 1), (2, 3)]
# every public name that passes user data into a step function the hill
# climb calls unvalidated
_PUBLIC_STEPS = {
    "compute_localities": lambda X: core.compute_localities(X, _MEDOIDS),
    "find_dimensions": lambda X: core.find_dimensions(X, _MEDOIDS, 2),
    "assign_points": lambda X: core.assign_points(X, X[_MEDOIDS], _DIMS),
    "evaluate_clusters": lambda X: core.evaluate_clusters(
        X, np.arange(X.shape[0]) % 2, _DIMS),
    "segmental_distance_matrix": lambda X: segmental_distance_matrix(
        X, X[_MEDOIDS], _DIMS),
    "cluster_dispersions": lambda X: cluster_dispersions(
        X, np.arange(X.shape[0]) % 2, _DIMS),
    "projected_objective": lambda X: projected_objective(
        X, np.arange(X.shape[0]) % 2, dict(enumerate(_DIMS))),
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", sorted(_PUBLIC_STEPS))
    def test_public_steps_reject_non_finite_data(self, name, bad):
        X = _clustered(np.float64)
        _PUBLIC_STEPS[name](X)  # finite data goes through
        X[3, 1] = bad
        with pytest.raises(DataError, match="NaN or inf"):
            _PUBLIC_STEPS[name](X)
