"""Tests for the incremental distance cache (:mod:`repro.perf`).

The contract under test is the one the whole layer is built on: a run
that reuses cached products and one that reuses nothing are
**bit-identical** — the cache may only change the wall clock, never a
single float.
"""

import numpy as np
import pytest

from repro.core import cache_report, proclus, run_iterative_phase
from repro.distance import cross_distances, segmental_distances_to_point
from repro.exceptions import ParameterError
from repro.perf import (
    CacheStats,
    IterativeCache,
    build_dims_layout,
    segmental_columns,
)
from repro.robustness import Deadline, guards

from reference.no_reuse import NoReuseCache, fit_without_reuse


def _columns(cache, X, rows, metric):
    """``cache.distance_columns`` with the medoids' locality radii."""
    rows = np.asarray(rows)
    radii = cross_distances(X[rows], X[rows], metric)
    np.fill_diagonal(radii, np.inf)
    return cache.distance_columns(X, rows, metric,
                                  deltas=radii.min(axis=1), min_size=2)


class TestDimsLayout:
    def test_layout_concatenates_in_order(self):
        flat, starts, counts = build_dims_layout([(0, 2), (1,), (3, 4, 5)])
        assert flat.tolist() == [0, 2, 1, 3, 4, 5]
        assert starts.tolist() == [0, 2, 3]
        assert counts.tolist() == [2, 1, 3]

    def test_empty_dim_set_rejected(self):
        with pytest.raises(ParameterError, match="dimension set 1 is empty"):
            build_dims_layout([(0,), ()])

    def test_no_dim_sets_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            build_dims_layout([])


class TestSegmentalColumns:
    @pytest.fixture
    def workload(self, rng):
        X = rng.normal(size=(60, 8))
        medoids = X[[3, 17, 42]]
        dim_sets = [(0, 1, 2), (4, 6), (1, 3, 5, 7)]
        return X, medoids, dim_sets

    def test_matches_per_medoid_loop(self, workload):
        X, medoids, dim_sets = workload
        out = segmental_columns(X, medoids, dim_sets)
        for i, dims in enumerate(dim_sets):
            expected = segmental_distances_to_point(X, medoids[i], dims)
            assert np.allclose(out[:, i], expected)

    def test_medoid_count_mismatch_rejected(self, workload):
        X, medoids, dim_sets = workload
        with pytest.raises(ParameterError, match="one dimension set per"):
            segmental_columns(X, medoids, dim_sets[:2])

    def test_subset_bit_identical_to_full_batch(self, workload):
        # the cache computes only the missing columns; each column
        # depends only on its own medoid, so a sub-batch must reproduce
        # the full batch's bits exactly
        X, medoids, dim_sets = workload
        full = segmental_columns(X, medoids, dim_sets)
        sub = segmental_columns(X, medoids[[0, 2]],
                                [dim_sets[0], dim_sets[2]])
        assert np.array_equal(sub[:, 0], full[:, 0])
        assert np.array_equal(sub[:, 1], full[:, 2])

    def test_row_chunking_bit_identical(self, workload, monkeypatch):
        X, medoids, dim_sets = workload
        full = segmental_columns(X, medoids, dim_sets)
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 1024)
        chunked = segmental_columns(X, medoids, dim_sets)
        assert np.array_equal(full, chunked)


class TestCacheStats:
    def test_zero_lookups(self):
        s = CacheStats()
        assert s.hit_rate == 0.0
        assert s.lookups == 0

    def test_as_dict_round_numbers(self):
        s = CacheStats(hits=3, misses=1, evictions=2)
        d = s.as_dict()
        assert d["hits"] == 3 and d["misses"] == 1 and d["evictions"] == 2
        assert d["hit_rate"] == 0.75


class TestIterativeCache:
    @pytest.fixture
    def X(self, rng):
        return rng.normal(size=(120, 6))

    def test_distance_columns_match_kernel(self, X):
        cache = IterativeCache()
        rows = np.array([5, 40, 99])
        expected = cross_distances(X, X[rows], "euclidean")
        first = _columns(cache, X, rows, "euclidean")
        again = _columns(cache, X, rows, "euclidean")
        assert np.array_equal(np.column_stack(first), expected)
        assert np.array_equal(np.column_stack(again), expected)
        # a hit hands out the stored column itself, not a copy
        assert all(a is b for a, b in zip(first, again))
        assert cache.stats["distance"].hits == 3
        assert cache.stats["distance"].misses == 3

    def test_partial_miss_recomputes_only_new_rows(self, X):
        cache = IterativeCache()
        _columns(cache, X, np.array([5, 40]), "euclidean")
        out = _columns(cache, X, np.array([5, 40, 99]), "euclidean")
        assert cache.stats["distance"].misses == 3  # 2 cold + 1 new
        assert np.array_equal(np.column_stack(out),
                              cross_distances(X, X[[5, 40, 99]], "euclidean"))

    def test_metrics_do_not_collide(self, X):
        cache = IterativeCache()
        rows = np.array([0, 1])
        e = _columns(cache, X, rows, "euclidean")
        m = _columns(cache, X, rows, "manhattan")
        assert np.array_equal(np.column_stack(e),
                              cross_distances(X, X[rows], "euclidean"))
        assert np.array_equal(np.column_stack(m),
                              cross_distances(X, X[rows], "manhattan"))

    def test_segmental_keyed_by_row_and_dims(self, X):
        cache = IterativeCache()
        rows = np.array([3, 60])
        a = cache.segmental_matrix(X, rows, [(0, 1), (2, 3)])
        # same rows, different dim set for medoid 1 -> one hit, one miss
        b = cache.segmental_matrix(X, rows, [(0, 1), (2, 4)])
        assert b[0] is a[0]
        assert cache.stats["segmental"].hits == 1
        assert cache.stats["segmental"].misses == 3
        assert np.array_equal(
            np.column_stack(b),
            segmental_columns(X, X[rows], [(0, 1), (2, 4)])
        )

    @staticmethod
    def _stored_arrays(cache):
        return [value for store in cache._stores
                for value in store._data.values()]

    def test_stored_columns_own_their_memory(self, X, tiny_projected_dataset):
        # a stored column that is a view would keep the whole miss batch
        # alive while nbytes counts one column; a single missing column
        # is the case where a slice of the batch is already contiguous.
        # Locality members may be views, but only of a same-sized buffer.
        direct = IterativeCache()
        _columns(direct, X, np.array([5]), "euclidean")
        _columns(direct, X, np.array([5, 40, 99]), "manhattan")
        direct.segmental_matrix(X, np.array([3]), [(0, 1)])
        direct.segmental_matrix(X, np.array([3, 60, 7]),
                                [(0, 1), (2, 3), (1, 4, 5)])
        fitted = IterativeCache()
        points = tiny_projected_dataset.points
        run_iterative_phase(points, np.arange(0, points.shape[0], 12),
                            k=3, l=4, seed=11, cache=fitted)
        assert all(len(store) > 0 for store in fitted._stores)
        for cache in (direct, fitted):
            for store in (cache._distance, cache._segmental):
                assert all(a.flags.owndata for a in store._data.values())
            for a in self._stored_arrays(cache):
                assert a.flags.owndata or a.base.nbytes == a.nbytes

    def test_nbytes_is_the_sum_of_stored_arrays(self, X):
        cache = IterativeCache()
        _columns(cache, X, np.array([5]), "euclidean")
        cache.segmental_matrix(X, np.array([3, 60]), [(0, 1), (2, 3)])
        cache.segmental_matrix(X, np.array([3, 61]), [(0, 1), (2, 4)])
        stored = self._stored_arrays(cache)
        assert cache.nbytes == sum(a.nbytes for a in stored)
        # four columns, plus the lone medoid's locality (every other
        # row: its radius is infinite) and its float64 statistics row
        n, d = X.shape
        assert cache.nbytes == (4 * n * X.itemsize + (n - 1) * 8 + d * 8)

    def test_bind_new_matrix_clears_stores(self, X, rng):
        cache = IterativeCache()
        _columns(cache, X, np.array([0, 1]), "euclidean")
        assert cache.nbytes > 0
        Y = rng.normal(size=(50, 6))
        out = _columns(cache, Y, np.array([0, 1]), "euclidean")
        assert np.array_equal(np.column_stack(out),
                              cross_distances(Y, Y[[0, 1]], "euclidean"))
        assert cache.stats["distance"].misses == 4  # no stale reuse

    def test_discard_rows_invalidates(self, X):
        cache = IterativeCache()
        _columns(cache, X, np.array([7, 8]), "euclidean")
        cache.discard_rows([7])
        _columns(cache, X, np.array([7, 8]), "euclidean")
        assert cache.stats["distance"].hits == 1  # only row 8 survived
        assert cache.stats["distance"].misses == 3

    def test_tiny_budget_evicts_but_stays_correct(self, X):
        # budget fits roughly one (N,) float64 column -> constant churn
        cache = IterativeCache(memory_budget_bytes=X.shape[0] * 8 + 1)
        rows = np.array([0, 10, 20, 30])
        for _ in range(3):
            out = _columns(cache, X, rows, "euclidean")
            assert np.array_equal(
                np.column_stack(out), cross_distances(X, X[rows], "euclidean")
            )
        assert cache.stats["distance"].evictions > 0
        # each store keeps to its own budget: never far past it
        budget = cache.memory_budget_bytes
        assert all(store.nbytes <= 2 * budget for store in cache._stores)
        assert cache._distance.nbytes <= X.shape[0] * 8 * 2

    def test_stats_dict_shape(self, X):
        cache = IterativeCache()
        _columns(cache, X, np.array([0]), "euclidean")
        d = cache.stats_dict()
        assert set(d) == {"distance", "segmental", "locality", "stats",
                          "memory"}
        assert d["memory"]["bytes"] == cache.nbytes
        # the column, plus the new medoid's locality and statistics row
        assert d["memory"]["entries"] == 3


class TestCacheReport:
    def test_none_for_uncached(self):
        assert cache_report(None) is None

    def test_aggregates_stores(self):
        cache = IterativeCache()
        X = np.arange(40.0).reshape(10, 4)
        _columns(cache, X, np.array([0, 1]), "euclidean")
        _columns(cache, X, np.array([0, 1]), "euclidean")
        report = cache_report(cache.stats_dict())
        # two column hits; two misses in each of the distance, locality
        # and statistics stores (a new medoid fills all three)
        assert report.hits == 2 and report.misses == 6
        assert report.hit_rate == 0.25
        assert not report.thrashing
        assert "distance" in report.per_store
        assert "hit rate" in report.to_text()

    def test_thrashing_flag(self):
        report = cache_report({
            "distance": {"hits": 1, "misses": 9, "evictions": 8,
                         "hit_rate": 0.1},
            "memory": {"bytes": 100, "budget_bytes": 128, "entries": 1},
        })
        assert report.thrashing
        assert "THRASHING" in report.to_text()


# ----------------------------------------------------------------------
# S4: the bit-identity property, the layer's core contract.

def _phase_fingerprint(out):
    return (
        out.medoid_indices.tolist(),
        out.dim_sets,
        out.labels.tolist(),
        out.objective,
        out.n_iterations,
        out.n_improvements,
        out.terminated_by,
        [(r.iteration, r.objective, r.improved, r.medoid_indices,
          r.bad_positions, r.locality_sizes) for r in out.history],
    )


class TestCachedUncachedIdentity:
    """Property: for any seed/metric/deadline, reuse changes no bit.

    The "uncached" side is :class:`NoReuseCache`: the same fused pass
    with every store emptied at the start of each vertex.
    """

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("with_deadline", [False, True],
                             ids=["no-deadline", "deadline"])
    def test_run_iterative_phase_identical(self, tiny_projected_dataset,
                                           metric, with_deadline):
        X = tiny_projected_dataset.points
        pool = np.arange(0, X.shape[0], 12)  # 50 candidates
        for seed in range(5):
            # a *finite* deadline cannot be compared bitwise (the two
            # runs tick wall clocks at different speeds); an unlimited
            # Deadline still exercises the expiry checks every iteration
            kwargs = dict(metric=metric, seed=seed)
            if with_deadline:
                kwargs["deadline"] = Deadline.start(None)
            fresh = run_iterative_phase(X, pool, k=3, l=4,
                                        cache=NoReuseCache(), **kwargs)
            cached = run_iterative_phase(X, pool, k=3, l=4, **kwargs)
            assert _phase_fingerprint(cached) == _phase_fingerprint(fresh)
            assert fresh.cache_stats["distance"]["hits"] == 0
            assert cached.cache_stats["distance"]["hits"] > 0

    def test_shared_cache_instance_identical(self, tiny_projected_dataset):
        # reusing one instance keeps warm columns across runs on the
        # same X (the refinement-phase sharing pattern); results must
        # still match a run that reuses nothing exactly
        X = tiny_projected_dataset.points
        pool = np.arange(0, X.shape[0], 12)
        shared = IterativeCache()
        baseline = run_iterative_phase(X, pool, k=3, l=4, seed=11,
                                       cache=NoReuseCache())
        for _ in range(2):
            out = run_iterative_phase(X, pool, k=3, l=4, seed=11,
                                      cache=shared)
            assert _phase_fingerprint(out) == _phase_fingerprint(baseline)

    def test_tiny_budget_identical(self, tiny_projected_dataset):
        # heavy eviction changes hit rates, never values
        X = tiny_projected_dataset.points
        pool = np.arange(0, X.shape[0], 12)
        baseline = run_iterative_phase(X, pool, k=3, l=4, seed=3,
                                       cache=NoReuseCache())
        starved = run_iterative_phase(
            X, pool, k=3, l=4, seed=3,
            cache=IterativeCache(memory_budget_bytes=4096))
        assert _phase_fingerprint(starved) == _phase_fingerprint(baseline)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"fit_sample_size": 300},
        {"restarts": 2},
        {"metric": "manhattan"},
    ], ids=["plain", "large-db", "restarts", "manhattan"])
    def test_proclus_end_to_end_identical(self, tiny_projected_dataset,
                                          kwargs, monkeypatch):
        X = tiny_projected_dataset.points
        on = proclus(X, k=3, l=4, seed=29, **kwargs)
        fit_without_reuse(monkeypatch)
        off = proclus(X, k=3, l=4, seed=29, **kwargs)
        assert np.array_equal(on.labels, off.labels)
        assert np.array_equal(on.medoid_indices, off.medoid_indices)
        assert on.dimensions == off.dimensions
        assert on.objective == off.objective
        assert on.iterative_objective == off.iterative_objective
        assert on.objective_history == off.objective_history
        assert on.terminated_by == off.terminated_by
        assert off.cache_stats["distance"]["hits"] == 0
