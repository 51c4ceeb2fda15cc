"""Oracle tests for the fit's fused hot path.

A new medoid's distance column, its locality and its statistics row all
come from one blocked pass over ``A = |X - X[m]|``, EvaluateClusters
gathers from a column-major copy of ``X``, and the cache hands out its
stored columns instead of copying them into an ``(N, k)`` matrix.  The
tests below pin that path to the formulas it replaced, bit for bit, in
both working dtypes:

* each metric's row reduction of ``|X - p|`` against the earlier
  ``pairwise_to_point`` formula, written out here;
* the blocked new-medoid pass against the literal full-slab ``|X - m|``
  formulation (kept here), over block sizes down to one row, the
  medoid in the first and the last block, and the ``min_size``
  fallback;
* the column-major gather against the 2-D fancy gather it replaced,
  with empty clusters and outliers;
* the cache's distance columns and statistics rows against
  :func:`cross_distances` and :func:`per_dimension_average_distance`,
  for a new medoid, a retained medoid whose radius changed and the
  ``min_locality_size`` fallback;
* the cache's segmental columns from the column-major copy against
  those from ``X``, with a partial miss;
* the statistics' row sum, ``np.einsum('ij->j')``, against
  ``np.add.reduce(axis=0)`` bit for bit, and the carried-row chain over
  tiny blocks against the whole-slab mean;
* the work counters: one ``N``-row column per computed medoid;
* stored columns are read-only, since the cache hands out its own
  arrays;
* the public names that pass user data into a step function still
  reject non-finite ``X``, as the hill climb validates once per phase.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro import core, proclus
from repro.core.dimensions import compute_localities, find_dimensions
from repro.core.objective import (_members_block, cluster_dispersions,
                                  cluster_dispersions_and_sizes,
                                  column_major)
from repro.distance import (
    LpDistance,
    Metric,
    cross_distances,
    get_metric,
    per_dimension_average_distance,
)
from repro.distance import matrix
from repro.distance.matrix import distances_and_locality
from repro.exceptions import DataError
from repro.metrics import projected_objective
from repro.obs import Tracer, use_tracer
from repro.perf import IterativeCache
from repro.perf.cache import select_locality
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


class _Segmental(Metric):
    """The segmental distance over ``SEGMENTAL_DIMS``, as a user metric."""

    name = "segmental"

    def reduce_rows(self, A):
        return A[:, np.asarray(SEGMENTAL_DIMS)].mean(axis=1)


METRICS = {
    "euclidean": get_metric("euclidean"),
    "manhattan": get_metric("manhattan"),
    "chebyshev": get_metric("chebyshev"),
    "lp3": LpDistance(3),
    "segmental": _Segmental(),
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
        # p as the last row of the blocked pass: an infinite radius
        # takes every other row into the locality
        column, members, stats = distances_and_locality(
            np.vstack([X, p[None]]), n, np.inf, metric)
        np.testing.assert_array_equal(column[:n], expected)
        np.testing.assert_array_equal(members, np.arange(n))
        np.testing.assert_array_equal(
            stats, np.abs(X - p).mean(axis=0, dtype=np.float64))


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
    full = cross_distances(X, X[medoids], metric)
    np.testing.assert_array_equal(np.column_stack(columns), full)
    misses = cache.stats["stats"].misses
    stored = cache.dimension_stats(X, medoids, localities, deltas, min_size,
                                   metric)
    assert cache.stats["stats"].misses == misses  # every row was stored
    for i, row in enumerate(medoids):
        np.testing.assert_array_equal(
            localities[i], select_locality(full[:, i], deltas[i], row,
                                           min_size))
        np.testing.assert_array_equal(
            stored[i], per_dimension_average_distance(X[localities[i]], X[row]))
    return localities, deltas


def _full_slab(X, row, metric, delta, min_size):
    """A new medoid's products from one whole ``(n, d)`` ``|X - m|`` slab.

    The literal formulation the blocked pass replaced: the column is the
    metric's reduction of the slab, the locality the rows within
    ``delta`` (the medoid excluded) or else the nearest ``min_size``,
    and the statistics row the slab's member rows averaged in float64.
    """
    A = np.abs(X - X[row])
    column = metric.reduce_rows(A)
    inside = column <= delta
    inside[row] = False
    members = np.flatnonzero(inside)
    if members.size < min_size:
        order = np.argsort(column, kind="stable")
        members = order[order != row][:min_size]
    return column, members, A[members].mean(axis=0, dtype=np.float64)


class TestBlockedPassMatchesFullSlab:
    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_locality_and_statistics(self, name, dtype, data):
        metric = METRICS[name]
        n = data.draw(st.integers(2, 90), label="n")
        # the segmental metric reads dimensions 0, 2 and 3
        d = data.draw(st.integers(4 if name == "segmental" else 2, 7),
                      label="d")
        values = st.floats(-1e3, 1e3, allow_nan=False, width=32)
        X = data.draw(arrays(dtype, (n, d), elements=values), label="X")
        # the medoid in the first block, the last block, or anywhere
        row = data.draw(st.sampled_from([0, n - 1])
                        | st.integers(0, n - 1), label="row")
        column = _full_slab(X, row, metric, np.inf, 1)[0]
        # a radius at some point's distance: from no other point (the
        # min_size fallback) up to every point
        delta = np.sort(column)[data.draw(st.integers(0, n - 1),
                                          label="rank")]
        min_size = data.draw(st.integers(1, n - 1), label="min_size")
        # blocks of 1 row (a budget of one byte) up to one block for
        # all n rows; the rows split into equal blocks with a short
        # tail when the block does not divide n
        block = data.draw(st.integers(1, n + 3), label="block rows")
        budget = block * 4 * d * X.itemsize
        expected = _full_slab(X, row, metric, delta, min_size)
        with mock.patch.object(guards, "DEFAULT_MEMORY_BUDGET_BYTES",
                               1 if block == 1 else budget):
            cache = IterativeCache()
            (got_column,) = cache.distance_columns(
                X, np.array([row]), metric, deltas=np.array([delta]),
                min_size=min_size)
            hits = cache.stats["locality"].hits
            (members,) = cache.localities(
                [got_column], np.array([row]), metric,
                deltas=np.array([delta]), min_size=min_size)
            assert cache.stats["locality"].hits == hits + 1  # filled in pass
            misses = cache.stats["stats"].misses
            stats = cache.dimension_stats(X, np.array([row]), [members],
                                          np.array([delta]), min_size,
                                          metric)
            assert cache.stats["stats"].misses == misses  # filled in pass
            gathered = per_dimension_average_distance(X, X[row],
                                                      rows=members)
        assert got_column.dtype == dtype
        np.testing.assert_array_equal(got_column, expected[0])
        np.testing.assert_array_equal(members, expected[1])
        np.testing.assert_array_equal(stats[0], expected[2])
        np.testing.assert_array_equal(gathered, expected[2])


def _bits(a):
    """``a``'s IEEE bit patterns, so that ``-0.0`` differs from ``0.0``."""
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def _nonnegative_rows(kind, rows, d, dtype, rng):
    """Absolute values, as the statistics sum sees them."""
    if kind == "zeros":
        # whole zero rows and columns between ordinary values
        B = rng.uniform(0, 10, size=(rows, d))
        B[::3] = 0.0
        B[:, ::2] = 0.0
    elif kind == "subnormals":
        tiny = np.finfo(dtype).smallest_subnormal
        B = rng.integers(0, 1 << 20, size=(rows, d)) * float(tiny)
    else:
        # mixed magnitudes: most additions round
        B = rng.uniform(0, 1, size=(rows, d)) * 10.0 ** rng.integers(
            -30 if dtype == np.float32 else -300,
            30 if dtype == np.float32 else 300, size=(rows, d))
    return B.astype(dtype)


class TestEinsumRowSum:
    @pytest.mark.parametrize("d", [2, 3, 8, 9, 20, 257])
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_einsum_adds_rows_like_axis0_reduce(self, d, dtype):
        # _RowMean sums with einsum because it adds the rows of a
        # C-ordered block one after another, as np.add.reduce(axis=0)
        # does for d > 1; float32 rows summed in float64 must equal the
        # cast copy's reduction
        rng = np.random.default_rng(d)
        for rows in (1, 2, 7, 8, 9, 128, 129, 1613, 8193):
            for kind in ("zeros", "subnormals", "mixed"):
                B = _nonnegative_rows(kind, rows, d, dtype, rng)
                wide = B.astype(np.float64)
                expected = np.add.reduce(wide, axis=0)
                got = (np.einsum("ij->j", B) if dtype == np.float64
                       else np.einsum("ij->j", B, dtype=np.float64))
                assert got.dtype == np.float64
                np.testing.assert_array_equal(
                    _bits(got), _bits(expected), err_msg=f"{kind} {rows}")

    @pytest.mark.parametrize("d", [2, 3, 9, 20])
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_carried_row_chain_matches_whole_slab_mean(self, monkeypatch,
                                                       d, dtype):
        rng = np.random.default_rng(100 + d)
        X = (rng.uniform(-1, 1, size=(300, d))
             * 10.0 ** rng.integers(-6, 6, size=(300, d))).astype(dtype)
        p = X[17]
        # members in any order, repeated and negative: the gather path
        rows = rng.integers(-300, 300, size=250)
        whole = np.abs(X - p).mean(axis=0, dtype=np.float64)
        picked = np.abs(X[rows] - p).mean(axis=0, dtype=np.float64)
        for block in (1, 2, 3, 7, 64):
            # blocks of `block` rows: the running sum is carried over
            # every block boundary
            monkeypatch.setattr(matrix, "PASS_BLOCK_BYTES",
                                block * d * X.itemsize)
            assert matrix._block_rows(X) <= block
            np.testing.assert_array_equal(
                _bits(per_dimension_average_distance(X, p)), _bits(whole))
            np.testing.assert_array_equal(
                _bits(per_dimension_average_distance(X, p, rows=rows)),
                _bits(picked))
            _, members, stats = distances_and_locality(X, 17, np.inf)
            np.testing.assert_array_equal(members, np.delete(np.arange(300),
                                                             17))
            np.testing.assert_array_equal(
                _bits(stats),
                _bits(np.abs(X[members] - p).mean(axis=0,
                                                  dtype=np.float64)))


class TestColumnMajorGather:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_and_dispersions_match_fancy_gather(self, dtype, data):
        n = data.draw(st.integers(1, 80), label="n")
        d = data.draw(st.integers(2, 9), label="d")
        k = data.draw(st.integers(1, 4), label="k")
        values = st.floats(-1e4, 1e4, allow_nan=False, width=32)
        X = data.draw(arrays(dtype, (n, d), elements=values), label="X")
        # outliers (-1) and clusters that may be empty: labels drawn
        # from -1..k-1 leave some ids unused
        labels = np.array(data.draw(st.lists(st.integers(-1, k - 1),
                                             min_size=n, max_size=n),
                                    label="labels"))
        dim_sets = [tuple(sorted(data.draw(
            st.sets(st.integers(0, d - 1), min_size=1, max_size=d),
            label=f"D_{i}"))) for i in range(k)]
        Xc = column_major(X)
        assert Xc.flags.c_contiguous
        np.testing.assert_array_equal(Xc, X.T)
        for i, dims in enumerate(dim_sets):
            idx = np.flatnonzero(labels == i)
            dims_arr = np.asarray(dims, dtype=np.intp)
            fancy = X.T[dims_arr[:, None], idx]
            got = _members_block(X, Xc, dims_arr, idx)
            assert got.flags.c_contiguous and fancy.flags.c_contiguous
            np.testing.assert_array_equal(got, fancy)
        with_copy = cluster_dispersions_and_sizes(X, labels, dim_sets, Xc=Xc)
        # without the copy (one-shot, or over the memory budget) X is
        # gathered
        with mock.patch.object(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 1):
            assert column_major(X) is None
            without = cluster_dispersions_and_sizes(X, labels, dim_sets)
        assert with_copy == without
        assert with_copy[1] == {i: int(np.count_nonzero(labels == i))
                                for i in range(k)}


class TestColumnMajorSegmental:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_segmental_matrix_reads_column_major_copy_bit_exactly(self,
                                                                  dtype):
        X = _clustered(dtype)
        Xc = column_major(X)
        plain, fed = IterativeCache(), IterativeCache()
        vertices = [
            (np.array([5, 70, 130]), [(0, 1), (2, 3, 4), (5,)]),
            # a partial miss: medoid 5 keeps its row and dims, 70 keeps
            # its row with new dims, 200 is new
            (np.array([5, 70, 200]), [(0, 1), (1, 3), (0, 2, 3, 4, 5)]),
        ]
        for rows, dims in vertices:
            want = plain.segmental_matrix(X, rows, dims)
            got = fed.segmental_matrix(X, rows, dims, Xc=Xc)
            for w, g in zip(want, got):
                assert g.dtype == X.dtype
                np.testing.assert_array_equal(g, w)
        assert fed.stats["segmental"].hits == 1
        assert fed.stats["segmental"].misses == 5


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

    def test_tiny_budget_passes_still_fill_statistics(self, monkeypatch):
        X = _clustered(np.float64)
        medoids = np.array([5, 70, 130, 200])
        # a budget of a few rows: the |X - m| passes run in short row
        # blocks, and the new medoids' rows are still filled in the pass
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 4096)
        chunked = IterativeCache()
        localities, deltas = _assert_cache_matches_oracles(
            chunked, X, medoids, "euclidean", 2)
        assert chunked.stats["stats"].misses == medoids.size
        assert chunked.stats["stats"].hits == 2 * medoids.size
        stored = chunked.dimension_stats(X, medoids, localities, deltas, 2,
                                         "euclidean")
        for i, row in enumerate(medoids):
            np.testing.assert_array_equal(
                stored[i], _full_slab(X, row, get_metric("euclidean"),
                                      deltas[i], 2)[2])


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
        # besides one N-row column per computed medoid, each scored
        # vertex measures its k x k medoid-to-medoid distances for the
        # radii; a revisited vertex reuses its first visit's score
        X = tiny_projected_dataset.points
        k = 3
        result = proclus(X, k, 4, seed=5, profile=True)
        counters = result.profile["counters"]
        scored = result.n_iterations - counters["iterative.revisits"]
        assert counters["kernel.distance_rows"] == (
            X.shape[0] * counters["cache.distance_computed"]
            + k * k * scored)


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
