"""Unit tests for the Manhattan segmental distance (paper section 1.2).

The distance is computed by two kernels: ``segmental_distances_to_point``
(many points, one point, one ``D``) and ``segmental_columns`` (one
column per medoid, each with its own ``D``).  The paper's properties
are checked on both; ``reference.proclus_ref.segmental_distances`` is
the literal per-dimension oracle.
"""

import numpy as np
import pytest

from repro.distance import (
    Metric,
    cross_distances,
    manhattan,
    segmental_distances_to_point,
)
from repro.exceptions import DataError, ParameterError
from repro.perf.kernels import segmental_columns
from repro.robustness import guards

from reference.proclus_ref import segmental_distances


def segmental(a, b, dims):
    """``d_D(a, b)`` from the batch kernel, for one point ``a``."""
    return float(segmental_distances_to_point(
        np.atleast_2d(np.asarray(a, dtype=float)), b, dims)[0])


def pairwise(X, dims):
    """``(n, n)`` segmental distances among the rows of ``X``."""
    return segmental_columns(X, X, [dims] * X.shape[0])


class SubspaceManhattan(Metric):
    """The segmental distance over fixed ``dims``, as a user plugs it in."""

    name = "subspace-manhattan"

    def __init__(self, dims):
        self.dims = np.asarray(dims)

    def reduce_rows(self, A):
        return A[:, self.dims].mean(axis=1)


class TestSegmentalDistance:
    def test_is_average_per_dimension(self):
        a = [0.0, 0.0, 0.0, 0.0]
        b = [2.0, 4.0, 100.0, -50.0]
        # dims {0, 1}: (2 + 4) / 2 = 3
        assert segmental(a, b, [0, 1]) == 3.0
        assert segmental_columns(np.array([a]), np.array([b]),
                                 [(0, 1)])[0, 0] == 3.0

    def test_full_dims_equals_manhattan_over_d(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=6), rng.normal(size=6)
        full = segmental(a, b, range(6))
        assert full == pytest.approx(manhattan(a, b) / 6)

    def test_single_dimension(self):
        assert segmental([1, 9], [4, 9], [0]) == 3.0

    def test_ignores_other_dims(self):
        a = [0.0, 123.0]
        b = [1.0, -999.0]
        assert segmental(a, b, [0]) == 1.0

    def test_empty_dims_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            segmental([1.0], [2.0], [])
        with pytest.raises(ParameterError):
            segmental_columns(np.ones((3, 2)), np.ones((1, 2)), [()])

    def test_normalisation_makes_subspaces_comparable(self):
        # same per-dimension gap; distances must agree despite |D| differing
        a = np.zeros((1, 8))
        b = np.full(8, 3.0)
        assert segmental(a, b, [0, 1]) == segmental(a, b, [2, 3, 4, 5])
        columns = segmental_columns(a, np.vstack([b, b]),
                                    [(0, 1), (2, 3, 4, 5)])
        assert columns[0, 0] == columns[0, 1] == 3.0


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 5))
        p = rng.normal(size=5)
        dims = (0, 2, 4)
        batch = segmental_distances_to_point(X, p, dims)
        np.testing.assert_array_equal(
            batch, np.abs(X[:, dims] - p[list(dims)]).mean(axis=1))
        np.testing.assert_allclose(batch, segmental_distances(X, p, dims),
                                   rtol=1e-12)

    def test_pairwise_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 4))
        m = pairwise(X, (1, 3))
        # |x - y| == |y - x| per dimension, summed in the same order
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 4))
        m = pairwise(X, (0, 1))
        for j in range(5):
            np.testing.assert_allclose(
                m[:, j], segmental_distances_to_point(X, X[j], (0, 1)),
                rtol=1e-12)

    def test_chunked_matches_unchunked_exactly(self, monkeypatch):
        # a tiny budget shrinks the row blocks, down to one row at 1
        # byte; per-row means are independent, so the values must be
        # bit-identical
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 6))
        p = rng.normal(size=6)
        dims = [0, 2, 3, 5]
        full = segmental_distances_to_point(X, p, dims)
        for budget in (1, 100, 4096):
            monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
            chunked = segmental_distances_to_point(X, p, dims)
            np.testing.assert_array_equal(full, chunked)


class TestMetricObject:
    def test_callable_form(self):
        metric = SubspaceManhattan([0, 1])
        assert metric([0, 0, 5], [2, 4, 99]) == 3.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 4))
        m = pairwise(X, (0, 2))
        assert np.all(m[:, None, :] <= m[:, :, None] + m[None, :, :] + 1e-12)
        # a Metric defined by its row reduction gives the kernel's bits
        np.testing.assert_array_equal(
            cross_distances(X, X[:3], SubspaceManhattan([0, 2])),
            np.column_stack([segmental_distances_to_point(X, X[j], (0, 2))
                             for j in range(3)]))


class TestTypedErrors:
    X = np.arange(12.0).reshape(4, 3)

    def test_point_of_another_length_rejected(self):
        # the point's extra entry used to be ignored silently
        with pytest.raises(DataError, match="3 dimensions; got 4"):
            segmental_distances_to_point(self.X, np.zeros(4), [0])
        with pytest.raises(DataError, match="3 dimensions; got 2"):
            segmental_distances_to_point(self.X, np.zeros(2), [0])

    @pytest.mark.parametrize("dims", [[3], [0, 5], [-1]])
    def test_dimension_outside_range_rejected(self, dims):
        with pytest.raises(ParameterError, match=r"indices in \[0, 2\]"):
            segmental_distances_to_point(self.X, self.X[0], dims)

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(DataError, match="2-dimensional"):
            segmental_distances_to_point(self.X[0], self.X[0], [0])

    def test_unsorted_dims_keep_their_order(self):
        # D is validated, not sorted: the row mean sums in the given order
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-8, 8, (50, 6))
        dims = [4, 0, 5, 2]
        np.testing.assert_array_equal(
            segmental_distances_to_point(X, X[3], dims),
            np.abs(X[:, dims] - X[3, dims]).mean(axis=1))


class TestCrossDistancesTypedErrors:
    def test_anchors_of_another_width_rejected(self):
        X = np.zeros((5, 3))
        with pytest.raises(DataError, match="width 3"):
            cross_distances(X, np.zeros((2, 4)))
        with pytest.raises(DataError, match="width 3"):
            cross_distances(X, np.zeros(2))

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(DataError, match="2-dimensional"):
            cross_distances(np.zeros(3), np.zeros((1, 3)))
