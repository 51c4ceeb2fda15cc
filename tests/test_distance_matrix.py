"""Unit tests for batch distance kernels and the metric registry."""

import numpy as np
import pytest

from repro.distance import (
    available_metrics,
    cross_distances,
    get_metric,
    per_dimension_average_distance,
    register_metric,
)
from repro.distance.base import Metric
from repro.exceptions import DataError, ParameterError
from repro.robustness import guards


class TestRegistry:
    def test_lookup_by_name_and_alias(self):
        assert get_metric("manhattan") is get_metric("l1")
        assert get_metric("euclidean") is get_metric("l2")
        assert get_metric("chebyshev") is get_metric("linf")

    def test_case_insensitive(self):
        assert get_metric("Manhattan") is get_metric("manhattan")

    def test_instance_passthrough(self):
        m = get_metric("euclidean")
        assert get_metric(m) is m

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown metric"):
            get_metric("hamming")

    def test_invalid_type(self):
        with pytest.raises(ParameterError, match="name or a Metric"):
            get_metric(42)

    def test_register_custom(self):
        class Half(Metric):
            name = "half-manhattan"

            def reduce_rows(self, A):
                return A.sum(axis=1) / 2

        register_metric(Half())
        assert get_metric("half-manhattan")([0, 0], [2, 2]) == 2.0
        assert "half-manhattan" in available_metrics()

    def test_register_requires_name(self):
        class NoName(Metric):
            def reduce_rows(self, A):
                return np.zeros(A.shape[0])

        with pytest.raises(ParameterError, match="non-empty"):
            register_metric(NoName())


class TestKernels:
    def test_distances_to_point(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = cross_distances(X, [0.0, 0.0], "euclidean")[:, 0]
        assert np.allclose(d, [0.0, 5.0])

    def test_cross_shape_and_values(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        A = rng.normal(size=(2, 3))
        m = cross_distances(X, A, "manhattan")
        assert m.shape == (7, 2)
        assert m[4, 1] == pytest.approx(np.abs(X[4] - A[1]).sum())

    def test_pairwise_symmetric(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        m = cross_distances(X, X, "euclidean")
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_pairwise_triangular_matches_naive(self, metric):
        # |x-y| and (x-y)^2 are symmetric per dimension, so the lower
        # triangle of the N x N matrix mirrors the upper one bit for
        # bit, and both equal one numpy expression per pair
        rng = np.random.default_rng(8)
        X = rng.normal(size=(37, 5))
        m = cross_distances(X, X, metric)
        assert np.array_equal(m, m.T)
        diff = np.abs(X[:, None, :] - X[None, :, :])
        naive = (np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
                 if metric == "euclidean" else diff.sum(axis=2))
        np.testing.assert_allclose(m, naive, rtol=1e-12, atol=1e-12)

    def test_pairwise_chunked_matches_naive(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 4))
        naive = cross_distances(X, X, "euclidean")
        # a 1 KiB budget walks the rows in blocks of 5
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 1024)
        assert np.array_equal(cross_distances(X, X, "euclidean"), naive)

    def test_single_anchor_promoted(self):
        X = np.zeros((3, 2))
        m = cross_distances(X, np.array([1.0, 1.0]), "manhattan")
        assert m.shape == (3, 1)
        assert np.allclose(m, 2.0)


class TestPerDimensionAverage:
    def test_known_values(self):
        X = np.array([[0.0, 10.0], [4.0, 10.0]])
        p = np.array([2.0, 10.0])
        avg = per_dimension_average_distance(X, p)
        assert np.allclose(avg, [2.0, 0.0])

    def test_weighted(self):
        # integer weights 3 and 1: a row listed three times counts thrice
        X = np.array([[0.0, 1.0], [10.0, 5.0]])
        p = np.array([0.0, 1.0])
        avg = per_dimension_average_distance(X, p, rows=np.array([0, 0, 0, 1]))
        assert avg.tolist() == [2.5, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            per_dimension_average_distance(np.empty((0, 3)), np.zeros(3))


class TestTypedErrors:
    X = np.arange(12.0).reshape(4, 3)

    def test_empty_x_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            per_dimension_average_distance(np.empty((0, 3)), np.zeros(3))
        with pytest.raises(DataError, match="2-dimensional"):
            per_dimension_average_distance(np.zeros(3), np.zeros(3))

    def test_empty_rows_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            per_dimension_average_distance(self.X, self.X[0],
                                           rows=np.empty(0, dtype=np.intp))

    @pytest.mark.parametrize("rows", [[0, 4], [-5, 1]], ids=["n", "-n-1"])
    def test_rows_outside_range_rejected(self, rows):
        with pytest.raises(ParameterError, match=r"\[-4, 4\)"):
            per_dimension_average_distance(self.X, self.X[0],
                                           rows=np.array(rows))

    @pytest.mark.parametrize("rows", [np.array([0.0, 1.0]),
                                      np.array([True, False]),
                                      np.array([[0, 1]])],
                             ids=["float", "bool", "2-D"])
    def test_non_integer_rows_rejected(self, rows):
        with pytest.raises(ParameterError, match="integer row indices"):
            per_dimension_average_distance(self.X, self.X[0], rows=rows)

    @pytest.mark.parametrize("length", [2, 4])
    def test_point_of_another_length_rejected(self, length):
        with pytest.raises(DataError, match=f"3 dimensions; got {length}"):
            per_dimension_average_distance(self.X, np.zeros(length))
        with pytest.raises(DataError, match=f"3 dimensions; got {length}"):
            per_dimension_average_distance(self.X, np.zeros(length),
                                           rows=np.array([0, 1]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("d", [1, 3])
    def test_negative_rows_count_from_the_end(self, dtype, d):
        X = np.random.default_rng(d).normal(size=(6, d)).astype(dtype)
        rows = np.array([-1, 0, -6, 2, 5, -1])
        got = per_dimension_average_distance(X, X[1], rows=rows)
        np.testing.assert_array_equal(
            got, per_dimension_average_distance(X, X[1], rows=rows % 6))
        np.testing.assert_array_equal(
            got, np.abs(X[rows] - X[1]).mean(axis=0, dtype=np.float64))
        # unsigned indices are integers too
        np.testing.assert_array_equal(
            per_dimension_average_distance(
                X, X[1], rows=(rows % 6).astype(np.uint32)), got)
