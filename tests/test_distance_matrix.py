"""Unit tests for batch distance kernels and the metric registry."""

import numpy as np
import pytest

from repro.distance import (
    available_metrics,
    cross_distances,
    distances_to_point,
    get_metric,
    pairwise_distances,
    per_dimension_average_distance,
    register_metric,
)
from repro.distance.base import Metric
from repro.exceptions import ParameterError


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
        d = distances_to_point(X, [0.0, 0.0], "euclidean")
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
        m = pairwise_distances(X, "euclidean")
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_pairwise_triangular_matches_naive(self, metric):
        # pairwise_distances computes the lower triangle and mirrors;
        # |x-y| and (x-y)^2 are symmetric per dimension, so it must
        # equal the full N x N cross computation bit for bit
        rng = np.random.default_rng(8)
        X = rng.normal(size=(37, 5))
        naive = cross_distances(X, X, metric)
        assert np.array_equal(pairwise_distances(X, metric), naive)

    def test_pairwise_chunked_matches_naive(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 4))
        naive = cross_distances(X, X, "euclidean")
        chunked = pairwise_distances(X, "euclidean",
                                     memory_budget_bytes=1024)
        assert np.array_equal(chunked, naive)

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
        X = np.array([[0.0], [10.0]])
        p = np.array([0.0])
        avg = per_dimension_average_distance(X, p, weights=np.array([3.0, 1.0]))
        assert avg[0] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            per_dimension_average_distance(np.empty((0, 3)), np.zeros(3))
