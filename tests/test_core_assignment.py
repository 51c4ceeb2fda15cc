"""Unit tests for point assignment (AssignPoints)."""

import numpy as np
import pytest

from repro.core import assign_points, predict_points
from repro.exceptions import ParameterError

from reference.proclus_ref import segmental_distances


def segmental_distance_matrix(X, medoids, dims):
    """The ``(N, k)`` segmental distances ``assign_points`` returns."""
    return assign_points(X, medoids, dims, return_distances=True)[1]


class TestSegmentalDistanceMatrix:
    def test_columns_use_each_medoids_dims(self):
        X = np.array([[0.0, 100.0], [100.0, 0.0]])
        medoids = np.array([[0.0, 0.0], [0.0, 0.0]])
        dims = [(0,), (1,)]
        m = segmental_distance_matrix(X, medoids, dims)
        assert m[0, 0] == 0.0      # point 0 vs medoid 0 on dim 0
        assert m[0, 1] == 100.0    # point 0 vs medoid 1 on dim 1
        assert m[1, 0] == 100.0
        assert m[1, 1] == 0.0

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 5))
        medoids = rng.normal(size=(3, 5))
        dims = [(0, 1), (2, 3, 4), (1, 4)]
        m = segmental_distance_matrix(X, medoids, dims)
        for j in range(3):
            np.testing.assert_allclose(
                m[:, j], segmental_distances(X, medoids[j], dims[j]),
                rtol=1e-12)

    def test_dim_set_count_mismatch(self):
        with pytest.raises(ParameterError, match="one dimension set per medoid"):
            segmental_distance_matrix(np.zeros((4, 3)), np.zeros((2, 3)), [(0,)])


class TestAssignPoints:
    def test_assigns_to_closest(self, two_cluster_points):
        X = two_cluster_points
        medoids = X[[5, 45]]
        labels = assign_points(X, medoids, [(0, 1), (2, 3)])
        assert np.all(labels[:40] == 0)
        assert np.all(labels[40:] == 1)

    def test_return_distances(self, two_cluster_points):
        X = two_cluster_points
        labels, dist = assign_points(
            X, X[[5, 45]], [(0, 1), (2, 3)], return_distances=True,
        )
        assert dist.shape == (80, 2)
        assert np.array_equal(labels, np.argmin(dist, axis=1))

    def test_labels_in_range(self, two_cluster_points):
        labels = assign_points(
            two_cluster_points, two_cluster_points[[0, 40, 79]],
            [(0,), (1,), (2, 3)],
        )
        assert set(labels.tolist()) <= {0, 1, 2}

    def test_dimension_choice_drives_assignment(self):
        """The same medoids with different dims flip the assignment."""
        X = np.array([[0.0, 9.0]])
        medoids = np.array([[0.0, 0.0], [5.0, 9.0]])
        by_dim0 = assign_points(X, medoids, [(0,), (0,)])
        by_dim1 = assign_points(X, medoids, [(1,), (1,)])
        assert by_dim0[0] == 0
        assert by_dim1[0] == 1


class TestChunkedAssignment:
    """Bounded-memory assignment of new points: predict_points' blocks."""

    def test_matches_unchunked(self, two_cluster_points):
        X = two_cluster_points
        medoids = X[[5, 45]]
        dims = [(0, 1), (2, 3)]
        full = assign_points(X, medoids, dims)
        for chunk in (1, 7, 64, 1000):
            chunked = predict_points(X, medoids, dims, handle_outliers=False,
                                     chunk_size=chunk).labels
            assert (full == chunked).all()

    def test_invalid_chunk_size(self, two_cluster_points):
        with pytest.raises(ParameterError, match="chunk_size"):
            predict_points(two_cluster_points, two_cluster_points[[0]],
                           [(0,)], chunk_size=0)
