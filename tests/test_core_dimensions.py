"""Unit tests for locality analysis and dimension selection (FindDimensions)."""

import numpy as np
import pytest

from repro.core import (
    allocate_dimensions,
    compute_localities,
    dimension_statistics,
    find_dimensions,
    find_dimensions_from_clusters,
)
from repro.core.dimensions import zscores
from repro.exceptions import DataError, ParameterError


class TestComputeLocalities:
    def test_radius_is_nearest_medoid_distance(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 0.0], [8.0, 0.0],
                      [100.0, 100.0]])
        localities, deltas = compute_localities(X, np.array([0, 1]))
        assert deltas[0] == pytest.approx(10.0)
        assert deltas[1] == pytest.approx(10.0)

    def test_membership(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 0.0], [8.0, 0.0],
                      [100.0, 100.0]])
        localities, _ = compute_localities(X, np.array([0, 1]))
        # locality of medoid 0: points within distance 10 (excluding itself)
        assert set(localities[0].tolist()) == {1, 2, 3}
        assert 4 not in localities[0]

    def test_medoid_excluded_from_own_locality(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        localities, _ = compute_localities(X, np.array([3, 17]))
        assert 3 not in localities[0]
        assert 17 not in localities[1]

    def test_fallback_for_crowded_medoids(self):
        """Coincident medoids get a nearest-neighbour fallback locality."""
        X = np.vstack([np.zeros((2, 3)), np.ones((5, 3)) * 50])
        localities, deltas = compute_localities(X, np.array([0, 1]),
                                                min_locality_size=2)
        assert deltas[0] == 0.0
        assert len(localities[0]) >= 2

    def test_needs_two_medoids(self):
        X = np.zeros((5, 2))
        with pytest.raises(ParameterError, match="at least 2 medoids"):
            compute_localities(X, np.array([0]))


class TestDimensionStatistics:
    def test_average_distance_per_dimension(self):
        X = np.array([[0.0, 0.0], [2.0, 6.0], [4.0, 2.0]])
        medoids = X[[0]]
        stats = dimension_statistics(X, medoids, [np.array([1, 2])])
        assert np.allclose(stats, [[3.0, 4.0]])

    def test_empty_locality_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="empty"):
            dimension_statistics(X, X[[0]], [np.array([], dtype=int)])


class TestZScores:
    def test_standardisation(self):
        stats = np.array([[1.0, 2.0, 3.0]])
        z = zscores(stats)
        assert z[0, 0] == pytest.approx(-1.0)
        assert z[0, 1] == pytest.approx(0.0)
        assert z[0, 2] == pytest.approx(1.0)

    def test_zero_sigma_row_is_zero(self):
        z = zscores(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
        assert np.allclose(z[0], 0.0)
        assert not np.allclose(z[1], 0.0)

    def test_single_dim_rejected(self):
        with pytest.raises(ParameterError, match="at least 2"):
            zscores(np.array([[1.0]]))


class TestAllocateDimensions:
    def test_budget_and_floor(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 8))
        sets = allocate_dimensions(z, total=9, min_per_row=2)
        assert sum(len(s) for s in sets) == 9
        assert all(len(s) >= 2 for s in sets)

    def test_greedy_picks_most_negative(self):
        z = np.array([
            [-5.0, -4.0, 0.0, 1.0],
            [-1.0, -0.5, 2.0, -9.0],
        ])
        sets = allocate_dimensions(z, total=5, min_per_row=2)
        # row 0 floor: dims 0, 1; row 1 floor: dims 3, 0
        # remaining 1 pick: most negative unused is z[1,1]=-0.5? vs z[0,2]=0.0
        assert sets[0] == (0, 1)
        assert sets[1] == (0, 1, 3)

    def test_exactly_the_floor(self):
        z = np.zeros((4, 5))
        sets = allocate_dimensions(z, total=8, min_per_row=2)
        assert all(len(s) == 2 for s in sets)

    def test_total_below_floor_rejected(self):
        with pytest.raises(ParameterError, match="floor"):
            allocate_dimensions(np.zeros((3, 5)), total=5, min_per_row=2)

    def test_total_above_capacity_rejected(self):
        with pytest.raises(ParameterError, match="exceeds"):
            allocate_dimensions(np.zeros((2, 3)), total=7, min_per_row=2)

    def test_min_per_row_above_d_rejected(self):
        with pytest.raises(ParameterError, match="exceeds dimensionality"):
            allocate_dimensions(np.zeros((2, 3)), total=8, min_per_row=4)

    def test_no_duplicate_dims_within_row(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 6))
        sets = allocate_dimensions(z, total=16, min_per_row=2)
        for s in sets:
            assert len(s) == len(set(s))


class TestFindDimensions:
    def test_recovers_planted_subspaces(self, two_cluster_points):
        X = two_cluster_points
        # medoids: one point from each cluster (cluster 0 = rows < 40)
        dims = find_dimensions(X, np.array([5, 45]), l=2)
        assert dims[0] == (0, 1)
        assert dims[1] == (2, 3)

    def test_respects_budget(self, two_cluster_points):
        dims = find_dimensions(two_cluster_points, np.array([5, 45]), l=3)
        assert sum(len(d) for d in dims) == 6

    def test_given_empty_locality_rejected(self, two_cluster_points):
        localities = [np.arange(6, 20), np.array([], dtype=np.intp)]
        with pytest.raises(ParameterError, match="locality of medoid 1"):
            find_dimensions(two_cluster_points, np.array([5, 45]), l=2,
                            localities=localities)

    def test_from_clusters_variant(self, two_cluster_points):
        X = two_cluster_points
        labels = np.repeat([0, 1], 40)
        dims = find_dimensions_from_clusters(X, labels, np.array([5, 45]), l=2)
        assert dims[0] == (0, 1)
        assert dims[1] == (2, 3)

    def test_from_clusters_labels_of_another_length_rejected(
            self, two_cluster_points):
        # 60 labels for 80 rows used to ignore the last 20 rows
        with pytest.raises(DataError, match="equal length"):
            find_dimensions_from_clusters(two_cluster_points,
                                          np.repeat([0, 1], 30),
                                          np.array([5, 45]), l=2)

    def test_from_clusters_empty_cluster_falls_back(self, two_cluster_points):
        X = two_cluster_points
        labels = np.zeros(80, dtype=int)  # cluster 1 empty
        fallback = [(0, 1), (2, 3)]
        dims = find_dimensions_from_clusters(
            X, labels, np.array([5, 45]), l=2, fallback=fallback,
        )
        assert dims[1] == (2, 3)
