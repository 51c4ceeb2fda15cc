"""Edge-case battery across modules: degenerate inputs, boundary
parameters, and pathological data that a production library must survive.
"""

import numpy as np
import pytest

from repro import Proclus, proclus
from repro.baselines import Clique
from repro.baselines.clique import Grid, Unit
from repro.core import (
    allocate_dimensions,
    evaluate_clusters,
    greedy_select,
)
from repro.core.iterative import find_bad_medoids
from repro.data import Dataset, generate
from repro.distance import segmental_distances_to_point
from repro.exceptions import DataError, ParameterError
from repro.extensions import orclus


class TestDegenerateData:
    def test_all_identical_points(self):
        """Zero-variance data: every locality is degenerate, every
        Z-row zero; the algorithm must not crash or divide by zero."""
        X = np.full((100, 5), 42.0)
        result = proclus(X, 2, 2, seed=1, sample_factor=10, pool_factor=2,
                         max_bad_tries=2)
        assert result.labels.shape == (100,)
        assert np.isfinite(result.objective)

    def test_single_tight_cluster_k2(self):
        """Asking for 2 clusters in unimodal data still terminates."""
        rng = np.random.default_rng(0)
        X = rng.normal(50, 0.1, size=(200, 4))
        result = proclus(X, 2, 2, seed=1, max_bad_tries=3)
        assert set(np.unique(result.labels)) <= {-1, 0, 1}

    def test_two_points_two_clusters(self):
        X = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        result = proclus(X, 2, 2, seed=1, sample_factor=1, pool_factor=1,
                         max_bad_tries=1)
        assert len(set(result.labels.tolist()) - {-1}) >= 1

    def test_one_dimension_rejected(self):
        """l >= 2 makes d = 1 unusable; the error must be clear."""
        X = np.random.default_rng(0).normal(size=(50, 1))
        with pytest.raises(ParameterError):
            proclus(X, 2, 2)

    def test_constant_dimension_in_data(self):
        """A constant column has zero spread everywhere — it will look
        'tight' to every cluster, which is acceptable, but nothing may
        crash and the budget must hold."""
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 100, size=(300, 6))
        X[:, 3] = 7.0
        result = proclus(X, 2, 3, seed=1, max_bad_tries=3)
        assert sum(len(d) for d in result.dimensions.values()) == 6

    def test_extreme_coordinates(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(200, 4)) * 1e12
        result = proclus(X, 2, 2, seed=2, max_bad_tries=3)
        assert np.isfinite(result.objective)


class TestBoundaryParameters:
    def test_l_equals_d(self):
        """l = d means every cluster gets every dimension."""
        ds = generate(400, 4, 2, cluster_dim_counts=[2, 2], seed=3)
        result = proclus(ds.points, 2, 4, seed=3, max_bad_tries=3)
        assert all(len(d) == 4 for d in result.dimensions.values())

    def test_k_equals_one_requires_two_medoids_for_locality(self):
        """k = 1 has no 'nearest other medoid'; the library rejects it
        cleanly rather than returning garbage."""
        ds = generate(200, 5, 1, cluster_dim_counts=[3], seed=4)
        with pytest.raises((ParameterError, ValueError)):
            proclus(ds.points, 1, 3, seed=4)

    def test_min_deviation_extremes(self):
        ds = generate(300, 6, 2, cluster_dim_counts=[3, 3], seed=5)
        for md in (1e-9, 0.999):
            result = proclus(ds.points, 2, 3, seed=5, min_deviation=md,
                             max_bad_tries=2)
            assert result.labels.shape == (300,)

    def test_pool_exactly_k(self):
        """B*k == k: no replacement candidates — terminates immediately."""
        ds = generate(200, 5, 2, cluster_dim_counts=[2, 2], seed=6)
        result = proclus(ds.points, 2, 2, seed=6, sample_factor=1,
                         pool_factor=1, max_bad_tries=50)
        assert result.terminated_by in {"pool_exhausted", "no_improvement",
                                        "max_iterations"}


class TestAllocatorEdges:
    def test_all_z_equal_ties_resolved_deterministically(self):
        z = np.zeros((3, 4))
        a = allocate_dimensions(z, total=8, min_per_row=2)
        b = allocate_dimensions(z, total=8, min_per_row=2)
        assert a == b

    def test_total_equals_capacity(self):
        z = np.random.default_rng(0).normal(size=(2, 3))
        sets = allocate_dimensions(z, total=6, min_per_row=2)
        assert all(len(s) == 3 for s in sets)

    def test_min_per_row_one(self):
        z = np.array([[-5.0, 1.0], [-1.0, -2.0]])
        sets = allocate_dimensions(z, total=3, min_per_row=1)
        assert sum(len(s) for s in sets) == 3
        assert all(len(s) >= 1 for s in sets)


class TestBadMedoidEdges:
    def test_all_points_in_one_cluster(self):
        labels = np.zeros(100, dtype=int)
        bad = find_bad_medoids(labels, k=3, min_deviation=0.1)
        assert set(bad) >= {1, 2}

    def test_single_cluster_k1(self):
        labels = np.zeros(10, dtype=int)
        assert find_bad_medoids(labels, k=1, min_deviation=0.1) == [0]


class TestGreedyEdges:
    def test_single_point(self):
        idx = greedy_select(np.array([[1.0, 2.0]]), 1)
        assert idx.tolist() == [0]

    def test_duplicate_points_all_selectable(self):
        X = np.zeros((5, 2))
        idx = greedy_select(X, 5, seed=0)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


class TestCliqueEdges:
    def test_xi_one_single_cell(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(100, 3))
        c = Clique(xi=1, tau=0.5).fit(X)
        # everything lives in the one cell of every subspace
        assert c.result.coverage_fraction == 1.0
        assert c.result.average_overlap >= 1.0

    def test_target_dim_without_units_gives_empty(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 100, size=(100, 3))
        c = Clique(xi=10, tau=0.9, target_dimensionality=3).fit(X)
        assert c.result.n_clusters == 0
        assert c.result.coverage_fraction == 0.0

    def test_single_point_dataset(self):
        c = Clique(xi=10, tau=0.5).fit(np.array([[1.0, 2.0]]))
        assert c.result.n_dense_units >= 1

    def test_unit_with_xi_one_has_no_neighbours(self):
        u = Unit(dims=(0, 1), intervals=(0, 0))
        assert list(u.neighbours(xi=1)) == []

    def test_grid_single_point_bounds(self):
        g = Grid(xi=10).fit(np.array([[5.0, 5.0]]))
        cells = g.cell_indices(np.array([[5.0, 5.0]]))
        assert cells.tolist() == [[0, 0]]


class TestOrclusEdges:
    def test_seed_factor_capped_by_n(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        result = orclus(X, 2, 2, seed_factor=100, seed=0)
        assert result.k == 2

    def test_k_equals_n_minus_edge(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 4))
        result = orclus(X, 3, 2, seed=1)
        assert result.labels.shape == (10,)


class TestEvaluateEdges:
    def test_all_outliers_objective_zero(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        labels = np.full(10, -1)
        assert evaluate_clusters(X, labels, [(0, 1)]) == 0.0

    def test_segmental_distance_identical_points(self):
        assert segmental_distances_to_point(
            np.array([[1.0, 2.0, 3.0]]), [1, 2, 3], [0, 2]).tolist() == [0.0]


class TestRobustnessEdges:
    @pytest.mark.filterwarnings("ignore::repro.exceptions.SanitizationWarning")
    def test_n_equals_k(self):
        """k == N: infeasible as asked (the pool needs B*k <= N points);
        raises plainly, degrades gracefully when allowed."""
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 100, size=(12, 5))
        with pytest.raises(ParameterError):
            proclus(X, 12, 2, seed=0)
        result = proclus(X, 12, 2, seed=0, auto_degrade=True)
        assert result.degraded
        assert result.k < 12
        assert result.labels.shape == (12,)

    @pytest.mark.filterwarnings("ignore::repro.exceptions.SanitizationWarning")
    def test_all_duplicates_dataset(self):
        """Every row identical: one distinct point — only the k-medoids
        rung of the ladder can serve this."""
        X = np.tile([3.0, 1.0, 4.0, 1.0], (50, 1))
        result = proclus(X, 3, 2, seed=0, auto_degrade=True,
                         collapse_duplicates=True)
        assert result.degraded
        assert result.labels.shape == (50,)
        assert set(np.unique(result.labels)) <= {-1, 0}

    @pytest.mark.filterwarnings("ignore::repro.exceptions.SanitizationWarning")
    def test_single_varying_column(self):
        """All but one dimension constant; the constant dims cannot all
        be excluded (the >=2-dims floor) but nothing may crash."""
        rng = np.random.default_rng(8)
        X = np.full((200, 6), 5.0)
        X[:, 2] = rng.uniform(0, 100, size=200)
        result = proclus(X, 2, 2, seed=1, max_bad_tries=3, auto_degrade=True)
        assert result.labels.shape == (200,)
        assert np.isfinite(result.objective)

    def test_predict_far_outside_training_range(self):
        """predict() on points far beyond the training envelope must
        return valid cluster ids (no outlier logic, no overflow)."""
        ds = generate(400, 8, 2, cluster_dim_counts=[3, 3], seed=9)
        est = Proclus(k=2, l=3, seed=9, max_bad_tries=3).fit(ds.points)
        far = np.array([[1e9] * 8, [-1e9] * 8, [1e12] * 8])
        labels = est.predict(far)
        assert labels.shape == (3,)
        assert set(labels.tolist()) <= {0, 1}


class TestDatasetEdges:
    def test_single_point_dataset(self):
        ds = Dataset(points=np.array([[1.0, 2.0]]))
        assert ds.n_points == 1

    def test_generator_single_cluster(self):
        ds = generate(100, 5, 1, cluster_dim_counts=[3], seed=1)
        assert ds.n_clusters == 1
        assert len(ds.cluster_dimensions[0]) == 3

    def test_generator_many_clusters_few_points(self):
        ds = generate(60, 5, 10, outlier_fraction=0.0, seed=2)
        assert sum(ds.cluster_sizes().values()) == 60
        assert all(s >= 1 for s in ds.cluster_sizes().values())
