"""Unit tests for the refinement phase and outlier handling."""

import numpy as np
import pytest

from repro.core import refine_clusters
from repro.core.refinement import detect_outliers, spheres_of_influence
from repro.data.dataset import OUTLIER_LABEL
from repro.exceptions import ParameterError


class TestSpheresOfInfluence:
    def test_minimum_over_other_medoids(self):
        medoids = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 4.0]])
        dims = [(0, 1), (0, 1), (0, 1)]
        spheres = spheres_of_influence(medoids, dims)
        # medoid 0: nearest other is (0,4): segmental = (0+4)/2 = 2
        assert spheres[0] == pytest.approx(2.0)

    def test_uses_each_medoids_own_dims(self):
        medoids = np.array([[0.0, 0.0], [10.0, 2.0]])
        dims = [(0,), (1,)]
        spheres = spheres_of_influence(medoids, dims)
        assert spheres[0] == pytest.approx(10.0)  # |0-10| on dim 0
        assert spheres[1] == pytest.approx(2.0)   # |2-0| on dim 1

    def test_single_medoid_infinite(self):
        spheres = spheres_of_influence(np.array([[1.0, 2.0]]), [(0, 1)])
        assert np.isinf(spheres[0])

    def test_empty_dimension_set_rejected(self):
        with pytest.raises(ParameterError, match="empty dimension set"):
            spheres_of_influence(np.zeros((2, 3)), [(0,), ()])

    def test_mismatched_dim_sets_rejected(self):
        with pytest.raises(ParameterError, match="dimension sets"):
            spheres_of_influence(np.zeros((3, 2)), [(0,), (1,)])

    def test_bit_identical_to_per_medoid_loop(self):
        # oracle: the historical np.delete + point-kernel loop
        from repro.distance.segmental import segmental_distances_to_point

        rng = np.random.default_rng(23)
        for trial in range(60):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(2, 40))
            medoids = rng.normal(size=(k, d)) * rng.uniform(0.1, 100)
            dims = [
                tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1),
                                        replace=False).tolist()))
                for _ in range(k)
            ]
            got = spheres_of_influence(medoids, dims)
            ref = np.empty(k)
            for i in range(k):
                others = np.delete(np.arange(k), i)
                if others.size == 0:
                    ref[i] = np.inf
                    continue
                ref[i] = segmental_distances_to_point(
                    medoids[others], medoids[i], dims[i]).min()
            # exact equality: the matrix path must reduce with the same
            # summation order as the historical per-medoid gathers
            assert np.array_equal(got, ref), (trial, k, d)


class TestDetectOutliers:
    def test_outside_every_sphere(self):
        dist = np.array([[5.0, 7.0], [1.0, 9.0]])
        spheres = np.array([2.0, 3.0])
        mask = detect_outliers(dist.T, spheres)
        assert mask.tolist() == [True, False]

    def test_boundary_not_outlier(self):
        dist = np.array([[2.0, 9.0]])
        spheres = np.array([2.0, 3.0])
        assert detect_outliers(dist.T, spheres).tolist() == [False]

    def test_equality_on_every_sphere_not_outlier(self):
        # the comparison is strictly >: sitting exactly on every sphere
        # keeps the point assigned
        dist = np.array([[2.0, 3.0]])
        spheres = np.array([2.0, 3.0])
        assert detect_outliers(dist.T, spheres).tolist() == [False]
        nudged = np.nextafter(dist, np.inf)
        assert detect_outliers(nudged.T, spheres).tolist() == [True]

    def test_infinite_sphere_suppresses_outliers(self):
        dist = np.array([[1e12]])
        spheres = np.array([np.inf])
        assert detect_outliers(dist.T, spheres).tolist() == [False]


class TestRefineClusters:
    def test_recovers_planted_structure(self, two_cluster_points):
        X = two_cluster_points
        rough = np.repeat([0, 1], 40)
        out = refine_clusters(X, rough, np.array([5, 45]), l=2)
        assert out.dim_sets[0] == (0, 1)
        assert out.dim_sets[1] == (2, 3)
        core0 = out.labels[:40]
        core1 = out.labels[40:]
        assert (core0 == 0).mean() > 0.9
        assert (core1 == 1).mean() > 0.9

    def test_far_point_flagged_as_outlier(self, two_cluster_points):
        X = np.vstack([two_cluster_points,
                       [[500.0, 500.0, 500.0, 500.0]]])
        rough = np.append(np.repeat([0, 1], 40), 0)
        out = refine_clusters(X, rough, np.array([5, 45]), l=2)
        assert out.labels[-1] == OUTLIER_LABEL
        assert out.n_outliers >= 1

    def test_outlier_handling_can_be_disabled(self, two_cluster_points):
        X = np.vstack([two_cluster_points,
                       [[500.0, 500.0, 500.0, 500.0]]])
        rough = np.append(np.repeat([0, 1], 40), 0)
        out = refine_clusters(X, rough, np.array([5, 45]), l=2,
                              handle_outliers=False)
        assert out.n_outliers == 0
        assert (out.labels >= 0).all()

    def test_empty_cluster_uses_fallback_dims(self, two_cluster_points):
        X = two_cluster_points
        rough = np.zeros(80, dtype=int)  # cluster 1 got no points
        out = refine_clusters(X, rough, np.array([5, 45]), l=2,
                              fallback_dims=[(0, 1), (2, 3)])
        assert out.dim_sets[1] == (2, 3)

    def test_spheres_reported(self, two_cluster_points):
        out = refine_clusters(two_cluster_points, np.repeat([0, 1], 40),
                              np.array([5, 45]), l=2)
        assert out.spheres.shape == (2,)
        assert (out.spheres > 0).all()

    def test_single_cluster_has_no_outliers(self, two_cluster_points):
        # k=1: no other medoid, so the sphere of influence is infinite
        # and no point can ever sit outside it
        X = np.vstack([two_cluster_points,
                       [[500.0, 500.0, 500.0, 500.0]]])
        rough = np.zeros(81, dtype=int)
        out = refine_clusters(X, rough, np.array([5]), l=2)
        assert np.isinf(out.spheres).all()
        assert out.n_outliers == 0
        assert (out.labels == 0).all()
