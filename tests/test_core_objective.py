"""Unit tests for the EvaluateClusters objective."""

import numpy as np
import pytest

from repro.core import evaluate_clusters
from repro.core import objective
from repro.core.objective import (cluster_dispersions,
                                  cluster_dispersions_and_sizes)
from repro.exceptions import DataError, ParameterError


class TestClusterDispersions:
    def test_single_tight_cluster(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([0, 0])
        w = cluster_dispersions(X, labels, [(0, 1)])
        # centroid (1, 0); per-point |dx| = 1 on dim0, 0 on dim1 -> mean 0.5
        assert w[0] == pytest.approx(0.5)

    def test_only_cluster_dims_count(self):
        X = np.array([[0.0, 100.0], [2.0, -100.0]])
        labels = np.array([0, 0])
        w = cluster_dispersions(X, labels, [(0,)])
        assert w[0] == pytest.approx(1.0)

    def test_empty_cluster_zero(self):
        X = np.zeros((2, 2))
        labels = np.array([0, 0])
        w = cluster_dispersions(X, labels, [(0,), (1,)])
        assert w[1] == 0.0

    def test_empty_dims_rejected(self):
        with pytest.raises(ParameterError, match="empty dimension set"):
            cluster_dispersions(np.zeros((2, 2)), np.zeros(2, dtype=int), [()])


class TestEvaluateClusters:
    def test_size_weighted_average(self):
        # cluster 0: 2 points, w=0.5; cluster 1: 1 point, w=0
        X = np.array([[0.0, 0.0], [2.0, 0.0], [50.0, 50.0]])
        labels = np.array([0, 0, 1])
        obj = evaluate_clusters(X, labels, [(0, 1), (0, 1)])
        assert obj == pytest.approx((2 * 0.5 + 1 * 0.0) / 3)

    def test_lower_for_better_clustering(self, two_cluster_points):
        X = two_cluster_points
        good = np.repeat([0, 1], 40)
        bad = np.tile([0, 1], 40)
        dims = [(0, 1), (2, 3)]
        assert evaluate_clusters(X, good, dims) < evaluate_clusters(X, bad, dims)

    def test_perfect_clusters_score_zero(self):
        X = np.array([[1.0, 5.0], [1.0, 5.0], [9.0, 2.0], [9.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        assert evaluate_clusters(X, labels, [(0, 1), (0, 1)]) == 0.0

    def test_outliers_excluded_from_numerator(self):
        X = np.array([[0.0], [0.0], [1000.0]])
        labels = np.array([0, 0, -1])
        obj = evaluate_clusters(X, labels, [(0,)])
        assert obj == 0.0

    def test_empty_labels_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            evaluate_clusters(np.zeros((0, 2)), np.array([], dtype=int), [(0,)])


class TestLabelValidation:
    def test_label_above_range_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="label 5 is outside"):
            evaluate_clusters(X, np.array([0, 1, 5]), [(0,), (1,)])

    def test_label_below_outlier_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="label -2 is outside"):
            cluster_dispersions(X, np.array([0, -2, 1]), [(0,), (1,)])

    def test_outlier_label_accepted(self):
        X = np.zeros((3, 2))
        w = cluster_dispersions(X, np.array([0, -1, 1]), [(0,), (1,)])
        assert set(w) == {0, 1}

    @pytest.mark.parametrize("n_labels", [10, 30], ids=["short", "long"])
    @pytest.mark.parametrize("step", [
        evaluate_clusters,                        # the validating export
        objective.evaluate_clusters,
        lambda X, labels, dims: cluster_dispersions_and_sizes(X, labels,
                                                              dims),
        cluster_dispersions,
    ], ids=["export", "core", "and_sizes", "dispersions"])
    def test_labels_of_another_length_rejected(self, step, n_labels):
        # 10 labels for 20 rows used to score X[:10] alone
        X = np.random.default_rng(0).random((20, 3))
        with pytest.raises(DataError, match="equal length"):
            step(X, np.arange(n_labels) % 2, [(0,), (1,)])


class TestOnePassDispersions:
    def _reference(self, X, labels, dim_sets):
        """The historical double-mask implementation, kept as the oracle."""
        dispersions, sizes = {}, {}
        for i in range(len(dim_sets)):
            dims = np.asarray(list(dim_sets[i]), dtype=np.intp)
            if np.count_nonzero(labels == i) == 0:
                dispersions[i] = 0.0
            else:
                sub = X[labels == i][:, dims]
                centroid = sub.mean(axis=0)
                dispersions[i] = float(np.abs(sub - centroid).mean())
            sizes[i] = int(np.count_nonzero(labels == i))
        return dispersions, sizes

    def test_bit_identical_to_double_mask_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(2, 12))
            k = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 50)
            labels = rng.integers(-1, k, size=n)
            dim_sets = [
                tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1),
                                        replace=False).tolist()))
                for _ in range(k)
            ]
            got_w, got_s = cluster_dispersions_and_sizes(X, labels, dim_sets)
            ref_w, ref_s = self._reference(X, labels, dim_sets)
            assert got_s == ref_s
            assert got_w == ref_w  # exact float equality: same reduction

    def test_sizes_match_mask_counts(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.array([0, 0, 1, -1, 1, 1])
        _, sizes = cluster_dispersions_and_sizes(X, labels, [(0,), (0, 1)])
        assert sizes == {0: 2, 1: 3}
