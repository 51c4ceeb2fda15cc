"""Unit tests for external indices (ARI/NMI/purity/F1) and internal ones."""

import numpy as np
import pytest

from repro.exceptions import DataError, ParameterError
from repro.metrics import (
    adjusted_rand_index,
    normalized_mutual_info,
    pairwise_f1,
    projected_objective,
    purity,
    segmental_silhouette,
)


LABELS = np.array([0, 0, 0, 1, 1, 1])
SAME = LABELS
RELABELED = np.array([1, 1, 1, 0, 0, 0])
HALF = np.array([0, 0, 1, 1, 1, 1])
RANDOMISH = np.array([0, 1, 0, 1, 0, 1])


class TestAri:
    def test_identical_is_one(self):
        assert adjusted_rand_index(SAME, LABELS) == 1.0

    def test_permutation_invariant(self):
        assert adjusted_rand_index(RELABELED, LABELS) == 1.0

    def test_partial_between(self):
        v = adjusted_rand_index(HALF, LABELS)
        assert 0.0 < v < 1.0

    def test_orthogonal_near_zero(self):
        v = adjusted_rand_index(RANDOMISH, LABELS)
        assert v < 0.2

    def test_outliers_excluded_by_default(self):
        found = np.array([0, 0, -1, 1, 1])
        true = np.array([0, 0, 0, 1, 1])
        assert adjusted_rand_index(found, true) == 1.0

    def test_outliers_included_on_request(self):
        found = np.array([0, 0, -1, 1, 1])
        true = np.array([0, 0, 0, 1, 1])
        assert adjusted_rand_index(found, true, include_outliers=True) < 1.0

    def test_matches_scipy_free_reference(self):
        """Cross-check against sklearn's published example values."""
        assert adjusted_rand_index(
            np.array([0, 0, 1, 2]), np.array([0, 0, 1, 1])
        ) == pytest.approx(0.5714285714285714)


class TestNmi:
    def test_identical_is_one(self):
        assert normalized_mutual_info(SAME, LABELS) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        assert normalized_mutual_info(RELABELED, LABELS) == pytest.approx(1.0)

    def test_bounds(self):
        v = normalized_mutual_info(HALF, LABELS)
        assert 0.0 <= v <= 1.0

    def test_single_cluster_degenerate(self):
        ones = np.zeros(6, dtype=int)
        assert normalized_mutual_info(ones, ones) == 1.0


class TestPurityF1:
    def test_purity_perfect(self):
        assert purity(SAME, LABELS) == 1.0

    def test_purity_known_value(self):
        found = np.array([0, 0, 0, 1, 1, 1])
        true = np.array([0, 0, 1, 1, 1, 0])
        assert purity(found, true) == pytest.approx(4 / 6)

    def test_f1_perfect(self):
        assert pairwise_f1(SAME, LABELS) == pytest.approx(1.0)

    def test_f1_bounds(self):
        assert 0.0 <= pairwise_f1(HALF, LABELS) <= 1.0


class TestInternal:
    def test_projected_objective_matches_core(self, two_cluster_points):
        labels = np.repeat([0, 1], 40)
        dims = {0: (0, 1), 1: (2, 3)}
        obj = projected_objective(two_cluster_points, labels, dims)
        assert obj > 0.0
        # tight planted clusters: dispersion well under 2 (sigma = 0.5)
        assert obj < 2.0

    def test_silhouette_high_for_planted_structure(self, two_cluster_points):
        labels = np.repeat([0, 1], 40)
        dims = {0: (0, 1), 1: (2, 3)}
        s = segmental_silhouette(two_cluster_points, labels, dims)
        assert s > 0.5

    def test_silhouette_low_for_shuffled_labels(self, two_cluster_points):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 80)
        dims = {0: (0, 1), 1: (2, 3)}
        s = segmental_silhouette(two_cluster_points, labels, dims)
        assert s < 0.3

    def test_silhouette_needs_two_clusters(self, two_cluster_points):
        with pytest.raises(DataError):
            segmental_silhouette(two_cluster_points, np.zeros(80, dtype=int),
                                 {0: (0, 1)})

    def test_silhouette_ignores_outliers(self, two_cluster_points):
        labels = np.repeat([0, 1], 40)
        labels[0] = -1
        dims = {0: (0, 1), 1: (2, 3)}
        s = segmental_silhouette(two_cluster_points, labels, dims)
        assert s > 0.5

    @pytest.mark.parametrize("dims", [
        {0: (0, 1)},                   # no set for cluster 1
        {0: (0, 1), 1: (2, 4)},        # index past the last column
        {0: (0, 1), 1: (-1, 2)},       # negative index
        {0: (0, 1), 1: ()},            # empty set
    ], ids=["missing", "past-end", "negative", "empty"])
    def test_silhouette_bad_dimensions_typed(self, two_cluster_points, dims):
        labels = np.repeat([0, 1], 40)
        with pytest.raises(ParameterError):
            segmental_silhouette(two_cluster_points, labels, dims)

    @pytest.mark.parametrize("dims", [
        {0: (0, 1), 2: (2, 3)},        # a gap at cluster 1
        {0: (0, 1), 1: (2, 4)},        # index past the last column
    ], ids=["gap", "past-end"])
    def test_objective_bad_dimensions_typed(self, two_cluster_points, dims):
        labels = np.repeat([0, 1], 40)
        with pytest.raises(ParameterError):
            projected_objective(two_cluster_points, labels, dims)

    @pytest.mark.parametrize("metric", [projected_objective,
                                        segmental_silhouette])
    def test_labels_of_another_length_rejected(self, two_cluster_points,
                                               metric):
        # 60 labels for 80 rows: the objective used to score only the
        # first 60 rows, the silhouette raised IndexError
        labels = np.repeat([0, 1], 30)
        with pytest.raises(DataError, match="equal length"):
            metric(two_cluster_points, labels, {0: (0, 1), 1: (2, 3)})

    @pytest.mark.parametrize("labels", [
        np.repeat([0.5, 1.0], 40),      # 0.5 used to name cluster 0
        np.repeat([np.nan, 1.0], 40),
        np.repeat(["a", "b"], 40),
    ], ids=["fraction", "nan", "strings"])
    def test_silhouette_non_integer_labels_typed(self, two_cluster_points,
                                                 labels):
        # labels 0.5/1.0 used to give 0.0 with two RuntimeWarnings
        with pytest.raises(DataError, match="integers"):
            segmental_silhouette(two_cluster_points, labels,
                                 {0: (0, 1), 1: (2, 3)})

    def test_silhouette_integral_float_labels_accepted(self,
                                                       two_cluster_points):
        dims = {0: (0, 1), 1: (2, 3)}
        labels = np.repeat([0, 1], 40)
        assert (segmental_silhouette(two_cluster_points,
                                     labels.astype(float), dims)
                == segmental_silhouette(two_cluster_points, labels, dims))
