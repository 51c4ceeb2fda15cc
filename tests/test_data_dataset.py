"""Unit tests for the Dataset container."""

import numpy as np
import pytest

from repro.data import Dataset, OUTLIER_LABEL
from repro.exceptions import DataError


def make_dataset():
    points = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([0, 0, 0, 1, 1, 1, 1, -1, -1, 0])
    dims = {0: (0,), 1: (1, 0)}
    return Dataset(points=points, labels=labels, cluster_dimensions=dims)


class TestConstruction:
    def test_shape_properties(self):
        ds = make_dataset()
        assert ds.n_points == 10
        assert ds.n_dims == 2

    def test_labels_length_mismatch(self):
        with pytest.raises(DataError, match="one entry per point"):
            Dataset(points=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_dimension_indices_validated(self):
        with pytest.raises(DataError, match="out of"):
            Dataset(points=np.zeros((3, 2)), cluster_dimensions={0: (5,)})

    @pytest.mark.parametrize("dims", [[1, 2], {0: 3}, {"a": [0]}, {0: ["x"]}])
    def test_malformed_dimension_map_is_a_data_error(self, dims):
        with pytest.raises(DataError, match="must map cluster ids"):
            Dataset(points=np.zeros((3, 2)), cluster_dimensions=dims)

    def test_dimension_map_keys_and_indices_coerced(self):
        ds = Dataset(points=np.zeros((3, 2)),
                     cluster_dimensions={"1": [1, 0], 0: (1,)})
        assert ds.cluster_dimensions == {1: (0, 1), 0: (1,)}

    def test_dims_sorted_and_deduped(self):
        ds = make_dataset()
        assert ds.cluster_dimensions[1] == (0, 1)

    def test_no_ground_truth(self):
        ds = Dataset(points=np.zeros((3, 2)))
        assert not ds.has_ground_truth
        assert ds.cluster_ids == ()
        assert ds.n_outliers == 0


class TestGroundTruthAccessors:
    def test_cluster_ids_exclude_outliers(self):
        ds = make_dataset()
        assert ds.cluster_ids == (0, 1)
        assert ds.n_clusters == 2

    def test_n_outliers(self):
        assert make_dataset().n_outliers == 2

    def test_cluster_sizes(self):
        assert make_dataset().cluster_sizes() == {0: 4, 1: 4}

    def test_cluster_points(self):
        ds = make_dataset()
        pts = ds.cluster_points(1)
        assert pts.shape == (4, 2)

    def test_cluster_points_without_labels(self):
        ds = Dataset(points=np.zeros((3, 2)))
        with pytest.raises(DataError, match="no ground-truth"):
            ds.cluster_points(0)

    def test_iter_clusters(self):
        ids = [cid for cid, _ in make_dataset().iter_clusters()]
        assert ids == [0, 1]


class TestDerived:
    def test_subset(self):
        ds = make_dataset()
        sub = ds.subset(np.array([0, 3, 7]))
        assert sub.n_points == 3
        assert sub.labels.tolist() == [0, 1, -1]

    def test_without_ground_truth(self):
        blind = make_dataset().without_ground_truth()
        assert blind.labels is None
        assert blind.cluster_dimensions is None
        assert blind.n_points == 10

    def test_outlier_label_constant(self):
        assert OUTLIER_LABEL == -1
