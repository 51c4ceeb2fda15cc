"""Unit tests for ProclusConfig validation and ProclusResult accessors."""

import numpy as np
import pytest

from repro.core import ProclusConfig, ProclusResult
from repro.exceptions import ParameterError


class TestProclusConfig:
    def test_valid_defaults(self):
        cfg = ProclusConfig(k=5, l=7).validated(n_points=1000, n_dims=20)
        assert cfg.total_dimensions == 35
        assert cfg.sample_size == 150
        assert cfg.pool_size == 25

    def test_pool_factor_above_sample_rejected(self):
        with pytest.raises(ParameterError, match="pool_factor"):
            ProclusConfig(k=3, l=3, sample_factor=2,
                          pool_factor=5).validated(1000, 10)

    def test_min_deviation_must_be_fraction(self):
        with pytest.raises(ParameterError):
            ProclusConfig(k=3, l=3, min_deviation=1.0).validated(1000, 10)

    def test_l_below_two_dims_per_cluster_rejected(self):
        with pytest.raises(ParameterError, match="must be >= 2"):
            ProclusConfig(k=2, l=1.5).validated(1000, 10)

    def test_k_above_n_rejected(self):
        with pytest.raises(ParameterError):
            ProclusConfig(k=50, l=2).validated(10, 10)

    def test_fractional_l(self):
        cfg = ProclusConfig(k=4, l=2.5).validated(1000, 10)
        assert cfg.total_dimensions == 10


def make_result():
    labels = np.array([0, 0, 1, 1, 1, -1, 2, -1])
    medoids = np.arange(9, dtype=float).reshape(3, 3)
    return ProclusResult(
        labels=labels,
        medoids=medoids,
        medoid_indices=np.array([0, 2, 6]),
        dimensions={0: (0, 1), 1: (1, 2), 2: (0, 2)},
        objective=1.25,
        n_iterations=10,
        n_improvements=4,
        terminated_by="no_improvement",
    )


class TestProclusResult:
    def test_counts(self):
        r = make_result()
        assert r.k == 3
        assert r.n_points == 8
        assert r.n_outliers == 2
        assert r.cluster_sizes() == {0: 2, 1: 3, 2: 1}

    def test_cluster_indices(self):
        r = make_result()
        assert r.cluster_indices(1).tolist() == [2, 3, 4]
        assert r.outlier_indices.tolist() == [5, 7]

    def test_clusters_mapping(self):
        r = make_result()
        clusters = r.clusters()
        assert set(clusters) == {0, 1, 2}
        assert clusters[0].tolist() == [0, 1]

    def test_average_dimensionality(self):
        assert make_result().average_dimensionality == 2.0

    def test_to_dict_round_trippable(self):
        import json
        d = make_result().to_dict()
        encoded = json.dumps(d)
        assert json.loads(encoded)["k"] == 3

    def test_summary_mentions_key_numbers(self):
        text = make_result().summary()
        assert "k=3" in text
        assert "outliers=2" in text
        assert "cluster 0" in text


class TestResultSerialization:
    def test_round_trip(self, tmp_path):
        from repro.core import load_result, save_result
        original = make_result()
        original.objective_history = [3.0, 2.0, 1.25]
        original.phase_seconds = {"initialization": 0.1, "iterative": 0.5,
                                  "refinement": 0.05}
        path = tmp_path / "result.npz"
        save_result(original, path)
        loaded = load_result(path)
        assert np.array_equal(loaded.labels, original.labels)
        assert np.array_equal(loaded.medoids, original.medoids)
        assert loaded.dimensions == original.dimensions
        assert loaded.objective == original.objective
        assert loaded.objective_history == original.objective_history
        assert loaded.phase_seconds == original.phase_seconds
        assert loaded.terminated_by == original.terminated_by

    def test_rejects_foreign_npz(self, tmp_path):
        from repro.core import load_result
        from repro.exceptions import DataError
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(DataError, match="not a saved ProclusResult"):
            load_result(path)

    def test_load_with_fingerprint_single_read(self, tmp_path):
        # the serving path needs arrays + identity from ONE read; the
        # combined loader must agree with the standalone fingerprint
        from repro.core import (load_result, load_result_with_fingerprint,
                                result_fingerprint, save_result)
        path = tmp_path / "fp.npz"
        save_result(make_result(), path)
        result, fingerprint = load_result_with_fingerprint(path)
        assert fingerprint == result_fingerprint(path)
        assert np.array_equal(result.labels, load_result(path).labels)

    def test_fitted_result_round_trip(self, tmp_path):
        """Save/load the result of an actual fit."""
        from repro import proclus
        from repro.core import load_result, save_result
        from repro.data import generate
        ds = generate(300, 8, 2, cluster_dim_counts=[3, 3], seed=5)
        result = proclus(ds.points, 2, 3, seed=5, max_bad_tries=5)
        path = tmp_path / "fit.npz"
        save_result(result, path)
        loaded = load_result(path)
        assert np.array_equal(loaded.labels, result.labels)
        assert loaded.iterative_objective == result.iterative_objective
