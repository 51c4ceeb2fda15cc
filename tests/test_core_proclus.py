"""Unit tests for the public PROCLUS API (estimator + function)."""

import numpy as np
import pytest

from repro import Proclus, proclus
from repro.data import generate
from repro.exceptions import NotFittedError, ParameterError
from repro.metrics import adjusted_rand_index


@pytest.fixture(scope="module")
def easy_dataset():
    return generate(1500, 12, 3, cluster_dim_counts=[5, 5, 5],
                    outlier_fraction=0.03, seed=17)


@pytest.fixture(scope="module")
def fitted(easy_dataset):
    return proclus(easy_dataset.points, 3, 5, seed=17)


class TestFunctionalApi:
    def test_result_shapes(self, easy_dataset, fitted):
        assert fitted.labels.shape == (1500,)
        assert fitted.medoids.shape == (3, 12)
        assert fitted.medoid_indices.shape == (3,)
        assert set(fitted.dimensions) == {0, 1, 2}

    def test_labels_range(self, fitted):
        assert set(np.unique(fitted.labels)) <= {-1, 0, 1, 2}

    def test_dimension_budget(self, fitted):
        assert sum(len(d) for d in fitted.dimensions.values()) == 15
        assert all(len(d) >= 2 for d in fitted.dimensions.values())

    def test_medoids_are_data_points(self, easy_dataset, fitted):
        assert np.array_equal(
            fitted.medoids, easy_dataset.points[fitted.medoid_indices]
        )

    def test_quality_on_easy_data(self, easy_dataset, fitted):
        ari = adjusted_rand_index(fitted.labels, easy_dataset.labels)
        assert ari > 0.8

    def test_phase_timings_recorded(self, fitted):
        assert set(fitted.phase_seconds) == {
            "initialization", "iterative", "refinement"
        }
        assert all(v >= 0 for v in fitted.phase_seconds.values())

    def test_deterministic_given_seed(self, easy_dataset):
        a = proclus(easy_dataset.points, 3, 5, seed=3)
        b = proclus(easy_dataset.points, 3, 5, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.dimensions == b.dimensions

    def test_accepts_dataset_objects(self, easy_dataset):
        result = proclus(easy_dataset, 3, 5, seed=3, max_bad_tries=5)
        assert result.labels.shape == (1500,)

    def test_handle_outliers_false(self, easy_dataset):
        result = proclus(easy_dataset.points, 3, 5, seed=3,
                         handle_outliers=False, max_bad_tries=5)
        assert result.n_outliers == 0

    def test_invalid_l_rejected(self, easy_dataset):
        with pytest.raises(ParameterError):
            proclus(easy_dataset.points, 3, 1, seed=1)

    def test_non_integral_kl_rejected(self, easy_dataset):
        with pytest.raises(ParameterError, match="integral"):
            proclus(easy_dataset.points, 3, 2.5, seed=1)


class TestEstimator:
    def test_fit_returns_self(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5)
        assert est.fit(easy_dataset.points) is est

    def test_attributes_after_fit(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        assert est.labels_.shape == (1500,)
        assert est.medoids_.shape == (3, 12)
        assert isinstance(est.objective_, float)
        assert set(est.dimensions_) == {0, 1, 2}

    def test_not_fitted_raises(self):
        est = Proclus(k=3, l=5)
        with pytest.raises(NotFittedError):
            _ = est.labels_

    def test_fit_predict(self, easy_dataset):
        labels = Proclus(k=3, l=5, seed=1,
                         max_bad_tries=5).fit_predict(easy_dataset.points)
        assert labels.shape == (1500,)

    def test_predict_new_points(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        new_labels = est.predict(easy_dataset.points[:10])
        assert new_labels.shape == (10,)
        assert set(new_labels.tolist()) <= {0, 1, 2}

    def test_predict_consistent_with_assignment(self, easy_dataset):
        """predict() on training points matches non-outlier fit labels."""
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        predicted = est.predict(easy_dataset.points)
        mask = est.labels_ >= 0
        assert np.array_equal(predicted[mask], est.labels_[mask])

    def test_float32_fit_float64_queries_keep_their_labels(self,
                                                           easy_dataset):
        """predict goes through ProclusResult.predict without outliers.

        The labels equal the estimator's earlier path: the queries cast
        to the fitted precision, then one ``assign_points`` call.
        """
        from repro.core import assign_points

        train, held = easy_dataset.points[:1000], easy_dataset.points[1000:]
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5,
                      dtype="float32").fit(train)
        dims = [est.dimensions_[i] for i in range(3)]
        expected = assign_points(held.astype(np.float32), est.medoids_, dims)
        got = est.predict(held.astype(np.float64))
        assert est.medoids_.dtype == np.float32
        assert np.array_equal(got, expected)

    def test_predict_rejects_non_finite_queries(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        queries = easy_dataset.points[:10].copy()
        queries[4, 2] = np.nan
        with pytest.raises(ParameterError, match="NaN or infinite"):
            est.predict(queries)


class TestObjectiveQuality:
    def test_objective_better_than_random_assignment(self, easy_dataset, fitted):
        from repro.core import evaluate_clusters
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 3, size=1500)
        dim_sets = [fitted.dimensions[i] for i in range(3)]
        random_obj = evaluate_clusters(easy_dataset.points, random_labels, dim_sets)
        assert fitted.objective < random_obj
