"""Unit tests for the stability analysis."""

import numpy as np
import pytest

from repro import proclus
from repro.data import generate
from repro.exceptions import ParameterError
from repro.metrics import stability_report


@pytest.fixture(scope="module")
def easy():
    return generate(800, 10, 3, cluster_dim_counts=[4, 4, 4],
                    outlier_fraction=0.02, seed=21)


def proclus_fit(X, seed):
    return proclus(X, 3, 4, seed=seed, max_bad_tries=10)


class TestStabilityReport:
    def test_counts(self, easy):
        report = stability_report(proclus_fit, easy.points, n_runs=3, seed=1)
        assert report.n_runs == 3
        assert len(report.pairwise_ari) == 3     # C(3,2)
        assert len(report.objectives) == 3

    def test_easy_data_is_stable(self, easy):
        report = stability_report(proclus_fit, easy.points, n_runs=4, seed=1)
        assert report.mean_ari > 0.7
        assert report.mean_dimension_jaccard > 0.7

    def test_deterministic_fit_perfectly_stable(self, easy):
        class Fixed:
            labels = np.repeat([0, 1], 400)
            dimensions = {0: (0, 1), 1: (2, 3)}
            objective = 1.0

        report = stability_report(lambda X, seed: Fixed(), easy.points,
                                  n_runs=3, seed=2)
        assert report.mean_ari == pytest.approx(1.0)
        assert report.mean_dimension_jaccard == pytest.approx(1.0)
        assert report.objective_spread == 0.0

    def test_random_labels_unstable(self, easy):
        def random_fit(X, seed):
            class R:
                labels = np.random.default_rng(
                    seed.integers(2**31) if hasattr(seed, "integers") else seed
                ).integers(0, 3, X.shape[0])
            return R()

        report = stability_report(random_fit, easy.points, n_runs=3, seed=3)
        assert report.mean_ari < 0.1

    def test_requires_two_runs(self, easy):
        with pytest.raises(ParameterError):
            stability_report(proclus_fit, easy.points, n_runs=1)

    def test_text(self, easy):
        report = stability_report(proclus_fit, easy.points, n_runs=2, seed=4)
        text = report.to_text()
        assert "stability over 2 runs" in text
        assert "ARI" in text

    def test_works_without_dimensions_attribute(self, easy):
        class Bare:
            def __init__(self, labels):
                self.labels = labels

        def fit(X, seed):
            return Bare(np.zeros(X.shape[0], dtype=int))

        report = stability_report(fit, easy.points, n_runs=2, seed=5)
        assert report.pairwise_dimension_jaccard == []
        assert report.mean_dimension_jaccard == 1.0
