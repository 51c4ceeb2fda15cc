"""Tests for the CLARA-style fit_sample_size mode."""

import numpy as np
import pytest

from repro import proclus
from repro.data import generate
from repro.exceptions import ParameterError
from repro.metrics import adjusted_rand_index


@pytest.fixture(scope="module")
def big():
    return generate(8000, 12, 3, cluster_dim_counts=[4, 4, 4],
                    outlier_fraction=0.03, seed=70)


class TestFitSampleSize:
    def test_quality_preserved(self, big):
        full = proclus(big.points, 3, 4, seed=71, max_bad_tries=15)
        sampled = proclus(big.points, 3, 4, seed=71, max_bad_tries=15,
                          fit_sample_size=2000)
        ari_full = adjusted_rand_index(full.labels, big.labels)
        ari_sampled = adjusted_rand_index(sampled.labels, big.labels)
        assert ari_sampled > ari_full - 0.15
        assert ari_sampled > 0.7

    def test_every_point_labelled(self, big):
        result = proclus(big.points, 3, 4, seed=71, max_bad_tries=10,
                         fit_sample_size=2000)
        assert result.labels.shape == (8000,)
        assert set(np.unique(result.labels)) <= {-1, 0, 1, 2}

    def test_medoids_are_original_points(self, big):
        result = proclus(big.points, 3, 4, seed=71, max_bad_tries=10,
                         fit_sample_size=2000)
        assert np.array_equal(result.medoids,
                              big.points[result.medoid_indices])

    def test_faster_hill_climbing(self, big):
        # the claim is asserted on work, not on wall time: two ~30 ms
        # fits raced by wall clock fail on host noise.  The kernels'
        # own row counters (one N-row column per distance or segmental
        # column computed) measure the work deterministically;
        # benchmarks/test_bench_large_mode.py keeps the time claim.
        def kernel_rows(**kwargs):
            result = proclus(big.points, 3, 4, seed=71, max_bad_tries=15,
                             profile=True, **kwargs)
            counters = result.profile["counters"]
            return (counters["kernel.distance_rows"]
                    + counters["kernel.segmental_rows"])

        assert kernel_rows(fit_sample_size=1500) < kernel_rows()

    def test_sample_larger_than_n_is_noop_path(self, big):
        a = proclus(big.points[:500], 3, 4, seed=1, max_bad_tries=5,
                    fit_sample_size=10_000)
        b = proclus(big.points[:500], 3, 4, seed=1, max_bad_tries=5)
        assert np.array_equal(a.labels, b.labels)

    def test_too_small_sample_rejected(self, big):
        with pytest.raises(ParameterError, match="fit_sample_size"):
            proclus(big.points, 3, 4, fit_sample_size=50)

    def test_dimension_budget_respected(self, big):
        result = proclus(big.points, 3, 4, seed=71, max_bad_tries=10,
                         fit_sample_size=2000)
        assert sum(len(d) for d in result.dimensions.values()) == 12
