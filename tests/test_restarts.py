"""Tests for multi-restart PROCLUS (the paper's section-4.3 workflow)."""

import numpy as np
import pytest

from repro import Proclus, proclus
from repro.data import generate
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def workload():
    return generate(1000, 12, 3, cluster_dim_counts=[4, 4, 4],
                    outlier_fraction=0.03, seed=61)


FAST = dict(max_bad_tries=5)


class TestRestarts:
    def test_restarts_never_worse_than_each_single_run(self, workload):
        """The multi-restart result's iterative objective equals the
        minimum over the individual child runs."""
        from repro.rng import ensure_rng, spawn
        rng = ensure_rng(99)
        children = spawn(rng, 3)
        singles = [
            proclus(workload.points, 3, 4, seed=c, restarts=1, **FAST)
            for c in children
        ]
        multi = proclus(workload.points, 3, 4, seed=99, restarts=3, **FAST)
        assert multi.iterative_objective == pytest.approx(
            min(s.iterative_objective for s in singles)
        )

    def test_restart_one_is_default_path(self, workload):
        a = proclus(workload.points, 3, 4, seed=5, restarts=1, **FAST)
        b = proclus(workload.points, 3, 4, seed=5, **FAST)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_restarts(self, workload):
        with pytest.raises(ParameterError, match="restarts"):
            proclus(workload.points, 3, 4, restarts=0)

    def test_estimator_passes_restarts(self, workload):
        est = Proclus(k=3, l=4, seed=7, restarts=2, **FAST).fit(workload.points)
        assert est.result_.labels.shape == (1000,)

    def test_iterative_objective_recorded(self, workload):
        result = proclus(workload.points, 3, 4, seed=5, **FAST)
        assert np.isfinite(result.iterative_objective)
        assert result.iterative_objective > 0

    def test_deterministic(self, workload):
        a = proclus(workload.points, 3, 4, seed=11, restarts=3, **FAST)
        b = proclus(workload.points, 3, 4, seed=11, restarts=3, **FAST)
        assert np.array_equal(a.labels, b.labels)

    def test_restarts_forward_fit_sample_size(self, workload):
        """Regression: the restart recursion used to silently drop
        fit_sample_size, so every child ran on the full data.  Each
        child must run in large-database mode (its phase timings carry
        the sample_fit key) and match the best child run directly."""
        from repro.rng import ensure_rng, spawn
        multi = proclus(workload.points, 3, 4, seed=21, restarts=3,
                        fit_sample_size=300, **FAST)
        assert "sample_fit" in multi.phase_seconds
        children = spawn(ensure_rng(21), 3)
        singles = [
            proclus(workload.points, 3, 4, seed=c, restarts=1,
                    fit_sample_size=300, **FAST)
            for c in children
        ]
        best = min(singles, key=lambda s: s.iterative_objective)
        assert multi.iterative_objective == pytest.approx(
            best.iterative_objective)
        assert np.array_equal(multi.labels, best.labels)
