"""Unit tests for the l/k parameter sweeps (paper section 4.3 workflow)."""

import pytest

from repro.core import sweep_k, sweep_l
from repro.core.tuning import dimension_contrast
from repro.data import generate
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def workload():
    """3 clusters, each 4-dimensional, in a 12-dim space."""
    return generate(1200, 12, 3, cluster_dim_counts=[4, 4, 4],
                    outlier_fraction=0.03, seed=55)


FAST = dict(max_bad_tries=8)


class TestSweepL:
    def test_knee_recovers_true_dimensionality(self, workload):
        """The contrast criterion plateaus up to the true l = 4 and
        drops beyond it; the knee rule must land on 4."""
        sweep = sweep_l(workload.points, 3, [2, 4, 8], seed=1, **FAST)
        assert sweep.knee_value() == 4.0

    def test_contrast_cliff_beyond_true_l(self, workload):
        sweep = sweep_l(workload.points, 3, [4, 8], seed=1, **FAST)
        scores = dict(zip(sweep.values, sweep.scores))
        assert scores[4.0] > scores[8.0] + 0.1

    def test_result_bookkeeping(self, workload):
        sweep = sweep_l(workload.points, 3, [2, 4], seed=1, **FAST)
        assert sweep.values == [2.0, 4.0]
        assert len(sweep.results) == 2
        assert sweep.best_result is sweep.results[sweep.best_index]
        assert sweep.best_value in (2.0, 4.0)

    def test_custom_criterion(self, workload):
        sweep = sweep_l(workload.points, 3, [2, 4], seed=1,
                        criterion=lambda X, r: -r.objective, **FAST)
        assert len(sweep.scores) == 2

    def test_empty_values_rejected(self, workload):
        with pytest.raises(ParameterError):
            sweep_l(workload.points, 3, [], seed=1)

    def test_text_report(self, workload):
        sweep = sweep_l(workload.points, 3, [2, 4], seed=1, **FAST)
        text = sweep.to_text()
        assert "l=2" in text
        assert "best" in text

    def test_order_independent_given_seed(self, workload):
        """Each candidate gets its own child stream, so scores do not
        depend on sweep order."""
        a = sweep_l(workload.points, 3, [2, 4], seed=9, **FAST)
        b = sweep_l(workload.points, 3, [2, 4], seed=9, **FAST)
        assert a.scores == b.scores

    def test_knee_tolerance_behaviour(self, workload):
        from repro.core import SweepResult
        sweep = SweepResult(parameter="l", values=[2.0, 4.0, 8.0],
                            scores=[-0.10, -0.12, -0.60], results=[None] * 3)
        assert sweep.best_value == 2.0          # argmax
        assert sweep.knee_value(0.05) == 4.0    # largest on plateau
        assert sweep.knee_value(0.001) == 2.0   # tight tolerance -> argmax

    def test_contrast_score_bounds(self, workload):
        from repro import proclus
        result = proclus(workload.points, 3, 4, seed=2, **FAST)
        score = dimension_contrast(workload.points, result)
        assert -1.0 - 1e-9 <= score <= 0.0


class TestSweepK:
    def test_prefers_true_k(self, workload):
        sweep = sweep_k(workload.points, [2, 3, 6], 4, seed=1, **FAST)
        scores = dict(zip(sweep.values, sweep.scores))
        assert scores[3.0] >= scores[6.0] - 0.05

    def test_empty_values_rejected(self, workload):
        with pytest.raises(ParameterError):
            sweep_k(workload.points, [], 4, seed=1)

    def test_parameter_name(self, workload):
        sweep = sweep_k(workload.points, [2, 3], 4, seed=1, **FAST)
        assert sweep.parameter == "k"
