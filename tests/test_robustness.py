"""Unit tests for repro.robustness: sanitize, guards, fallback, faults."""

import numpy as np
import pytest

from repro.data import generate
from repro.distance import cross_distances
from repro.exceptions import (
    BudgetExceededError,
    DataError,
    DegenerateDataError,
    ParameterError,
    SanitizationWarning,
)
from repro.robustness import guards
from repro.robustness import (
    BAD_VALUE_POLICIES,
    Deadline,
    DEFAULT_MEMORY_BUDGET_BYTES,
    FaultPlan,
    SanitizationReport,
    distinct_row_count,
    inject_constant_dims,
    inject_duplicates,
    inject_extreme_scale,
    inject_nan_rows,
    kmedoids_fallback,
    plan_degradation,
    sanitize,
    standard_fault_matrix,
    standard_faults,
)


@pytest.fixture
def clean():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 100, size=(60, 5))


# ----------------------------------------------------------------------
# sanitize
# ----------------------------------------------------------------------
class TestSanitize:
    def test_clean_data_untouched(self, clean):
        Xs, report = sanitize(clean, warn=False)
        assert np.array_equal(Xs, clean)
        assert not report.changed
        assert report.n_rows_out == 60
        assert np.array_equal(report.restore_labels(np.zeros(60, dtype=int)),
                              np.zeros(60, dtype=int))

    def test_raise_policy(self, clean):
        X = clean.copy()
        X[3, 1] = np.nan
        with pytest.raises(DataError):
            sanitize(X, on_bad_values="raise", warn=False)

    def test_drop_policy(self, clean):
        X = clean.copy()
        X[3, 1] = np.nan
        X[10, 0] = np.inf
        Xs, report = sanitize(X, on_bad_values="drop", warn=False)
        assert Xs.shape == (58, 5)
        assert np.all(np.isfinite(Xs))
        assert report.dropped_rows.tolist() == [3, 10]
        labels = report.restore_labels(np.arange(58))
        assert labels.shape == (60,)
        assert labels[3] == -1 and labels[10] == -1
        # surviving rows keep their identity under the mapping
        assert labels[0] == 0 and labels[4] == 3

    def test_impute_median_policy(self, clean):
        X = clean.copy()
        X[5, 2] = np.nan
        Xs, report = sanitize(X, on_bad_values="impute_median", warn=False)
        assert Xs.shape == X.shape
        finite = X[np.isfinite(X[:, 2]), 2]
        assert Xs[5, 2] == pytest.approx(np.median(finite))
        assert report.n_imputed_cells == 1

    def test_clip_policy(self, clean):
        X = clean.copy()
        X[1, 0] = np.inf
        X[2, 0] = -np.inf
        Xs, report = sanitize(X, on_bad_values="clip", warn=False)
        finite = X[np.isfinite(X[:, 0]), 0]
        assert Xs[1, 0] == finite.max()
        assert Xs[2, 0] == finite.min()
        assert report.n_clipped_cells == 2

    def test_all_rows_bad_raises_degenerate(self):
        X = np.full((5, 3), np.nan)
        with pytest.raises(DegenerateDataError):
            sanitize(X, on_bad_values="drop", warn=False)

    def test_collapse_duplicates(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0],
                      [3.0, 4.0]])
        Xs, report = sanitize(X, collapse_duplicates=True, warn=False)
        # first occurrences, original order
        assert np.array_equal(Xs, X[[0, 1, 3]])
        assert report.n_duplicates_collapsed == 2
        labels = report.restore_labels(np.array([7, 8, 9]))
        assert labels.tolist() == [7, 8, 7, 9, 8]

    def test_constant_dims_detected(self, clean):
        X = clean.copy()
        X[:, 4] = -1.5
        _, report = sanitize(X, warn=False)
        assert report.constant_dims == (4,)

    def test_warns_when_changed(self, clean):
        X = clean.copy()
        X[0, 0] = np.nan
        with pytest.warns(SanitizationWarning):
            sanitize(X, on_bad_values="drop", warn=True)

    def test_invalid_policy_rejected(self, clean):
        with pytest.raises(ParameterError):
            sanitize(clean, on_bad_values="zero-fill", warn=False)
        assert "drop" in BAD_VALUE_POLICIES

    def test_report_round_trip_dict(self, clean):
        X = clean.copy()
        X[0, 0] = np.nan
        _, report = sanitize(X, on_bad_values="drop", warn=False)
        d = report.to_dict()
        assert d["policy"] == "drop"
        assert d["n_rows_out"] == 59
        assert isinstance(report, SanitizationReport)


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------
class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline.start(None)
        assert d.unlimited
        assert not d.expired()
        assert d.remaining() == np.inf
        d.check()  # never raises

    def test_zero_budget_expires_immediately(self):
        d = Deadline.start(0.0)
        assert d.expired()
        with pytest.raises(BudgetExceededError):
            d.check("unit test")

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError):
            Deadline.start(-1.0)

    def test_elapsed_monotone(self):
        d = Deadline.start(100.0)
        a = d.elapsed()
        b = d.elapsed()
        assert b >= a >= 0.0


class TestMemoryGuard:
    def test_small_block_unchunked(self):
        assert guards.row_block_size(100, 10, 10, 8) == 100

    def test_large_block_chunked(self):
        # a block as wide as all of X: only the budget splits the rows
        n = 10**7
        chunk = guards.row_block_size(n, 100, 100, 8,
                                      block_bytes=n * 100 * 8)
        assert 1 <= chunk < n
        # a diff array and its transform, 8 bytes an entry
        assert chunk * 100 * 8 * 2 <= DEFAULT_MEMORY_BUDGET_BYTES

    def test_chunked_distances_identical(self, clean, monkeypatch):
        anchors = clean[:4]
        full = cross_distances(clean, anchors)
        # force a tiny budget -> one-row blocks
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 1)
        chunked = cross_distances(clean, anchors)
        assert np.array_equal(full, chunked)

    def test_chunked_pairwise_identical(self, clean, monkeypatch):
        full = cross_distances(clean, clean)
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", 1024)
        chunked = cross_distances(clean, clean)
        assert np.array_equal(full, chunked)


# ----------------------------------------------------------------------
# fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_distinct_row_count(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        assert distinct_row_count(X) == 2

    def test_plan_noop_on_clean_input(self, clean):
        plan = plan_degradation(clean, 3, 3.0, 10, 2)
        assert not plan.degraded
        assert plan.k == 3 and plan.l == 3.0

    def test_plan_reduces_k(self):
        X = np.tile(np.eye(3), (4, 1))  # 3 distinct rows
        plan = plan_degradation(X, 5, 2.0, 2, 1)
        assert plan.degraded
        assert plan.k <= 2

    def test_plan_clamps_l(self, clean):
        plan = plan_degradation(clean, 2, 99.0, 10, 2)
        assert plan.l == 5.0
        assert plan.degraded

    def test_plan_clamps_factors(self, clean):
        plan = plan_degradation(clean, 3, 3.0, 1000, 1000)
        assert plan.sample_factor * 3 <= 60
        assert plan.pool_factor <= plan.sample_factor
        assert plan.degraded

    def test_plan_excludes_constant_dims(self, clean):
        plan = plan_degradation(clean, 2, 2.0, 10, 2, constant_dims=(1, 3))
        assert plan.exclude_dims == (1, 3)

    def test_kmedoids_fallback_shape(self, clean):
        result = kmedoids_fallback(clean, 3, seed=0)
        assert result.labels.shape == (60,)
        assert result.k == 3
        assert result.degraded
        assert result.terminated_by == "fallback_kmedoids"
        # full-space dimension sets
        assert all(d == tuple(range(5)) for d in result.dimensions.values())


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
class TestFaults:
    def test_inject_nan_rows(self, clean):
        X = inject_nan_rows(clean, fraction=0.1, seed=0)
        assert X.shape == clean.shape
        bad = ~np.all(np.isfinite(X), axis=1)
        assert bad.sum() == 6
        assert np.all(np.isfinite(clean))  # input untouched

    def test_inject_duplicates(self, clean):
        X = inject_duplicates(clean, fraction=0.5)
        assert X.shape == (90, 5)

    def test_inject_constant_dims(self, clean):
        X = inject_constant_dims(clean, n_dims=2, value=9.0)
        const = [j for j in range(5) if np.ptp(X[:, j]) == 0.0]
        assert len(const) == 2

    def test_inject_extreme_scale(self, clean):
        X = inject_extreme_scale(clean, factor=1e9, dims=[0])
        assert np.max(np.abs(X[:, 0])) >= 1e9
        assert np.array_equal(X[:, 1:], clean[:, 1:])

    def test_fault_plan_composes(self, clean):
        plans = standard_fault_matrix(max_combination=2)
        names = [p.name for p in plans]
        assert len(plans) == len(set(names))
        singles = [p for p in plans if "+" not in p.name]
        assert len(singles) == len(standard_faults())
        X = plans[-1].apply(clean, seed=1)
        assert isinstance(X, np.ndarray)
        assert isinstance(plans[0], FaultPlan)

    def test_fault_plan_deterministic(self, clean):
        plan = standard_fault_matrix()[0]
        a = plan.apply(clean, seed=3)
        b = plan.apply(clean, seed=3)
        assert np.array_equal(a, b, equal_nan=True)
