"""Chaos suite: PROCLUS under fault injection (run with ``-m chaos``).

Every fault plan in the standard matrix is applied to a clean workload
and fed to :func:`repro.proclus` with the robustness features on.  The
contract: the call either returns a well-formed, labelled result (with
``degraded``/``warnings`` populated whenever a fallback fired) or raises
a typed :class:`~repro.exceptions.ReproError` — never a bare numpy
error, hang, or silent garbage.
"""

import time

import numpy as np
import pytest

from repro import proclus
from repro.data import generate
from repro.exceptions import ReproError
from repro.robustness import standard_fault_matrix

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings(
        "ignore::repro.exceptions.SanitizationWarning"),
]


@pytest.fixture(scope="module")
def workload():
    return generate(600, 8, 3, cluster_dim_counts=[3, 3, 3],
                    outlier_fraction=0.05, seed=17)


FAST = dict(max_bad_tries=3, max_iterations=40)


def _assert_well_formed(result, n_points, k):
    assert result.labels.shape == (n_points,)
    valid = set(range(result.k)) | {-1}
    assert set(np.unique(result.labels)) <= valid
    assert result.k <= k
    assert np.isfinite(result.objective)
    assert np.all(np.isfinite(result.medoids))


@pytest.mark.parametrize(
    "plan", standard_fault_matrix(max_combination=2),
    ids=lambda p: p.name,
)
def test_fault_matrix_survived(workload, plan):
    X = plan.apply(workload.points, seed=23)
    try:
        result = proclus(
            X, 3, 3, seed=23,
            on_bad_values="drop", collapse_duplicates=True,
            auto_degrade=True, **FAST,
        )
    except ReproError:
        return  # a typed failure is an acceptable outcome
    _assert_well_formed(result, X.shape[0], 3)
    # every fault in the matrix dirties the data somehow; if a fallback
    # or sanitizer fired, the result must say so
    if result.degraded:
        assert result.warnings or result.sanitization.changed


@pytest.mark.parametrize("policy", ["drop", "impute_median", "clip"])
def test_every_policy_handles_nan_faults(workload, policy):
    plan = [p for p in standard_fault_matrix(max_combination=1)
            if p.name == "nan_rows"][0]
    X = plan.apply(workload.points, seed=5)
    result = proclus(X, 3, 3, seed=5, on_bad_values=policy,
                     auto_degrade=True, **FAST)
    _assert_well_formed(result, X.shape[0], 3)
    assert result.degraded
    rep = result.sanitization
    if policy == "drop":
        assert (result.labels[rep.dropped_rows] == -1).all()
    else:
        assert rep.n_imputed_cells + rep.n_clipped_cells > 0


def test_unsanitized_faulty_input_raises_typed(workload):
    plan = [p for p in standard_fault_matrix(max_combination=1)
            if p.name == "nan_rows"][0]
    X = plan.apply(workload.points, seed=5)
    with pytest.raises(ReproError):
        proclus(X, 3, 3, seed=5, **FAST)


def test_deadline_on_fig7_workload():
    """The acceptance bound: a Fig. 7-scale fit under a 50 ms budget
    must come back via the deadline path in well under 3x the budget."""
    ds = generate(2500, 20, 5, cluster_dim_counts=[5] * 5,
                  outlier_fraction=0.05, seed=7)
    budget = 0.05
    t0 = time.perf_counter()
    result = proclus(
        ds.points, 5, 5, seed=7,
        max_bad_tries=10**6, max_iterations=10**6,
        time_budget_s=budget,
    )
    elapsed = time.perf_counter() - t0
    assert result.terminated_by == "deadline"
    assert result.labels.shape == (2500,)
    assert np.isfinite(result.objective)
    assert elapsed < 3 * budget + 2.0  # slack for the non-interruptible
    # first iteration + refinement pass on slow CI machines


def test_deadline_skips_remaining_restarts():
    ds = generate(800, 10, 3, cluster_dim_counts=[4] * 3, seed=11)
    result = proclus(
        ds.points, 3, 4, seed=11, restarts=50,
        max_bad_tries=10**6, max_iterations=10**6,
        time_budget_s=0.05,
    )
    assert result.terminated_by == "deadline"
    assert any("restarts" in w for w in result.warnings)


def test_deadline_mid_restart_fanout():
    """Budget expiry while restarts are fanned out over processes.

    Workers self-terminate on their forwarded remaining-seconds budget
    and the parent cancels not-yet-started restarts, so the call must
    still return a well-formed best-so-far result with the same budget
    note the serial loop produces.
    """
    ds = generate(800, 10, 3, cluster_dim_counts=[4] * 3, seed=11)
    result = proclus(
        ds.points, 3, 4, seed=11, restarts=50, n_jobs=2,
        max_bad_tries=10**6, max_iterations=10**6,
        time_budget_s=0.05,
    )
    assert result.terminated_by == "deadline"
    assert result.labels.shape == (800,)
    assert np.isfinite(result.objective)
    notes = [w for w in result.warnings
             if "time budget exhausted" in w
             and "returning the best completed run" in w]
    assert len(notes) == 1
    p = result.parallelism
    assert p["n_jobs"] == 2
    assert p["restarts_completed"] < 50
