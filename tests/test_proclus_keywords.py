"""The keyword boundary of ``proclus()`` and ``Proclus``.

Every keyword that does not depend on the data is checked once, before
sanitization: a malformed value raises ``ParameterError`` whether or not
``auto_degrade`` is on.  Only infeasibility that depends on the data
goes down the degradation ladder.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Proclus, ProclusResult, proclus
from repro.data import generate
from repro.exceptions import ParameterError, ReproError

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.SanitizationWarning",
    "ignore::repro.exceptions.ConvergenceWarning",
)

# N/k = 200: the ladder clamps neither A=30 nor B=40
DS = generate(600, 8, 3, cluster_dim_counts=[3, 3, 3], seed=17)
# the fuzz fits are tiny: N=120, k=2, at most 3 bad tries
SMALL = generate(120, 6, 2, cluster_dim_counts=[3, 3], seed=23)
FUZZ_BASE = dict(max_bad_tries=3, seed=1)


@pytest.mark.parametrize("auto_degrade", [False, True])
@pytest.mark.parametrize("bad", [
    dict(max_iterations=0),
    dict(min_deviation=1.5),
    dict(max_bad_tries=0),
    dict(sample_factor=0),
    dict(pool_factor=40),
    dict(fit_sample_size=-5),
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_malformed_keyword_raises_even_when_degrading(bad, auto_degrade):
    (name, _), = bad.items()
    with pytest.raises(ParameterError, match=name):
        proclus(DS.points, 3, 3, seed=1, auto_degrade=auto_degrade, **bad)


@pytest.mark.parametrize("bad, message", [
    (dict(restarts=2.5), "restarts must be an integer"),
    (dict(restarts="2"), "restarts must be an integer"),
    (dict(restarts=0), "restarts must be >= 1"),
    (dict(fit_sample_size=300.5), "fit_sample_size must be an integer"),
    (dict(fit_sample_size=-5), "fit_sample_size must be >= 1"),
])
def test_integer_keywords_raise_typed_errors(bad, message):
    with pytest.raises(ParameterError, match=message):
        proclus(DS.points, 3, 3, seed=1, **bad)


def test_valid_keywords_still_fit():
    result = proclus(DS.points, 3, 3, seed=1, auto_degrade=True)
    assert isinstance(result, ProclusResult)
    assert not result.degraded


# ----------------------------------------------------------------------
# Fuzz: every keyword, odd values, with and without auto_degrade
# ----------------------------------------------------------------------

KEYWORDS = sorted(set(inspect.signature(proclus).parameters) - {"X"})

ODD_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)


def _finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@given(name=st.sampled_from(KEYWORDS), value=ODD_VALUES)
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_keyword_fuzz_returns_a_result_or_a_typed_error(tmp_path, name,
                                                        value):
    if name == "checkpoint_dir" and isinstance(value, str):
        value = str(tmp_path / "ck")
    for auto_degrade in (False, True):
        kwargs = dict(FUZZ_BASE, auto_degrade=auto_degrade)
        kwargs[name] = value
        k = kwargs.pop("k", 2)
        l = kwargs.pop("l", 3)
        try:
            result = proclus(SMALL.points, k, l, **kwargs)
        except ReproError:
            continue
        assert isinstance(result, ProclusResult)
        # l below 2 or k*l fractional is infeasibility the ladder clamps;
        # nothing else may come back degraded on clean data
        if not (name == "l" and _finite_number(value)):
            assert not result.degraded, (name, value, result.warnings)


def test_fuzz_never_starts_a_pool():
    # each fuzz draw varies one keyword, and no odd value of restarts
    # passes the boundary, so no draw of n_jobs reaches the process pool
    for bad in (0, -1, 2.5, "2", None, float("nan"), True):
        with pytest.raises(ParameterError):
            proclus(SMALL.points, 2, 3, restarts=bad, n_jobs=2)


# ----------------------------------------------------------------------
# The estimator forwards every keyword
# ----------------------------------------------------------------------

def test_estimator_forwards_every_keyword():
    kwargs = dict(restarts=2, fit_sample_size=300, dtype="float32",
                  handle_outliers=False, min_deviation=0.2,
                  max_bad_tries=4, cache=False, seed=3)
    est = Proclus(3, 3, **kwargs).fit(DS.points)
    ref = proclus(DS.points, 3, 3, **kwargs)
    got = est.result_
    assert got.labels.tobytes() == ref.labels.tobytes()
    assert got.medoid_indices.tobytes() == ref.medoid_indices.tobytes()
    assert got.medoids.dtype == np.float32 == ref.medoids.dtype
    assert got.dimensions == ref.dimensions
    assert got.objective == ref.objective
    assert got.objective_history == ref.objective_history
    assert got.cache_stats is None and ref.cache_stats is None
    assert (got.labels >= 0).all()  # handle_outliers=False reached the fit


@pytest.mark.parametrize("bad", [dict(keep_history=False), dict(X=DS.points),
                                 dict(n_clusters=3)])
def test_estimator_rejects_unknown_keyword_at_construction(bad):
    with pytest.raises(ParameterError):
        Proclus(3, 3, **bad)
