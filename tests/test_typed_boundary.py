"""Typed errors at the public boundary outside ``proclus()``.

Seeds, result paths, array-likes and predict batches: a malformed value
raises a ``ReproError`` subclass, so ``except ReproError`` is enough at
every entry point.  ``proclus()``'s own keywords are covered by
``test_proclus_keywords.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Dataset, PredictReport, proclus, sanitize
from repro.core.serialization import (load_result, result_fingerprint,
                                      save_result)
from repro.data import generate
from repro.exceptions import DataError, ParameterError, ReproError
from repro.extensions import orclus
from repro.robustness.sanitize import BAD_VALUE_POLICIES
from repro.rng import ensure_rng, spawn

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.SanitizationWarning",
    "ignore::RuntimeWarning",
)

SMALL = generate(120, 6, 2, cluster_dim_counts=[3, 3], seed=23)
RESULT = proclus(SMALL.points, 2, 3, seed=1, max_bad_tries=3)
D = SMALL.points.shape[1]

BAD_SEEDS = [-1, True, 2.5, "x", [], {}, float("nan")]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_every_seed_entry_point_raises_parameter_error(seed):
    for call in (lambda: ensure_rng(seed),
                 lambda: generate(100, 5, 2, seed=seed),
                 lambda: orclus(SMALL.points, 2, 3, seed=seed),
                 lambda: proclus(SMALL.points, 2, 3, seed=seed)):
        with pytest.raises(ParameterError, match="seed"):
            call()


@pytest.mark.parametrize("n", [-1, 2.5, "2", True], ids=repr)
def test_spawn_rejects_a_bad_count(n):
    with pytest.raises(ParameterError):
        spawn(ensure_rng(0), n)


@pytest.mark.parametrize("path", [None, 3, [], {}, b"x"], ids=repr)
def test_result_paths_raise_parameter_error(path):
    for call in (lambda: save_result(RESULT, path),
                 lambda: load_result(path),
                 lambda: result_fingerprint(path)):
        with pytest.raises(ParameterError, match="path"):
            call()


@pytest.mark.parametrize("points", [
    "x", {}, [["a", "b"]], [[1.0], [2.0, 3.0]], object(),
], ids=["string", "dict", "strings", "ragged", "object"])
def test_non_numeric_array_likes_raise_data_error(points):
    with pytest.raises(DataError, match="not numeric"):
        sanitize(points)
    with pytest.raises(DataError, match="not numeric"):
        Dataset(points=points)


# ----------------------------------------------------------------------
# Fuzz: ProclusResult.predict_report with malformed batches and knobs
# ----------------------------------------------------------------------

def _rows(n, d, elements):
    return st.lists(st.lists(elements, min_size=d, max_size=d),
                    min_size=n, max_size=n)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
HUGE = st.sampled_from([1e308, -1e308, 1e300, np.finfo(np.float32).max])
# the right shape, with NaN/inf/huge cells
WELL_SHAPED = st.integers(1, 5).flatmap(
    lambda n: _rows(n, D, st.one_of(st.floats(-1e3, 1e3), FLOATS, HUGE)))
MALFORMED = st.one_of(
    # wrong d, a single (d,) point, 0-D, 3-D and empty batches
    st.integers(0, 9).flatmap(lambda d: _rows(2, d, FLOATS)),
    st.lists(FLOATS, min_size=0, max_size=2 * D),
    FLOATS,
    st.builds(np.zeros, st.sampled_from([(2, 2, D), (0, D), (0,), (1, 0)])),
    # strings, objects and complex values
    _rows(2, D, st.text(max_size=2)),
    st.just([[object()] * D]),
    _rows(1, D, st.complex_numbers()),
    st.builds(np.ones, st.just((2, D)), dtype=st.just(np.complex128)),
)
# half the draws well shaped (a nested one_of would be flattened)
BATCHES = st.booleans().flatmap(lambda ok: WELL_SHAPED if ok else MALFORMED)
ODD_INTS = st.one_of(st.none(), st.integers(1, 3), st.just(2**40),
                     st.sampled_from([0, -1, 2.5, "4", True, float("nan")]))


@given(batch=BATCHES, policy=st.sampled_from(BAD_VALUE_POLICIES + ("x",)),
       chunk_size=ODD_INTS, max_points=ODD_INTS)
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_predict_fuzz_returns_a_report_or_a_typed_error(batch, policy,
                                                        chunk_size,
                                                        max_points):
    try:
        report = RESULT.predict_report(
            batch, on_bad_values=policy, chunk_size=chunk_size,
            max_points=max_points, return_distances=True)
    except ReproError:
        return
    assert isinstance(report, PredictReport)
    assert report.labels.shape == (report.n_points,)
    assert ((report.labels >= -1) & (report.labels < RESULT.k)).all()
