"""The fit against a literal reference PROCLUS, and a metamorphic check.

``tests/reference/proclus_ref.py`` transcribes the paper's §2 step by
step.  On integer-valued data every distance, locality statistic and
segmental distance is an exact sum followed by at most one rounding, so
``proclus(..., restarts=1)`` must reproduce the reference's medoids,
dimension sets, labels (outliers included) and stopping reason exactly.
The objective is a mean of inexact terms that
each side sums in its own order, so it is compared to 1e-12 relative.

The metamorphic test needs no oracle: listing the dimensions in another
order relabels them, so every ``D_i`` is the permuted set and the labels
and medoids do not move.  Equal Z-scores are the exception, since the
allocation breaks their ties by dimension index; such examples are
skipped.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import proclus
from repro.core import dimensions as dimensions_module

from reference.proclus_ref import proclus_reference


def _integer_data(n, d, k, spread, seed):
    """Integer-valued points: ``k`` projected clusters over uniform noise."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, spread + 1, size=(n, d)).astype(np.float64)
    centres = rng.integers(0, spread + 1, size=(k, d))
    width = max(1, spread // 20)
    for p in range(n):
        c = p % k
        dims = rng.choice(d, size=rng.integers(2, d + 1), replace=False)
        X[p, dims] = centres[c, dims] + rng.integers(-width, width + 1,
                                                     size=dims.size)
    return X


@st.composite
def workloads(draw, spreads=(3, 20, 1000)):
    k = draw(st.integers(2, 4), label="k")
    d = draw(st.integers(3, 10), label="d")
    # l >= 2 per cluster on average, l <= d, k * l integral
    total = draw(st.integers(2 * k, min(k * d, 4 * k)), label="k*l")
    n = draw(st.integers(5 * k, 200), label="n")
    # a small spread makes ties and duplicate points common
    spread = draw(st.sampled_from(spreads), label="spread")
    X = _integer_data(n, d, k, spread,
                      draw(st.integers(0, 2**32 - 1), label="data seed"))
    return X, k, total / k, draw(st.integers(0, 2**32 - 1), label="seed")


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@given(workload=workloads(),
       # the paper's 0.1 rarely marks more than the smallest cluster bad
       min_deviation=st.sampled_from([0.1, 0.7]))
@settings(max_examples=20, deadline=None)
def test_fit_matches_reference(metric, workload, min_deviation):
    X, k, l, seed = workload
    ref = proclus_reference(X, k, l, seed=seed, metric=metric,
                            min_deviation=min_deviation)
    got = proclus(X, k, l, seed=seed, metric=metric, restarts=1,
                  min_deviation=min_deviation)
    np.testing.assert_array_equal(got.medoid_indices, ref.medoid_indices)
    assert [got.dimensions[i] for i in range(k)] == ref.dimensions
    np.testing.assert_array_equal(got.labels, ref.labels)
    assert got.terminated_by == ref.terminated_by
    assert got.objective == pytest.approx(ref.objective, rel=1e-12)
    assert got.iterative_objective == pytest.approx(ref.iterative_objective,
                                                    rel=1e-12)
    assert got.objective_history == pytest.approx(ref.objective_history,
                                                  rel=1e-12)


def _fit_recording_z_ties(X, k, l, seed, metric):
    """The fit, plus whether any Z-score matrix it ranked held a tie."""
    ties = []
    allocate = dimensions_module.allocate_dimensions

    def recording(z, total, **kwargs):
        ties.append(np.unique(z).size < z.size)
        return allocate(z, total, **kwargs)

    with mock.patch.object(dimensions_module, "allocate_dimensions",
                           recording):
        result = proclus(X, k, l, seed=seed, metric=metric)
    return result, any(ties)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@given(workload=workloads(spreads=(1000,)),
       order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_permuting_dimensions_permutes_each_dimension_set(metric, workload,
                                                          order_seed):
    X, k, l, seed = workload
    order = np.random.default_rng(order_seed).permutation(X.shape[1])
    base, base_ties = _fit_recording_z_ties(X, k, l, seed, metric)
    permuted, permuted_ties = _fit_recording_z_ties(X[:, order], k, l, seed,
                                                    metric)
    assume(not (base_ties or permuted_ties))
    np.testing.assert_array_equal(permuted.medoid_indices,
                                  base.medoid_indices)
    np.testing.assert_array_equal(permuted.labels, base.labels)
    # column j of the permuted data is column order[j] of the original
    for i in range(k):
        assert tuple(sorted(int(order[j]) for j in permuted.dimensions[i])) \
            == base.dimensions[i]
