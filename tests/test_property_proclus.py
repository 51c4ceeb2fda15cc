"""Property-based tests for PROCLUS output invariants.

Whatever the data, a fitted PROCLUS result must satisfy the paper's
structural contract: a (k+1)-way partition (clusters + outliers), k
dimension sets of >= 2 dimensions summing to k*l, and medoids drawn
from the data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import proclus


@st.composite
def workloads(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=4, max_value=10))
    l = draw(st.integers(min_value=2, max_value=min(4, d)))
    n = draw(st.integers(min_value=30 * k, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 100, size=(n, d))
    return X, k, l, seed


@given(workloads())
@settings(max_examples=15, deadline=None)
@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
def test_structural_contract(workload):
    X, k, l, seed = workload
    result = proclus(X, k, l, seed=seed, max_bad_tries=3, max_iterations=10,
                     sample_factor=10, pool_factor=3)
    n, d = X.shape
    # (k+1)-way partition
    assert result.labels.shape == (n,)
    assert set(np.unique(result.labels)) <= set(range(k)) | {-1}
    # dimension sets: >= 2 each, total k*l, valid indices
    assert len(result.dimensions) == k
    assert sum(len(s) for s in result.dimensions.values()) == k * l
    for dims in result.dimensions.values():
        assert len(dims) >= 2
        assert all(0 <= j < d for j in dims)
        assert tuple(sorted(dims)) == dims
    # medoids are data points
    assert np.array_equal(result.medoids, X[result.medoid_indices])
    assert len(set(result.medoid_indices.tolist())) == k
    # objective is finite and non-negative
    assert np.isfinite(result.objective)
    assert result.objective >= 0.0


@given(workloads())
@settings(max_examples=8, deadline=None)
@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
def test_seed_determinism(workload):
    X, k, l, seed = workload
    kwargs = dict(seed=seed, max_bad_tries=3, max_iterations=8,
                  sample_factor=10, pool_factor=3)
    a = proclus(X, k, l, **kwargs)
    b = proclus(X, k, l, **kwargs)
    assert np.array_equal(a.labels, b.labels)
    assert a.dimensions == b.dimensions
