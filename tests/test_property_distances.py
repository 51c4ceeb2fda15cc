"""Property-based tests (hypothesis) for the distance layer.

Invariants checked on arbitrary finite inputs:

* metric axioms (identity, symmetry, triangle inequality) for every
  registered Lp metric and the segmental distance;
* the segmental distance equals the Manhattan distance divided by |D|
  when D is the full dimension set;
* the segmental kernels agree with the literal per-dimension sum of
  ``reference.proclus_ref``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import (
    euclidean,
    manhattan,
    segmental_distances_to_point,
)
from repro.distance.lp import LpDistance
from repro.perf.kernels import segmental_columns

from reference.proclus_ref import segmental_distances

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def vectors(dim):
    return st.lists(FINITE, min_size=dim, max_size=dim).map(np.array)


def segmental(a, b, dims):
    """``d_D(a, b)`` from the batch kernel, for one point ``a``."""
    return float(segmental_distances_to_point(a[None], b, dims)[0])


@st.composite
def two_vectors(draw, min_dim=1, max_dim=8):
    d = draw(st.integers(min_value=min_dim, max_value=max_dim))
    a = draw(vectors(d))
    b = draw(vectors(d))
    return a, b


@st.composite
def three_vectors(draw, min_dim=1, max_dim=6):
    d = draw(st.integers(min_value=min_dim, max_value=max_dim))
    return tuple(draw(vectors(d)) for _ in range(3))


class TestMetricAxioms:
    @given(two_vectors())
    def test_manhattan_symmetry(self, ab):
        a, b = ab
        assert manhattan(a, b) == pytest.approx(manhattan(b, a))

    @given(vectors(5))
    def test_manhattan_identity(self, a):
        assert manhattan(a, a) == 0.0

    @given(three_vectors())
    @settings(max_examples=60)
    def test_manhattan_triangle(self, abc):
        a, b, c = abc
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c) + 1e-6

    @given(three_vectors())
    @settings(max_examples=60)
    def test_euclidean_triangle(self, abc):
        a, b, c = abc
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6

    @given(two_vectors(), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=60)
    def test_lp_nonnegative(self, ab, p):
        a, b = ab
        assert LpDistance(p)(a, b) >= 0.0


class TestSegmentalProperties:
    @given(two_vectors(min_dim=2))
    def test_full_dims_is_normalised_manhattan(self, ab):
        a, b = ab
        d = a.shape[0]
        assert segmental(a, b, range(d)) == pytest.approx(
            manhattan(a, b) / d
        )

    @given(two_vectors(min_dim=3))
    def test_subset_independent_of_other_coords(self, ab):
        a, b = ab
        dims = [0, 1]
        b2 = b.copy()
        b2[2] = b2[2] + 100.0
        assert segmental(a, b, dims) == segmental(a, b2, dims)

    @given(three_vectors(min_dim=2))
    @settings(max_examples=60)
    def test_triangle_inequality(self, abc):
        a, b, c = abc
        dims = [0, 1]
        assert segmental(a, c, dims) <= (
            segmental(a, b, dims) + segmental(b, c, dims) + 1e-6
        )
        # the same in the fit's kernel, every pair of the three points
        P = np.vstack([a, b, c])
        m = segmental_columns(P, P, [dims] * 3)
        np.testing.assert_array_equal(m, m.T)
        assert m[0, 2] <= m[0, 1] + m[1, 2] + 1e-6

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40)
    def test_batch_matches_scalar(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        p = rng.normal(size=d)
        dims = list(range(0, d, 2)) or [0]
        batch = segmental_distances_to_point(X, p, dims)
        np.testing.assert_allclose(batch, segmental_distances(X, p, dims),
                                   rtol=1e-12)
