"""The row-blocked distance kernels against one-shot numpy expressions.

``cross_distances`` and ``segmental_distances_to_point`` walk ``X`` in
the cache-sized row blocks of ``repro.robustness.guards.row_block_size``.
Rows are independent, so every block size must give the bits of one
numpy expression over the whole matrix, in both working dtypes.  A
small memory budget shrinks the blocks, down to one row at 1 byte.  The
trace counters ``kernel.distance_rows`` and ``kernel.distance_bytes``
(read by ``perfbench``) are counted once per call, whatever the blocks.
"""

import numpy as np
import pytest

from repro.distance import (
    LpDistance,
    available_metrics,
    cross_distances,
    get_metric,
    segmental_distances_to_point,
)
from repro.obs import Tracer, use_tracer
from repro.robustness import guards

DTYPES = [np.float64, np.float32]
# 1 byte: one-row blocks; 1000 bytes: a few rows; None: the default
BUDGETS = [1, 1000, None]


def _one_shot(name, X, a):
    """The metric's distances from every row of ``X`` to ``a``, unblocked."""
    A = np.abs(X - a)
    if name == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", A, A))
    if name == "manhattan":
        return A.sum(axis=1)
    if name == "chebyshev":
        return A.max(axis=1)
    assert name == "l3"
    return np.power(np.power(A, 3.0).sum(axis=1), 1.0 / 3.0)


REGISTERED = sorted({get_metric(key).name for key in available_metrics()})
METRICS = [get_metric(name) for name in REGISTERED] + [LpDistance(3)]


def _data(dtype, n=203, d=7):
    rng = np.random.default_rng(17)
    return rng.normal(scale=10.0, size=(n, d)).astype(dtype)


@pytest.fixture(params=BUDGETS, ids=["1-row", "few-rows", "default"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES",
                            request.param)
    return request.param


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
def test_cross_distances_equal_one_shot(metric, dtype, budget):
    X = _data(dtype)
    anchors = X[[0, 101, 202]]
    got = cross_distances(X, anchors, metric)
    expected = np.column_stack([_one_shot(metric.name, X, a)
                                for a in anchors])
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("dims", [(3,), (0, 2, 5), (6, 1, 4, 0, 2, 3, 5)])
@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
def test_segmental_distances_equal_one_shot(dims, dtype, budget):
    X = _data(dtype)
    p = X[50]
    got = segmental_distances_to_point(X, p, dims)
    expected = np.abs(X[:, dims] - p[list(dims)]).mean(axis=1)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expected)


def test_one_row_budget_gives_one_row_blocks():
    # the fixture's 1-byte budget really walks the rows one at a time
    assert guards.row_block_size(203, 7, 21, 8, memory_budget_bytes=1) == 1


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
def test_distance_counters_once_per_call(dtype, budget):
    X = _data(dtype)
    n, d = X.shape
    tracer = Tracer()
    with use_tracer(tracer):
        cross_distances(X, X[:3], "manhattan")
        cross_distances(X[:10], X[:2], "euclidean")
    counters = tracer.profile()["counters"]
    rows = n * 3 + 10 * 2
    assert counters["kernel.distance_rows"] == rows
    assert counters["kernel.distance_bytes"] == rows * (d + 1) * X.itemsize
