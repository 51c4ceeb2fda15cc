"""Batch distance kernels (``cdist``-style) over point sets.

These helpers are the numpy workhorses behind the algorithms: the greedy
farthest-point selection, CLARANS, locality analysis, and cluster
evaluation all reduce to "distances from a block of points to one or a
few anchors".  Memory is kept linear in ``n`` by iterating over the
(small) anchor set rather than materialising 3-D broadcast temporaries.

When even the per-anchor ``O(n * d)`` temporaries would exceed the
memory budget (see :mod:`repro.robustness.guards`), the kernels fall
back to row-chunked computation: identical values, peak memory bounded
by the budget.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..dtypes import as_working, to_float64
from ..obs import get_tracer
from ..robustness.guards import resolve_row_chunk
from .base import Metric, get_metric

__all__ = [
    "distances_to_point",
    "cross_distances",
    "distances_and_diffs",
    "pairwise_distances",
    "per_dimension_average_distance",
]

MetricLike = Union[str, Metric]


def distances_to_point(X: np.ndarray, p, metric: MetricLike = "euclidean") -> np.ndarray:
    """Distances from every row of ``X`` (n, d) to a single point ``p``.

    Computes natively in ``X``'s working dtype (float32 stays float32);
    non-float input is coerced to float64 (see :mod:`repro.dtypes`).
    """
    m = get_metric(metric)
    X = as_working(X)
    p = np.asarray(p, dtype=X.dtype).ravel()
    return m.pairwise_to_point(X, p)


def cross_distances(X: np.ndarray, anchors: np.ndarray,
                    metric: MetricLike = "euclidean", *,
                    memory_budget_bytes: Optional[int] = None) -> np.ndarray:
    """Matrix of shape ``(n, m)``: distance from each row of ``X`` to each anchor.

    ``anchors`` is expected to be small (medoid sets); the loop over
    anchors keeps peak memory at ``O(n)`` per column.  When the per-anchor
    temporaries would exceed ``memory_budget_bytes`` (default:
    :data:`repro.robustness.guards.DEFAULT_MEMORY_BUDGET_BYTES`), rows
    are processed in chunks instead — same values, bounded peak memory.
    """
    m = get_metric(metric)
    X = as_working(X)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=X.dtype))
    n = X.shape[0]
    _count_distance_work(X, anchors.shape[0])
    out = np.empty((n, anchors.shape[0]), dtype=X.dtype)
    chunk = resolve_row_chunk(n, X.shape[1], memory_budget_bytes,
                              itemsize=X.dtype.itemsize)
    if chunk is None:
        for j, a in enumerate(anchors):
            out[:, j] = m.pairwise_to_point(X, a)
        return out
    for start in range(0, n, chunk):
        block = X[start:start + chunk]
        for j, a in enumerate(anchors):
            out[start:start + chunk, j] = m.pairwise_to_point(block, a)
    return out


def distances_and_diffs(X: np.ndarray, p, metric: MetricLike = "euclidean",
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Distances from the rows of ``X`` to ``p``, and the ``|X - p|`` behind them.

    ``A = |X - p|`` is computed once, in place, in ``X``'s working
    dtype; the distances are the metric's row reduction of ``A``,
    bit-identical to ``cross_distances(X, p[None], metric)[:, 0]``.
    ``A`` is returned so a caller can reduce it again.  When ``A`` would
    exceed the memory budget, the distances come from the row-chunked
    :func:`cross_distances` and ``A`` is ``None``.
    """
    m = get_metric(metric)
    X = as_working(X)
    p = np.asarray(p, dtype=X.dtype).ravel()
    if resolve_row_chunk(X.shape[0], X.shape[1],
                         itemsize=X.dtype.itemsize) is not None:
        # an owned copy, not a strided view of the (n, 1) result
        return cross_distances(X, p, m)[:, 0].copy(), None
    _count_distance_work(X, 1)
    diffs = X - p
    np.abs(diffs, out=diffs)
    return m.reduce_rows(diffs), diffs


def _count_distance_work(X: np.ndarray, n_anchors: int) -> None:
    """Trace counters for ``n_anchors`` distance columns over ``X``."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("kernel.distance_rows", X.shape[0] * n_anchors)
        # bytes the kernel streams: the (n, d) block read once per
        # anchor plus the (n, m) output written, in the working dtype
        tracer.count("kernel.distance_bytes",
                     X.shape[0] * n_anchors * (X.shape[1] + 1)
                     * X.dtype.itemsize)


def pairwise_distances(X: np.ndarray, metric: MetricLike = "euclidean", *,
                       memory_budget_bytes: Optional[int] = None) -> np.ndarray:
    """Symmetric ``(n, n)`` distance matrix among the rows of ``X``.

    The metric is assumed symmetric (every registered metric is), so
    only the lower triangle (diagonal included) is computed and the
    upper triangle is mirrored — half the work of the naive
    anchors-times-rows product, with identical values.  The row-chunk
    memory budget applies per anchor column, as in
    :func:`cross_distances`.
    """
    m = get_metric(metric)
    X = as_working(X)
    n = X.shape[0]
    out = np.empty((n, n), dtype=X.dtype)
    chunk = resolve_row_chunk(n, X.shape[1], memory_budget_bytes,
                              itemsize=X.dtype.itemsize)

    for i in range(n):
        block = X[i:]
        if chunk is None:
            col = m.pairwise_to_point(block, X[i])
        else:
            col = np.empty(n - i, dtype=X.dtype)
            for start in range(0, block.shape[0], chunk):
                col[start:start + chunk] = m.pairwise_to_point(
                    block[start:start + chunk], X[i]
                )
        out[i:, i] = col
        out[i, i:] = col
    return out


def per_dimension_average_distance(X: np.ndarray, p,
                                   weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Average absolute distance along each dimension from rows of ``X`` to ``p``.

    This is the quantity ``X_{i,j}`` in the paper's ``FindDimensions``:
    the mean of ``|x_j - p_j|`` over the points ``x`` in a locality (or
    cluster).  ``weights`` allows a weighted mean; an empty ``X`` raises
    ``ValueError`` — callers guard against empty localities explicitly.

    Accumulation policy: the gather/diff runs in ``X``'s working dtype
    (that's the bandwidth-bound part), but the mean over members
    **accumulates in float64 and the result is float64** regardless of
    the input dtype — these statistics feed the Z-score ranking whose
    argsort decides dimension allocation, and a long float32 reduction
    could flip that ranking between otherwise-identical runs.
    """
    X = as_working(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("per_dimension_average_distance needs a non-empty 2-D array")
    p = np.asarray(p, dtype=X.dtype).ravel()
    diffs = np.abs(X - p)
    if weights is None:
        return diffs.mean(axis=0, dtype=np.float64)
    weights = to_float64(weights)
    return (diffs * weights[:, None]).sum(axis=0, dtype=np.float64) / weights.sum()
