"""Manhattan segmental distance (paper section 1.2).

For a dimension subset ``D`` with ``|D| >= 1``, the Manhattan segmental
distance between points ``x`` and ``y`` is::

    d_D(x, y) = ( sum_{i in D} |x_i - y_i| ) / |D|

i.e. the *average* per-dimension separation over ``D``.  The
normalisation by ``|D|`` is the point: clusters live in subspaces of
different dimensionality, and dividing by ``|D|`` makes distances
relative to different subsets comparable.  (The paper notes there is no
comparably easy normalised variant of the Euclidean metric.)

Batch helpers compute segmental distances from many points to one medoid
in a single vectorised pass, which is what ``AssignPoints`` needs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..dtypes import as_working
from ..exceptions import ParameterError
from ..robustness.guards import resolve_row_chunk
from .base import Metric

__all__ = [
    "segmental_distance",
    "segmental_distances_to_point",
    "pairwise_segmental",
    "ManhattanSegmentalDistance",
]


def _as_dims(dims: Sequence[int]) -> np.ndarray:
    arr = np.asarray(list(dims), dtype=np.intp)
    if arr.size == 0:
        raise ParameterError(
            "Manhattan segmental distance needs a non-empty dimension set"
        )
    return arr


def segmental_distance(a, b, dims: Sequence[int]) -> float:
    """Segmental distance between two points relative to ``dims``."""
    d = _as_dims(dims)
    a = as_working(a).ravel()
    b = as_working(b).ravel()
    return float(np.abs(a[d] - b[d]).mean())


def segmental_distances_to_point(X: np.ndarray, p, dims: Sequence[int], *,
                                 memory_budget_bytes: Optional[int] = None,
                                 ) -> np.ndarray:
    """Segmental distances from every row of ``X`` to point ``p``.

    Parameters
    ----------
    X:
        Array of shape ``(n, d)``.
    p:
        Point of shape ``(d,)``.
    dims:
        Dimension subset ``D``.
    memory_budget_bytes:
        Soft cap on the ``(n, |D|)`` gather/diff temporaries (default:
        :data:`repro.robustness.guards.DEFAULT_MEMORY_BUDGET_BYTES`).
        Past it, rows are processed in chunks — same values, bounded
        peak memory, exactly like
        :func:`repro.distance.matrix.cross_distances`.

    Returns
    -------
    numpy.ndarray of shape ``(n,)``, in ``X``'s working dtype.  The
    per-row mean spans only ``|D| <= d`` entries (a short reduction, the
    same rounding exposure for every row), so it runs natively in the
    working dtype — values are compared against each other, never
    against a float64 branch of the same quantity.
    """
    d = _as_dims(dims)
    X = as_working(X)
    p = np.asarray(p, dtype=X.dtype).ravel()
    target = p[d]
    n = X.shape[0]
    chunk = resolve_row_chunk(n, d.size, memory_budget_bytes,
                              itemsize=X.dtype.itemsize)
    if chunk is None:
        return np.abs(X[:, d] - target).mean(axis=1)
    out = np.empty(n, dtype=X.dtype)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = np.abs(X[start:stop, d] - target).mean(axis=1)
    return out


def pairwise_segmental(X: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Full ``(n, n)`` matrix of segmental distances among rows of ``X``.

    Quadratic in memory; intended for the small point sets (medoids,
    localities) the algorithms inspect, not whole databases.
    """
    d = _as_dims(dims)
    sub = as_working(X)[:, d]
    return np.abs(sub[:, None, :] - sub[None, :, :]).mean(axis=2)


class ManhattanSegmentalDistance(Metric):
    """Metric object bound to a fixed dimension subset ``D``.

    Useful where an API expects a plain two-argument metric but the
    distance must be evaluated in a projected subspace.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = np.sort(_as_dims(dims))
        self.name = "segmental[" + ",".join(str(int(j)) for j in self.dims) + "]"

    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        # the gathered (n, |D|) block holds |X[:, D] - p[D]|, so the
        # mean matches segmental_distances_to_point's bits
        return A[:, self.dims].mean(axis=1)

    def pairwise_to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        # only the |D| columns, row-chunked under the memory budget,
        # rather than the base class's full (n, d) |X - p| block
        return segmental_distances_to_point(X, p, self.dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ManhattanSegmentalDistance(dims={self.dims.tolist()})"
