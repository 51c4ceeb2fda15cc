"""Batch distance kernels (``cdist``-style) over point sets.

These helpers are the numpy workhorses behind the algorithms: the greedy
farthest-point selection, CLARANS, locality analysis, and cluster
evaluation all reduce to "distances from a block of points to one or a
few anchors".  Every kernel walks ``X`` in the cache-sized row blocks of
:func:`repro.robustness.guards.row_block_size`, so its temporaries span
one block, never the whole ``(n, d)`` matrix.  Rows are independent, so
the values do not depend on the block size.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..dtypes import as_working
from ..exceptions import DataError, ParameterError
from ..obs import get_tracer
from ..robustness.guards import PASS_BLOCK_BYTES, row_block_size
from .base import Metric, get_metric

__all__ = [
    "cross_distances",
    "distances_and_locality",
    "per_dimension_average_distance",
]

MetricLike = Union[str, Metric]


def cross_distances(X: np.ndarray, anchors: np.ndarray,
                    metric: MetricLike = "euclidean") -> np.ndarray:
    """Matrix of shape ``(n, m)``: distance from each row of ``X`` to each anchor.

    ``anchors`` is expected to be small (medoid sets).  Rows are walked
    in the cache-sized blocks of :func:`_block_rows`, and every anchor's
    column is filled from a block while it is in cache: peak memory is
    one block's temporaries, and the values equal a whole-matrix pass
    per anchor.
    """
    m = get_metric(metric)
    X = _two_dimensional(X)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=X.dtype))
    if anchors.ndim != 2 or anchors.shape[1] != X.shape[1]:
        raise DataError(
            f"anchors must be points of X's width {X.shape[1]}; "
            f"got shape {anchors.shape}"
        )
    _count_distance_work(X, anchors.shape[0])
    out = np.empty((X.shape[0], anchors.shape[0]), dtype=X.dtype)
    step = _block_rows(X)
    for start in range(0, X.shape[0], step):
        block = X[start:start + step]
        for j, a in enumerate(anchors):
            out[start:start + step, j] = m.pairwise_to_point(block, a)
    return out


def distances_and_locality(X: np.ndarray, row: int, delta: float,
                           metric: MetricLike = "euclidean",
                           ) -> Tuple[np.ndarray, np.ndarray,
                                      Optional[np.ndarray]]:
    """Distance column, radius members and their mean ``|X - X[row]|`` row.

    One pass over ``X`` in cache-sized row blocks of ``A = |X - m|``,
    ``m = X[row]``.  Each block subtracts a pre-tiled copy of ``m`` into
    a reused scratch, takes ``abs`` in place and writes the metric's
    row reduction into the column, so every distance is bit-identical
    to ``cross_distances(X, m[None], metric)[:, 0]``.  The block's rows
    within ``delta`` (``row`` itself excluded) are the locality members,
    and their ``A`` rows are taken into the statistics slot of
    :class:`_RowMean` and folded into the float64 mean
    :func:`per_dimension_average_distance` computes (``None`` when no
    row qualifies, or for ``d == 1``, whose mean is not summed row by
    row).  No ``(n, d)`` temporary is built.
    """
    m = get_metric(metric)
    X = as_working(X)
    n, d = X.shape
    _count_distance_work(X, 1)
    column = np.empty(n, dtype=X.dtype)
    step = _block_rows(X)
    tile = np.tile(X[row], (step, 1))
    scratch = np.empty((step, d), dtype=X.dtype)
    mean = _RowMean(step, d) if d > 1 else None
    # picked rows of a narrower dtype, gathered before the cast
    gathered = (np.empty((step, d), dtype=X.dtype)
                if mean is not None and X.dtype != np.float64 else None)
    members: List[np.ndarray] = []
    for start in range(0, n, step):
        A = scratch[:min(step, n - start)]
        np.subtract(X[start:start + step], tile[:A.shape[0]], out=A)
        np.abs(A, out=A)
        block_column = column[start:start + A.shape[0]]
        block_column[...] = m.reduce_rows(A)
        inside = block_column <= delta
        if start <= row < start + A.shape[0]:
            inside[row - start] = False
        picked = np.flatnonzero(inside)
        if picked.size:
            members.append(picked + start)
            if mean is not None:
                slot = mean.slot(picked.size)
                # picked comes from flatnonzero, so it is in range;
                # mode="clip" writes straight into out ("raise" buffers)
                if gathered is None:
                    np.take(A, picked, axis=0, out=slot, mode="clip")
                else:
                    # a gather into a reused scratch, then one
                    # contiguous cast: A[picked] would allocate the rows
                    # and cast from there
                    slot[...] = np.take(A, picked, axis=0,
                                        out=gathered[:picked.size],
                                        mode="clip")
                mean.fold(picked.size)
    stats = mean.value() if mean is not None and mean.count else None
    return column, (np.concatenate(members) if members
                    else np.empty(0, dtype=np.intp)), stats


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


def per_dimension_average_distance(X: np.ndarray, p, *,
                                   rows: Optional[np.ndarray] = None,
                                   ) -> np.ndarray:
    """Average absolute distance along each dimension from rows of ``X`` to ``p``.

    This is the quantity ``X_{i,j}`` in the paper's ``FindDimensions``:
    the mean of ``|x_j - p_j|`` over the points ``x`` in a locality (or
    cluster): the rows of ``X``, or ``X[rows]`` when ``rows`` is given
    (a row listed twice counts twice; a negative index counts from the
    end).  An empty ``X`` or a point of another length than ``X``'s
    rows raises :class:`~repro.exceptions.DataError`; ``rows`` that are
    empty, not integers or outside ``[-n, n)`` raise
    :class:`~repro.exceptions.ParameterError`.  Only shapes and the
    ``rows`` range are checked, in ``O(len(rows))``: the hill climb
    calls this once per retained medoid whose radius moved, so the
    values are not scanned for NaN.

    Accumulation policy: the gather/diff runs in ``X``'s working dtype
    (that's the bandwidth-bound part), but the mean over members
    **accumulates in float64 and the result is float64** regardless of
    the input dtype — these statistics feed the Z-score ranking whose
    argsort decides dimension allocation, and a long float32 reduction
    could flip that ranking between otherwise-identical runs.

    The mean runs in cache-sized row blocks.  In float64 each block's
    member rows are gathered straight into the statistics slot of
    :class:`_RowMean`, the tiled ``p`` is subtracted and ``abs`` taken
    there; a float32 block does the same in a float32 scratch and is
    cast into the slot.  The rows are summed in the order of one axis-0
    reduction over all of them, so the result is bit-identical to
    ``np.abs(X[rows] - p).mean(axis=0, dtype=np.float64)``.
    """
    X = _two_dimensional(X)
    n, d = X.shape
    if n == 0 or d == 0:
        raise DataError("per_dimension_average_distance needs a non-empty "
                        f"2-D array; got shape {X.shape}")
    p = np.asarray(p, dtype=X.dtype).ravel()
    if p.size != d:
        raise DataError(f"p must have X's {d} dimensions; got {p.size}")
    if rows is not None:
        rows = _check_rows(rows, n)
    if d == 1:
        # one reduction over the whole (count, 1) block: a single
        # column is summed pairwise, not row by row (see _RowMean)
        diffs = np.abs((X if rows is None else X[rows]) - p)
        return diffs.mean(axis=0, dtype=np.float64)
    count = n if rows is None else rows.size
    step = _block_rows(X, count)
    tile = np.tile(p, (step, 1))
    mean = _RowMean(step, d)
    # float64 rows are diffed in the slot itself; a narrower dtype
    # needs a scratch of its own before the cast
    scratch = (None if X.dtype == np.float64
               else np.empty((step, d), dtype=X.dtype))
    for start in range(0, count, step):
        size = min(step, count - start)
        slot = mean.slot(size)
        A = slot if scratch is None else scratch[:size]
        if rows is None:
            np.subtract(X[start:start + size], tile[:size], out=A)
        else:
            # the rows are checked in range, and mode="wrap" (as
            # "clip") gathers straight into out: "raise" buffers a
            # second copy; wrapping keeps the meaning of negative rows
            np.take(X, rows[start:start + size], axis=0, out=A,
                    mode="wrap")
            np.subtract(A, tile[:size], out=A)
        np.abs(A, out=A)
        if A is not slot:
            slot[...] = A
        mean.fold(size)
    return mean.value()


def _two_dimensional(X) -> np.ndarray:
    """``X`` in its working dtype; :class:`DataError` unless it is 2-D."""
    try:
        X = as_working(X)
    except (TypeError, ValueError) as exc:
        raise DataError(f"X is not numeric array data: {exc}")
    if X.ndim != 2:
        raise DataError(f"X must be 2-dimensional; got ndim={X.ndim}")
    return X


def _check_rows(rows, n: int) -> np.ndarray:
    """``rows`` as a non-empty ``intp`` vector within ``[-n, n)``.

    Raises :class:`ParameterError` otherwise.  One ``min`` and one
    ``max`` pass: ``O(len(rows))``, never ``O(n * d)``.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ParameterError(
            "rows must be a 1-D array of integer row indices; got "
            f"dtype {rows.dtype} with shape {rows.shape}"
        )
    if rows.size == 0:
        raise ParameterError("rows must be non-empty")
    low, high = rows.min(), rows.max()
    if low < -n or high >= n:
        raise ParameterError(
            f"rows must lie in [{-n}, {n}); got indices from {low} to {high}"
        )
    return rows.astype(np.intp, copy=False)


def _block_rows(X: np.ndarray, n: Optional[int] = None) -> int:
    """Rows per block of an ``|X - m|`` pass over ``n`` rows of ``X``.

    The temporaries are the scratch and the tiled medoid in ``X``'s
    dtype, the float64 statistics buffer and, for a narrower dtype, the
    statistics' gather scratch: at most ``5 * d * itemsize`` bytes a
    row, within what the memory budget test charges for
    ``(3 * d, rows)`` temporaries.  (:func:`cross_distances` holds
    fewer: a diff and its elementwise transform.)
    """
    d = X.shape[1]
    return row_block_size(X.shape[0] if n is None else n, d, 3 * d,
                          X.dtype.itemsize, block_bytes=PASS_BLOCK_BYTES)


class _RowMean:
    """Float64 mean of ``(rows, d)`` blocks, summed as one reduction.

    The caller fills :meth:`slot` with a block's rows and then calls
    :meth:`fold`.  The running sum sits in the row just above the slot
    and goes in as row 0 of the block, and ``np.einsum('ij->j')`` adds
    the rows of the C-ordered buffer one after another, as a C-ordered
    ``np.add.reduce(axis=0)`` over ``d > 1`` columns does, at about a
    third of its cost.  Every addition is the one a single
    ``A.mean(axis=0, dtype=np.float64)`` over all rows makes, so the
    mean is bit-identical to it.  (einsum starts from ``+0.0``, which
    only differs on a column of ``-0.0``; the rows here are absolute
    values.  A single column is reduced pairwise instead, so ``d == 1``
    is not summed here.)
    """

    def __init__(self, rows: int, d: int) -> None:
        self._buffer = np.empty((rows + 1, d), dtype=np.float64)
        self._sum = np.empty(d, dtype=np.float64)
        self.count = 0

    def slot(self, size: int) -> np.ndarray:
        """The float64 rows the next ``size`` rows are written into."""
        first = 1 if self.count else 0
        return self._buffer[first:first + size]

    def fold(self, size: int) -> None:
        """Add the ``size`` rows written into :meth:`slot` to the sum."""
        first = 1 if self.count else 0
        if first:
            self._buffer[0] = self._sum
        np.einsum("ij->j", self._buffer[:first + size], out=self._sum)
        self.count += size

    def value(self) -> np.ndarray:
        """The mean row so far (at least one row must have been folded)."""
        return self._sum / self.count
