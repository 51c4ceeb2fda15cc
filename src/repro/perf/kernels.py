"""Batched segmental-distance kernels.

The assignment step needs the ``(N, k)`` matrix of Manhattan segmental
distances where column ``i`` is measured in medoid ``i``'s own dimension
set ``D_i``.  :func:`segmental_columns` never gathers ``X[:, dims]``
into an ``(N, sum|D_i|)`` row-major block.  It works through ``X`` in
cache-sized row blocks and reads every medoid's dimensions as *rows* of
the transposed block view, ``X[rows].T[flat_dims]`` — one
``(sum|D_i|, rows)`` strided copy per block, with the dimension sets
concatenated as :func:`build_dims_layout` lays them out.  It subtracts
the medoid coordinates and takes ``abs`` in place, then sums each
medoid's rows into its output column.

**Bit-identity with ``np.add.reduceat``.**  The earlier kernel reduced
each medoid's segment of that gather with ``np.add.reduceat``.  For a
segment of ``m + 1`` terms reduceat copies the first term and adds
numpy's *pairwise sum* of the other ``m``: sequential below 8 terms,
eight interleaved partial sums combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus a sequential tail up to
128 terms, and a split in two halves (the first a multiple of 8 long)
above that.  :func:`_sum_rows_like_reduceat` applies exactly that order
to whole rows — every addition is the same IEEE operation on the same
operands — so float64 and float32 distances are bit-identical to the
gather + reduceat formulation (``tests/test_perf_kernels.py`` keeps it
as an oracle).

**Column-major output.**  The result is an ``(n, k)`` matrix allocated
as ``np.empty((k, n)).T``: the same shape as before, but each medoid's
column is contiguous.  Its consumers take it as its ``k`` columns
(``dist.T``), just as they take the cache's stored columns —
:func:`nearest_medoid` replaces the row-wise ``np.argmin``, and the
outlier test ANDs ``k`` column compares.

Each medoid's column depends only on its own dimension set, so
computing a subset of medoids (as the cache does on partial misses)
yields bit-identical columns to computing all of them at once; row
blocks are likewise independent.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import as_working
from ..exceptions import ParameterError
from ..obs import get_tracer
from ..robustness.guards import row_block_size

__all__ = ["Columns", "SegmentalLayout", "build_dims_layout",
           "segmental_layout", "segmental_columns", "nearest_medoid"]

#: ``k`` distance columns of equal length: a list of ``(n,)`` arrays, or
#: a ``(k, n)`` array such as the transpose of a column-major matrix.
Columns = Union[np.ndarray, Sequence[np.ndarray]]


def build_dims_layout(
    dim_sets: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated dims layout ``(flat_dims, starts, counts)``.

    ``flat_dims`` is every medoid's dimension set back to back;
    ``starts[i]`` is where medoid ``i``'s segment begins and
    ``counts[i] = |D_i|``.  Empty dimension sets are rejected.
    """
    sizes = [len(d) for d in dim_sets]
    if not sizes:
        raise ParameterError("need at least one dimension set")
    if 0 in sizes:
        raise ParameterError(
            f"Manhattan segmental distance needs a non-empty dimension "
            f"set; dimension set {sizes.index(0)} is empty"
        )
    # one pass over the Python-level sets: per-set arrays cost more
    # than the kernel itself on a small served batch
    flat = np.fromiter(chain.from_iterable(dim_sets), dtype=np.intp,
                       count=sum(sizes))
    counts = np.array(sizes, dtype=np.intp)
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return flat, starts, counts


class SegmentalLayout(NamedTuple):
    """What :func:`segmental_columns` derives from the medoids once.

    ``flat`` and ``counts`` are :func:`build_dims_layout`'s arrays;
    ``starts`` and ``sizes`` are the segments' starts and lengths as
    Python lists, for the block loop; ``centres`` holds each medoid's
    coordinate under its concatenated ``(owner, dim)`` slot, as a
    column.
    """

    flat: np.ndarray
    counts: np.ndarray
    starts: List[int]
    sizes: List[int]
    centres: np.ndarray


def segmental_layout(medoids: np.ndarray,
                     dim_sets: Sequence[Sequence[int]]) -> SegmentalLayout:
    """The medoids' :class:`SegmentalLayout`, in ``medoids``' dtype.

    A caller running :func:`segmental_columns` over many row blocks of
    one batch builds it once and passes it in as ``layout``.
    """
    medoids = np.atleast_2d(medoids)
    flat, starts, counts = build_dims_layout(dim_sets)
    k = counts.size
    if medoids.shape[0] != k:
        raise ParameterError(
            f"need one dimension set per medoid; got {k} for "
            f"k={medoids.shape[0]}"
        )
    # a column, so it broadcasts over the (sum|D_i|, rows) block
    centres = medoids[np.repeat(np.arange(k), counts), flat][:, None]
    return SegmentalLayout(flat, counts, starts.tolist(), counts.tolist(),
                           centres)


def _sum_rows_like_reduceat(rows: np.ndarray) -> np.ndarray:
    """Sum ``rows`` over axis 0 in numpy's pairwise-summation order.

    Mirrors ``pairwise_sum`` in numpy's add loop, elementwise over the
    columns: sequential below 8 rows, eight partial sums up to 128 rows,
    halves (the first a multiple of 8 long) above that.  Works in place:
    ``rows`` is overwritten.
    """
    m = rows.shape[0]
    if m < 8:
        acc = rows[0]
        for j in range(1, m):
            acc += rows[j]
        return acc
    if m <= 128:
        partial = rows[:8]
        tail = m - m % 8
        for b in range(8, tail, 8):
            partial += rows[b:b + 8]
        pairs = partial[0::2] + partial[1::2]
        acc = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
        for j in range(tail, m):
            acc += rows[j]
        return acc
    half = m // 2
    half -= half % 8
    acc = _sum_rows_like_reduceat(rows[:half])
    acc += _sum_rows_like_reduceat(rows[half:])
    return acc


def segmental_columns(X: np.ndarray, medoids: np.ndarray,
                      dim_sets: Sequence[Sequence[int]], *,
                      out: Optional[np.ndarray] = None,
                      layout: Optional[SegmentalLayout] = None,
                      ) -> np.ndarray:
    """``(n, k)`` segmental distances, one column per medoid.

    Column ``i`` is the Manhattan segmental distance from every row of
    ``X`` to ``medoids[i]`` relative to ``dim_sets[i]``.  The returned
    matrix is column-major (each column contiguous).  Rows are processed
    in the blocks :func:`row_block_size` sets: about 1 MiB of
    ``X``, fewer rows when the ``(sum|D_i|, rows)`` temporaries would
    exceed the default memory budget — identical values, bounded peak
    memory.

    The kernel computes natively in ``X``'s working dtype (float32 in,
    float32 out).  Accumulation policy: each column sums only
    ``|D_i| <= d`` terms, in the order ``np.add.reduceat`` uses, a short
    reduction with identical rounding exposure in every column, so no
    float64 accumulator is needed — the downstream nearest-medoid scan
    compares like against like.

    A caller-provided ``out`` must have shape ``(n, k)`` and ``X``'s
    working dtype (either memory order); mismatches raise
    :class:`~repro.exceptions.ParameterError` up front.  ``layout`` is
    :func:`segmental_layout` of the same medoids and dimension sets,
    when the caller already built it; a layout whose medoid count or
    dtype differs from ``medoids``' and ``X``'s raises
    :class:`~repro.exceptions.ParameterError`.
    """
    X = as_working(X)
    if layout is None:
        layout = segmental_layout(np.asarray(medoids, dtype=X.dtype),
                                  dim_sets)
    flat, counts, starts_list, sizes, centres = layout
    k = counts.size
    if np.atleast_2d(medoids).shape[0] != k or centres.dtype != X.dtype:
        raise ParameterError(
            f"layout holds {k} {centres.dtype.name} medoids; got "
            f"{np.atleast_2d(medoids).shape[0]} medoids and "
            f"{X.dtype.name} rows"
        )
    n = X.shape[0]
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("kernel.segmental_rows", n * k)
        # bytes the kernel streams: the (n, sum|D_i|) selected entries
        # and their differences plus the (n, k) output, in the working
        # dtype
        tracer.count("kernel.segmental_bytes",
                     n * (flat.size + k) * X.dtype.itemsize)
    if out is None:
        out = np.empty((k, n), dtype=X.dtype).T
    else:
        if out.shape != (n, k):
            raise ParameterError(
                f"out has shape {out.shape}; expected ({n}, {k})"
            )
        if out.dtype != X.dtype:
            raise ParameterError(
                f"out has dtype {out.dtype.name}; expected the working "
                f"dtype {X.dtype.name}"
            )
    step = row_block_size(n, X.shape[1], flat.size, X.dtype.itemsize)
    for start in range(0, n, step):
        diffs = X[start:start + step].T[flat]
        diffs -= centres
        np.abs(diffs, out=diffs)
        block_out = out[start:start + step]
        for i in range(k):
            terms = diffs[starts_list[i]:starts_list[i] + sizes[i]]
            if sizes[i] == 1:
                np.copyto(block_out[:, i], terms[0])
            else:
                np.add(terms[0], _sum_rows_like_reduceat(terms[1:]),
                       out=block_out[:, i])
        block_out /= counts
    return out


def nearest_medoid(columns: Columns) -> np.ndarray:
    """Index of each row's nearest medoid, as int64 labels.

    ``columns[i]`` holds every point's distance to medoid ``i``: the
    cache's list of stored columns, or a column-major ``(n, k)`` matrix
    passed as its columns, ``dist.T``.  Equivalent to
    ``np.argmin(dist, axis=1)`` on NaN-free input, including its
    first-index rule on ties: a label moves to column ``i`` only where
    ``columns[i]`` is strictly below the running minimum.

    Every running label is below ``i`` when column ``i`` is scanned, so
    the move is ``max(label, i * closer)``: branch-free, unlike a masked
    store, and done in the narrowest unsigned type that holds ``k - 1``.
    """
    k = len(columns)
    if k == 0:
        raise ParameterError("need at least one medoid column")
    best = columns[0].copy()
    n = best.shape[0]
    label_type = np.min_scalar_type(k - 1)
    labels = np.zeros(n, dtype=label_type)
    moved = np.empty(n, dtype=label_type)
    for i in range(1, k):
        col = columns[i]
        np.less(col, best, out=moved)  # 1 where column i is closer
        np.multiply(moved, i, out=moved)
        np.maximum(labels, moved, out=labels)
        np.minimum(best, col, out=best)
    return labels.astype(np.int64)
