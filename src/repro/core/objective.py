"""Clustering objective (paper Figure 6, ``EvaluateClusters``).

For each cluster ``C_i`` with dimension set ``D_i``:

* ``Y_{i,j}`` = average distance of the points of ``C_i`` to the
  cluster *centroid* (not the medoid) along dimension ``j in D_i``;
* ``w_i = mean_{j in D_i} Y_{i,j}`` — the cluster's segmental dispersion.

The objective is the size-weighted mean ``sum_i |C_i| * w_i / N``;
lower is better.  Points labelled as outliers (label ``-1``) are skipped
in the numerator but the paper's normalisation by the full ``N`` is kept
(during the iterative phase every point is assigned, so the distinction
only matters if callers evaluate a refined clustering).

The gather of each cluster's ``D_i`` entries reads a column-major copy
of ``X`` (:func:`column_major`): one contiguous ``np.take`` per
dimension instead of a 2-D fancy gather that touches every member row
once per dimension.  The hill climb makes the copy once per phase and
hands it to every vertex's assignment and evaluation; one-shot
evaluations gather from ``X`` itself, with identical results.

Labels outside ``{-1, 0..k-1}`` are rejected with a
:class:`~repro.exceptions.ParameterError`: they would silently drop
from every numerator while still inflating the denominator, skewing the
objective without any visible failure.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import OUTLIER_LABEL
from ..dtypes import as_working
from ..exceptions import ParameterError
from ..robustness.guards import PASS_BLOCK_BYTES, row_block_size
from ..validation import check_array, check_same_length

__all__ = ["evaluate_clusters", "cluster_dispersions",
           "cluster_dispersions_and_sizes", "column_major"]


def column_major(X: np.ndarray) -> Optional[np.ndarray]:
    """``X`` as a C-ordered ``(d, N)`` copy, or ``None`` over budget.

    The copy is made only when ``N * d`` entries pass the memory budget
    test of :func:`~repro.robustness.guards.row_block_size`: taken as
    one-entry rows, they fit in a single block.  Over budget the
    dispersions gather from ``X`` itself.
    """
    n, d = X.shape
    entries = n * d
    if row_block_size(entries, 1, 1, X.dtype.itemsize,
                      block_bytes=entries * X.dtype.itemsize) < entries:
        return None
    Xc = np.empty((d, n), dtype=X.dtype)
    # transposed in L2-sized blocks: about 4x faster than
    # np.ascontiguousarray(X.T) at d=20 on a 2-vCPU Xeon
    step = row_block_size(n, d, d, X.dtype.itemsize,
                          block_bytes=PASS_BLOCK_BYTES)
    for start in range(0, n, step):
        Xc[:, start:start + step] = X[start:start + step].T
    return Xc


def _check_labels(labels: np.ndarray, k: int) -> None:
    """Reject labels outside ``{OUTLIER_LABEL, 0..k-1}``."""
    if labels.size == 0:
        return
    lo = int(labels.min())
    hi = int(labels.max())
    if lo < OUTLIER_LABEL or hi >= k:
        bad = lo if lo < OUTLIER_LABEL else hi
        raise ParameterError(
            f"label {bad} is outside the valid range "
            f"{{{OUTLIER_LABEL}, 0..{k - 1}}} for {k} dimension sets"
        )


def _members_block(X: np.ndarray, Xc: Optional[np.ndarray],
                   dims: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``X[idx][:, dims]`` transposed: a C-ordered ``(|D_i|, n_i)`` block.

    One contiguous ``np.take`` per dimension from the column-major copy
    ``Xc``; without it (a one-shot evaluation, or ``X`` over the memory
    budget), the same block from a 2-D fancy gather of ``X.T``.
    """
    if Xc is None:
        return X.T[dims[:, None], idx]
    block = np.empty((dims.size, idx.size), dtype=X.dtype)
    for r, j in enumerate(dims.tolist()):
        # idx comes from flatnonzero, so it is in range; mode="clip"
        # writes straight into block[r] ("raise" buffers a copy first)
        np.take(Xc[j], idx, out=block[r], mode="clip")
    return block


def cluster_dispersions_and_sizes(
    X: np.ndarray, labels: np.ndarray,
    dim_sets: Sequence[Sequence[int]], *,
    Xc: Optional[np.ndarray] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Per-cluster dispersion ``w_i`` and size ``|C_i|`` in one pass.

    One membership index per cluster serves both quantities — the
    objective needs the sizes anyway.  Empty clusters get ``w_i = 0.0``
    (they contribute nothing to the objective but are flagged as bad
    medoids by the caller).  ``Xc`` is ``column_major(X)`` when the
    caller holds it (the hill climb makes it once per phase); one-shot
    callers leave it ``None`` and the members are gathered from ``X``
    itself, with identical results.  ``labels`` of another length than
    ``X`` raise :class:`~repro.exceptions.DataError`.
    """
    X = as_working(X)  # validated once per phase by the caller
    labels = np.asarray(labels)
    check_same_length(X, labels, names=("X", "labels"))
    k = len(dim_sets)
    _check_labels(labels, k)
    dispersions: Dict[int, float] = {}
    sizes: Dict[int, int] = {}
    for i in range(k):
        dims = np.asarray(list(dim_sets[i]), dtype=np.intp)
        if dims.size == 0:
            raise ParameterError(f"cluster {i} has an empty dimension set")
        idx = np.flatnonzero(labels == i)
        sizes[i] = idx.size
        if idx.size == 0:
            dispersions[i] = 0.0
            continue
        block = _members_block(X, Xc, dims, idx)
        # the objective steers the hill climb's accept/reject decisions,
        # so its long reductions accumulate in float64 for any working
        # dtype (bit-identical for float64 input; for float32 the diffs
        # stay float32 but the sums do not lose mass to cancellation).
        # block.T has the column-major layout of X[members][:, dims], and
        # the in-place |block - centroid| keeps that memory order, so
        # both means sum in the order they did on that gather
        centroid = block.T.mean(axis=0, dtype=np.float64).astype(
            block.dtype, copy=False)
        np.subtract(block, centroid[:, None], out=block)
        np.abs(block, out=block)
        dispersions[i] = float(block.mean(dtype=np.float64))
    return dispersions, sizes


def cluster_dispersions(X: np.ndarray, labels: np.ndarray,
                        dim_sets: Sequence[Sequence[int]]) -> Dict[int, float]:
    """Per-cluster segmental dispersion ``w_i`` about the centroid."""
    X = check_array(X, name="X")
    dispersions, _ = cluster_dispersions_and_sizes(X, labels, dim_sets)
    return dispersions


def evaluate_clusters(X: np.ndarray, labels: np.ndarray,
                      dim_sets: Sequence[Sequence[int]], *,
                      Xc: Optional[np.ndarray] = None) -> float:
    """The paper's objective: size-weighted mean dispersion, lower is better.

    ``X`` is not validated here: the hill climb validates it once per
    phase, and the :mod:`repro.core` export validates it first.  ``Xc``
    is :func:`column_major` of ``X``, passed by the hill climb so one
    copy serves every vertex.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        raise ParameterError("cannot evaluate an empty clustering")
    dispersions, sizes = cluster_dispersions_and_sizes(X, labels, dim_sets,
                                                       Xc=Xc)
    total = 0.0
    for i, w in dispersions.items():
        total += sizes[i] * w
    return total / n
