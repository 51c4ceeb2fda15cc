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

Labels outside ``{-1, 0..k-1}`` are rejected with a
:class:`~repro.exceptions.ParameterError`: they would silently drop
from every numerator while still inflating the denominator, skewing the
objective without any visible failure.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..data.dataset import OUTLIER_LABEL
from ..dtypes import as_working
from ..exceptions import ParameterError
from ..validation import check_array

__all__ = ["evaluate_clusters", "cluster_dispersions",
           "cluster_dispersions_and_sizes"]


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


def cluster_dispersions_and_sizes(
    X: np.ndarray, labels: np.ndarray,
    dim_sets: Sequence[Sequence[int]],
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Per-cluster dispersion ``w_i`` and size ``|C_i|`` in one pass.

    One membership mask per cluster serves both quantities — the
    objective needs the sizes anyway, and rebuilding ``labels == i``
    a second time doubled the label-scan cost of every evaluation in
    the hill climb.  Empty clusters get ``w_i = 0.0`` (they contribute
    nothing to the objective but are flagged as bad medoids by the
    caller).
    """
    X = as_working(X)  # validated once per phase by the caller
    labels = np.asarray(labels)
    k = len(dim_sets)
    _check_labels(labels, k)
    dispersions: Dict[int, float] = {}
    sizes: Dict[int, int] = {}
    for i in range(k):
        dims = np.asarray(list(dim_sets[i]), dtype=np.intp)
        if dims.size == 0:
            raise ParameterError(f"cluster {i} has an empty dimension set")
        members = labels == i
        size = int(np.count_nonzero(members))
        sizes[i] = size
        if size == 0:
            dispersions[i] = 0.0
            continue
        # the members' D_i entries, read as rows of the transposed view
        # (as the segmental kernel does) without copying whole rows
        # first; .T leaves it column-major, the layout of
        # X[members][:, dims], so the means below sum in the same order
        sub = X.T[dims[:, None], np.flatnonzero(members)].T
        # the objective steers the hill climb's accept/reject decisions,
        # so its long reductions accumulate in float64 for any working
        # dtype (bit-identical for float64 input; for float32 the diffs
        # stay float32 but the sums do not lose mass to cancellation)
        centroid = sub.mean(axis=0, dtype=np.float64).astype(sub.dtype,
                                                            copy=False)
        dispersions[i] = float(np.abs(sub - centroid).mean(dtype=np.float64))
    return dispersions, sizes


def cluster_dispersions(X: np.ndarray, labels: np.ndarray,
                        dim_sets: Sequence[Sequence[int]]) -> Dict[int, float]:
    """Per-cluster segmental dispersion ``w_i`` about the centroid."""
    X = check_array(X, name="X")
    dispersions, _ = cluster_dispersions_and_sizes(X, labels, dim_sets)
    return dispersions


def evaluate_clusters(X: np.ndarray, labels: np.ndarray,
                      dim_sets: Sequence[Sequence[int]]) -> float:
    """The paper's objective: size-weighted mean dispersion, lower is better.

    ``X`` is not validated here: the hill climb validates it once per
    phase, and the :mod:`repro.core` export validates it first.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        raise ParameterError("cannot evaluate an empty clustering")
    dispersions, sizes = cluster_dispersions_and_sizes(X, labels, dim_sets)
    total = 0.0
    for i, w in dispersions.items():
        total += sizes[i] * w
    return total / n
