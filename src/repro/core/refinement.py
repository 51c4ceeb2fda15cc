"""Refinement phase (paper section 2.3).

One more pass over the data after hill climbing:

1. **Redo dimensions** using the distribution of each *cluster*
   (``C_i``) instead of the medoid's locality (``L_i``) — the clusters
   formed by the iterative phase describe the data better than raw
   localities.
2. **Reassign** all points with the new dimension sets.
3. **Outliers**: medoid ``i``'s *sphere of influence* is
   ``Delta_i = min_{j != i} d_{D_i}(m_i, m_j)`` — the smallest segmental
   distance to another medoid, measured in ``m_i``'s own subspace.  A
   point is an outlier when its segmental distance to *every* medoid
   exceeds that medoid's sphere of influence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import OUTLIER_LABEL
from ..exceptions import ParameterError
from ..dtypes import as_working
from ..obs import get_tracer
from ..perf.kernels import Columns, nearest_medoid
from ..validation import check_array
from .assignment import segmental_distance_columns
from .dimensions import find_dimensions_from_clusters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..perf.cache import IterativeCache

__all__ = ["spheres_of_influence", "detect_outliers", "refine_clusters",
           "RefinementResult"]


@dataclass
class RefinementResult:
    """Final labels, dimensions, and outlier diagnostics."""

    labels: np.ndarray
    dim_sets: List[Tuple[int, ...]]
    spheres: np.ndarray
    n_outliers: int


def spheres_of_influence(medoids: np.ndarray,
                         dim_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """``Delta_i`` for every medoid (segmental, in the medoid's own dims).

    Builds the full ``(k, k)`` medoid-to-medoid segmental matrix (column
    ``i`` measured in ``D_i``), masks the diagonal with ``inf``, and
    takes the column minima.  The earlier per-medoid loop re-materialised
    ``np.delete(np.arange(k), i)`` and an ``(k-1, |D_i|)`` gather through
    the point kernel for every medoid; filling whole columns over all
    ``k`` rows does the same row-independent ``mean(|diff|)`` reduction
    (so the values are bit-identical) with one gather per column and no
    index juggling.  ``k == 1`` falls out naturally: the only entry is
    the masked diagonal, so the sphere is ``inf``.
    """
    medoids = np.atleast_2d(as_working(medoids))
    k = medoids.shape[0]
    if len(dim_sets) != k:
        raise ParameterError(
            f"{len(dim_sets)} dimension sets for {k} medoids")
    # spheres stay in the working dtype so the outlier comparison pits
    # like-rounded segmental means against the assignment columns
    med_dist = np.empty((k, k), dtype=medoids.dtype)
    for i in range(k):
        dims = np.asarray(list(dim_sets[i]), dtype=np.intp)
        if dims.size == 0:
            raise ParameterError(f"medoid {i} has an empty dimension set")
        if k == 2:
            # numpy's mean sums pairwise over a contiguous inner run but
            # sequentially over a strided one; with two medoids the
            # historical (k-1, |D|) gather was a single contiguous row,
            # so reduce a contiguous row here too to keep the same bits.
            med_dist[1 - i, i] = float(
                np.abs(medoids[1 - i, dims] - medoids[i, dims]).mean())
            med_dist[i, i] = 0.0
        else:
            med_dist[:, i] = np.abs(
                medoids[:, dims] - medoids[i, dims]).mean(axis=1)
    np.fill_diagonal(med_dist, np.inf)
    return med_dist.min(axis=0)


def detect_outliers(columns: Columns, spheres: np.ndarray) -> np.ndarray:
    """Boolean mask of points outside every medoid's sphere of influence.

    ``columns[i]`` holds every point's segmental distance to medoid
    ``i`` in ``D_i``: the cache's stored columns, or a column-major
    ``(N, k)`` matrix passed as its columns, ``dist.T``.  The test ANDs
    ``k`` column compares — the same mask as
    ``np.all(dist > spheres, axis=1)``.
    """
    mask = columns[0] > spheres[0]
    for i in range(1, len(columns)):
        mask &= columns[i] > spheres[i]
    return mask


def refine_clusters(X: np.ndarray, labels: np.ndarray,
                    medoid_indices: np.ndarray, l: float, *,
                    fallback_dims: Optional[Sequence[Sequence[int]]] = None,
                    handle_outliers: bool = True,
                    exclude_dims: Optional[Sequence[int]] = None,
                    cache: Optional["IterativeCache"] = None) -> RefinementResult:
    """Run the full refinement pass and return the final clustering.

    Parameters
    ----------
    X, labels, medoid_indices:
        Data, iterative-phase labels, and the best medoid set.
    l:
        Average dimensionality (the dimension budget is ``k*l``).
    fallback_dims:
        Iterative-phase dimension sets, used for clusters that came out
        empty (cannot be analysed).
    handle_outliers:
        The paper always detects outliers here; switchable for ablation.
    exclude_dims:
        Dimensions to soft-exclude from the Z-score ranking (the
        robustness layer's constant-dimension fallback).
    cache:
        Optional :class:`~repro.perf.cache.IterativeCache` (usually the
        one the iterative phase just used): segmental columns of
        medoids whose dimension set survived the cluster-based
        recomputation are reused instead of recomputed.
    """
    X = check_array(X, name="X")
    medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
    fallback = (
        [tuple(d) for d in fallback_dims] if fallback_dims is not None else None
    )
    dims = find_dimensions_from_clusters(
        X, labels, medoid_indices, l, fallback=fallback,
        exclude_dims=exclude_dims,
    )
    medoids = X[medoid_indices]
    columns = segmental_distance_columns(X, medoids, dims, cache=cache,
                                         medoid_indices=medoid_indices)
    new_labels = nearest_medoid(columns)

    spheres = spheres_of_influence(medoids, dims)
    if handle_outliers:
        outlier_mask = detect_outliers(columns, spheres)
        new_labels[outlier_mask] = OUTLIER_LABEL
        n_outliers = int(outlier_mask.sum())
    else:
        n_outliers = 0
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("refinement.outliers_marked", n_outliers)
        tracer.event("refinement_done", n_outliers=n_outliers,
                     spheres_finite=int(np.isfinite(spheres).sum()))

    return RefinementResult(
        labels=new_labels,
        dim_sets=dims,
        spheres=spheres,
        n_outliers=n_outliers,
    )
