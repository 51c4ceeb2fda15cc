"""Internal (ground-truth-free) validity for projected clusterings.

* :func:`projected_objective` re-exposes the paper's EvaluateClusters
  criterion for arbitrary labelings/dimension sets;
* :func:`segmental_silhouette` generalises the silhouette coefficient
  to per-cluster subspaces: cohesion of a point is its Manhattan
  segmental distance to its own cluster's centroid in that cluster's
  dimensions, separation the minimum over other clusters in *their*
  dimensions — consistent with how PROCLUS assigns points.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.objective import evaluate_clusters
from ..data.dataset import OUTLIER_LABEL
from ..distance.segmental import segmental_distances_to_point
from ..exceptions import DataError, ParameterError
from ..validation import (check_array, check_dimension_subset,
                          check_same_length)

__all__ = ["projected_objective", "segmental_silhouette"]


def _dim_sets(dimensions: Mapping[int, Sequence[int]], ids: Iterable[int],
              n_dims: int) -> List[Tuple[int, ...]]:
    """``dimensions[i]`` for each cluster id ``i``, in its given order.

    A missing id, an empty set or an index outside ``[0, n_dims - 1]``
    raises :class:`~repro.exceptions.ParameterError`.
    """
    dim_sets = []
    for cid in ids:
        if cid not in dimensions:
            raise ParameterError(f"dimensions has no entry for cluster {cid}")
        dims = tuple(dimensions[cid])
        check_dimension_subset(dims, n_dims, name=f"dimensions[{cid}]")
        dim_sets.append(dims)
    return dim_sets


def projected_objective(X, labels, dimensions: Mapping[int, Sequence[int]]) -> float:
    """The paper's objective for any labeling + dimension assignment.

    ``dimensions`` maps every cluster id ``0..max id`` to its dimension
    set; a gap, an empty set or an index outside ``X``'s columns raises
    :class:`~repro.exceptions.ParameterError`, and ``labels`` of another
    length than ``X`` raise :class:`~repro.exceptions.DataError`.
    """
    X = check_array(X, name="X")
    check_same_length(X, labels, names=("X", "labels"))
    k = (max(dimensions) + 1) if dimensions else 0
    return evaluate_clusters(X, labels, _dim_sets(dimensions, range(k),
                                                  X.shape[1]))


def segmental_silhouette(X, labels, dimensions: Mapping[int, Sequence[int]]) -> float:
    """Mean silhouette in the per-cluster subspaces; in [-1, 1].

    Outlier-labelled points are ignored.  Clusters with a single member
    contribute silhouette 0 (the standard convention).  Every cluster
    id in ``labels`` needs a dimension set in ``dimensions``; a missing
    one, an empty one or an index outside ``X``'s columns raises
    :class:`~repro.exceptions.ParameterError`, and ``labels`` of another
    length than ``X``, or not integer-valued, raise
    :class:`~repro.exceptions.DataError`.
    """
    X = check_array(X, name="X")
    labels = np.asarray(labels)
    check_same_length(X, labels, names=("X", "labels"))
    # a label such as 0.5 would name cluster int(0.5) == 0, which no
    # label equals: an empty cluster and a NaN centroid
    if labels.dtype.kind not in "biuf" or (
            labels.dtype.kind == "f"
            and not np.array_equal(labels, np.floor(labels))):
        raise DataError("cluster labels must be integers")
    ids = sorted(int(i) for i in np.unique(labels) if i != OUTLIER_LABEL)
    if len(ids) < 2:
        raise DataError("segmental silhouette needs at least 2 clusters")
    dim_sets = _dim_sets(dimensions, ids, X.shape[1])

    # distance of every point to every cluster's centroid in that
    # cluster's own dimensions
    dist = np.empty((X.shape[0], len(ids)))
    for col, (cid, dims) in enumerate(zip(ids, dim_sets)):
        centroid = X[labels == cid].mean(axis=0)
        dist[:, col] = segmental_distances_to_point(X, centroid, dims)

    scores = []
    for col, cid in enumerate(ids):
        members = np.flatnonzero(labels == cid)
        if members.size == 1:
            scores.append(0.0)
            continue
        a = dist[members, col]
        other_cols = [c for c in range(len(ids)) if c != col]
        b = dist[members][:, other_cols].min(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0, (b - a) / denom, 0.0)
        scores.extend(s.tolist())
    return float(np.mean(scores))
