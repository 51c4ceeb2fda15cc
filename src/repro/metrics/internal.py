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

from typing import Mapping, Sequence

import numpy as np

from ..core.objective import evaluate_clusters
from ..data.dataset import OUTLIER_LABEL
from ..distance.segmental import segmental_distances_to_point
from ..exceptions import DataError
from ..validation import check_array

__all__ = ["projected_objective", "segmental_silhouette"]


def projected_objective(X, labels, dimensions: Mapping[int, Sequence[int]]) -> float:
    """The paper's objective for any labeling + dimension assignment."""
    X = check_array(X, name="X")
    k = (max(dimensions) + 1) if dimensions else 0
    dim_sets = [tuple(dimensions[i]) for i in range(k)]
    return evaluate_clusters(X, labels, dim_sets)


def segmental_silhouette(X, labels, dimensions: Mapping[int, Sequence[int]]) -> float:
    """Mean silhouette in the per-cluster subspaces; in [-1, 1].

    Outlier-labelled points are ignored.  Clusters with a single member
    contribute silhouette 0 (the standard convention).
    """
    X = check_array(X, name="X")
    labels = np.asarray(labels)
    ids = sorted(int(i) for i in np.unique(labels) if i != OUTLIER_LABEL)
    if len(ids) < 2:
        raise DataError("segmental silhouette needs at least 2 clusters")

    centroids = {}
    for cid in ids:
        members = labels == cid
        if not members.any():
            continue
        centroids[cid] = X[members].mean(axis=0)

    # distance of every point to every cluster's centroid in that
    # cluster's own dimensions
    dist = np.full((X.shape[0], len(ids)), np.inf)
    for col, cid in enumerate(ids):
        if cid not in centroids:
            continue
        dims = tuple(dimensions[cid])
        dist[:, col] = segmental_distances_to_point(X, centroids[cid], dims)

    scores = []
    col_of = {cid: col for col, cid in enumerate(ids)}
    for cid in ids:
        members = np.flatnonzero(labels == cid)
        if members.size == 0:
            continue
        if members.size == 1:
            scores.append(0.0)
            continue
        a = dist[members, col_of[cid]]
        other_cols = [col_of[c] for c in ids if c != cid]
        b = dist[members][:, other_cols].min(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0, (b - a) / denom, 0.0)
        scores.extend(s.tolist())
    return float(np.mean(scores)) if scores else 0.0
