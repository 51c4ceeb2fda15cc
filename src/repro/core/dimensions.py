"""Locality analysis and dimension selection (paper Figure 4).

Given medoids ``m_1..m_k``:

* ``delta_i = min_{j != i} d(m_i, m_j)`` and the *locality* ``L_i`` is
  the set of points within ``delta_i`` of ``m_i``;
* ``X_{i,j}`` is the average distance along dimension ``j`` from the
  points of ``L_i`` to ``m_i``;
* ``Y_i`` is the row mean of ``X_{i,.}`` and ``sigma_i`` its sample
  standard deviation; ``Z_{i,j} = (X_{i,j} - Y_i) / sigma_i``;
* the ``k*l`` most negative ``Z_{i,j}`` are selected subject to "at
  least 2 per medoid" — a separable convex resource-allocation problem
  (ref [16]) solved exactly by the paper's greedy: preallocate the 2
  smallest per row, then take the remaining ``k*(l-2)`` smallest overall.

Degenerate cases handled beyond the paper's pseudocode (all tested):

* a locality smaller than 2 points (coincident/crowded medoids) falls
  back to the nearest ``min_locality_size`` points, so statistics are
  always defined;
* ``sigma_i == 0`` (perfectly isotropic locality) yields a zero Z-row,
  i.e. no dimension of that medoid looks special — ties are broken by
  the global sort;
* ``exclude_dims`` (the robustness layer's constant-dimension fallback)
  soft-excludes dimensions from the ranking: a zero-variance dimension
  has average distance 0 everywhere, which would otherwise make it look
  maximally "tight" to every cluster.  Excluded dimensions sort last
  (``+inf`` Z-score) rather than dividing by ``sigma_i = 0`` — they are
  only picked when nothing else can satisfy the per-cluster floor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distance.base import Metric
from ..distance.matrix import cross_distances, per_dimension_average_distance
from ..distance.segmental import segmental_distances_to_point
from ..dtypes import as_working, to_float64
from ..exceptions import ParameterError
from ..perf.cache import IterativeCache
from ..validation import check_array, check_same_length

__all__ = [
    "compute_localities",
    "dimension_statistics",
    "zscores",
    "allocate_dimensions",
    "find_dimensions",
    "find_dimensions_from_clusters",
]

DimensionSets = List[Tuple[int, ...]]


def compute_localities(X: np.ndarray, medoid_indices: np.ndarray, *,
                       metric: Union[str, Metric] = "euclidean",
                       min_locality_size: int = 2,
                       cache: Optional[IterativeCache] = None) -> Tuple[List[np.ndarray], np.ndarray]:
    """Locality point-index sets and radii for each medoid.

    Returns
    -------
    (localities, deltas):
        ``localities[i]`` holds indices (into ``X``) of the points whose
        full-dimensional distance to medoid ``i`` is at most ``delta_i``,
        the medoid itself excluded.  ``deltas[i]`` is the radius.  When
        fewer than ``min_locality_size`` points qualify, the nearest
        ``min_locality_size`` non-medoid points are used instead.

    The members come from :meth:`IterativeCache.localities
    <repro.perf.cache.IterativeCache.localities>` of ``cache``, or of a
    call-local :class:`~repro.perf.cache.IterativeCache` when none is
    given: a new medoid's one pass over ``|X - m|`` yields its distance
    column, its members and its statistics row, and a shared cache
    reuses the columns and member sets of medoids unchanged since the
    previous vertex.
    ``X`` is not validated here: the hill climb validates it once per
    phase, and the :mod:`repro.core` export validates it first.
    """
    X = as_working(X)
    medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
    if medoid_indices.size < 2:
        raise ParameterError("localities need at least 2 medoids")
    medoids = X[medoid_indices]
    med_dist = cross_distances(medoids, medoids, metric)
    np.fill_diagonal(med_dist, np.inf)
    deltas = med_dist.min(axis=1)
    if cache is None:
        cache = IterativeCache()
    columns = cache.distance_columns(X, medoid_indices, metric,
                                     deltas=deltas,
                                     min_size=min_locality_size)
    localities = cache.localities(columns, medoid_indices, metric,
                                  deltas=deltas, min_size=min_locality_size)
    return localities, deltas


def dimension_statistics(X: np.ndarray, medoids: np.ndarray,
                         localities: Sequence[np.ndarray]) -> np.ndarray:
    """The matrix ``X_{i,j}`` of per-dimension average distances.

    ``medoids`` is ``(k, d)``; ``localities[i]`` indexes into ``X``.
    """
    X = as_working(X)
    medoids = np.atleast_2d(np.asarray(medoids, dtype=X.dtype))
    k, d = medoids.shape
    # float64 rows for any working dtype — the statistics feed the
    # Z-score ranking (see per_dimension_average_distance's
    # accumulation policy) and at (k, d) they are tiny
    stats = np.empty((k, d), dtype=np.float64)
    for i in range(k):
        members = np.asarray(localities[i], dtype=np.intp)
        if members.size == 0:
            raise ParameterError(
                f"locality of medoid {i} is empty; use compute_localities "
                "which guarantees a non-empty fallback"
            )
        stats[i] = per_dimension_average_distance(X, medoids[i],
                                                  rows=members)
    return stats


def zscores(stats: np.ndarray) -> np.ndarray:
    """Row-standardised Z-scores ``(X_ij - Y_i) / sigma_i``.

    Uses the paper's sample standard deviation (``ddof=1``).  Rows with
    zero deviation map to all-zero scores.
    """
    stats = to_float64(stats)  # ranking domain: Z-scores are float64
    y = stats.mean(axis=1, keepdims=True)
    if stats.shape[1] < 2:
        raise ParameterError("Z-scores need at least 2 dimensions")
    sigma = stats.std(axis=1, ddof=1, keepdims=True)
    z = np.zeros_like(stats)
    nz = sigma[:, 0] > 0
    z[nz] = (stats[nz] - y[nz]) / sigma[nz]
    return z


def allocate_dimensions(z: np.ndarray, total: int, *,
                        min_per_row: int = 2) -> DimensionSets:
    """Pick the ``total`` most negative entries of ``z`` with a row floor.

    Exactly the paper's greedy for the separable convex resource
    allocation problem: sort all ``Z_{i,j}``, preallocate the
    ``min_per_row`` smallest per row, then take the remaining
    ``total - k*min_per_row`` smallest among the rest.

    Returns a list of sorted dimension tuples, one per row.
    """
    z = to_float64(z)  # ranking domain: allocation sorts float64 scores
    k, d = z.shape
    if min_per_row > d:
        raise ParameterError(
            f"min_per_row={min_per_row} exceeds dimensionality d={d}"
        )
    if total < k * min_per_row:
        raise ParameterError(
            f"total={total} cannot satisfy the floor of {min_per_row} "
            f"dimensions for each of the {k} clusters"
        )
    if total > k * d:
        raise ParameterError(f"total={total} exceeds the k*d={k * d} available")

    chosen = [set() for _ in range(k)]
    # preallocation: the min_per_row smallest Z in each row
    for i in range(k):
        order = np.argsort(z[i], kind="stable")[:min_per_row]
        chosen[i].update(int(j) for j in order)
    remaining = total - k * min_per_row
    if remaining > 0:
        flat_order = np.argsort(z, axis=None, kind="stable")
        for flat in flat_order:
            if remaining == 0:
                break
            i, j = divmod(int(flat), d)
            if j not in chosen[i]:
                chosen[i].add(j)
                remaining -= 1
    return [tuple(sorted(s)) for s in chosen]


def _mask_excluded(z: np.ndarray,
                   exclude_dims: Optional[Sequence[int]]) -> np.ndarray:
    """Push excluded dimensions to the back of the Z-score ranking.

    Soft exclusion: entries become ``+inf`` so the allocator only picks
    them once every other dimension is taken.  Exclusions that would
    leave no rankable dimension are ignored.
    """
    if not exclude_dims:
        return z
    cols = [j for j in sorted(set(int(j) for j in exclude_dims))
            if 0 <= j < z.shape[1]]
    if not cols or len(cols) >= z.shape[1]:
        return z
    z = z.copy()
    z[:, cols] = np.inf
    return z


def find_dimensions(X: np.ndarray, medoid_indices: np.ndarray, l: float, *,
                    metric: Union[str, Metric] = "euclidean",
                    min_per_cluster: int = 2,
                    localities: Optional[Sequence[np.ndarray]] = None,
                    exclude_dims: Optional[Sequence[int]] = None,
                    cache: Optional[IterativeCache] = None,
                    deltas: Optional[np.ndarray] = None) -> DimensionSets:
    """The paper's ``FindDimensions`` for a concrete medoid set.

    Computes localities (unless given), the ``X_{i,j}`` statistics, the
    Z-scores, and the constrained allocation of ``k*l`` dimensions.
    ``exclude_dims`` soft-excludes dimensions from the ranking (see the
    module docstring).  Without ``localities``, they and their
    statistics rows come from one pass per medoid through ``cache`` (a
    call-local :class:`~repro.perf.cache.IterativeCache` when none is
    given).  With ``cache`` and the ``deltas`` that produced
    ``localities``, statistic rows of medoids whose locality is
    unchanged since the previous vertex are reused (bit-identical);
    ``localities`` without ``deltas`` form no cache key, so their rows
    are computed directly.
    ``X`` is not validated here: the hill climb validates it once per
    phase, and the :mod:`repro.core` export validates it first.
    """
    medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
    k = medoid_indices.size
    total = int(round(k * l))
    if localities is None:
        if cache is None:
            cache = IterativeCache()
        localities, deltas = compute_localities(
            X, medoid_indices, metric=metric,
            min_locality_size=max(2, min_per_cluster),
            cache=cache,
        )
    if cache is not None and deltas is not None:
        stats = cache.dimension_stats(
            X, medoid_indices, localities, deltas,
            min_size=max(2, min_per_cluster), metric=metric,
        )
    else:
        stats = dimension_statistics(X, X[medoid_indices], localities)
    z = _mask_excluded(zscores(stats), exclude_dims)
    return allocate_dimensions(z, total, min_per_row=min_per_cluster)


def find_dimensions_from_clusters(X: np.ndarray, labels: np.ndarray,
                                  medoid_indices: np.ndarray, l: float, *,
                                  min_per_cluster: int = 2,
                                  fallback: Optional[DimensionSets] = None,
                                  exclude_dims: Optional[Sequence[int]] = None) -> DimensionSets:
    """Refinement-phase variant: statistics from clusters, not localities.

    For each medoid the distribution of its *assigned cluster* replaces
    the locality (paper section 2.3: "we use C_i instead of L_i").
    A cluster that ended up empty falls back to the corresponding entry
    of ``fallback`` (the iterative-phase dimensions) when provided, or
    to the medoid's nearest 2 points otherwise.  ``labels`` of another
    length than ``X`` raise :class:`~repro.exceptions.DataError`.
    """
    X = check_array(X, name="X")
    labels = np.asarray(labels)
    check_same_length(X, labels, names=("X", "labels"))
    medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
    k = medoid_indices.size
    total = int(round(k * l))

    groups: List[np.ndarray] = []
    empty_rows: List[int] = []
    for i in range(k):
        members = np.flatnonzero(labels == i)
        if members.size == 0:
            empty_rows.append(i)
            # placeholder: nearest 2 points in full space.  Routed
            # through the row-blocked segmental kernel (mean over all
            # d dimensions = full Manhattan sum / d, and dividing by
            # the same positive constant preserves the nearest-2
            # ordering) instead of materialising a whole-matrix
            # |X - medoid| temporary.
            dist = segmental_distances_to_point(
                X, X[medoid_indices[i]], np.arange(X.shape[1])
            )
            dist[medoid_indices[i]] = np.inf
            members = np.argsort(dist, kind="stable")[:2]
        groups.append(members)

    stats = dimension_statistics(X, X[medoid_indices], groups)
    z = _mask_excluded(zscores(stats), exclude_dims)
    sets = allocate_dimensions(z, total, min_per_row=min_per_cluster)
    if fallback is not None:
        for i in empty_rows:
            sets[i] = tuple(sorted(fallback[i]))
    return sets
