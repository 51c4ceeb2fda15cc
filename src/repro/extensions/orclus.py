"""ORCLUS: arbitrarily ORiented projected CLUSter generation.

A from-scratch implementation of Aggarwal & Yu (SIGMOD 2000), the
successor the PROCLUS paper's future-work section points toward.  Where
PROCLUS restricts each cluster's subspace to a subset of the coordinate
axes, ORCLUS associates with each cluster an arbitrary orthonormal
basis — the directions in which the cluster is *least* spread out —
found by eigen-decomposition of the cluster's covariance matrix.

Algorithm sketch (notation follows the ORCLUS paper):

* start from ``k0 = seed_factor * k`` random seeds with full-space
  bases;
* repeat until ``k_c == k`` and ``l_c == l``:

  - **assign** every point to the seed minimising the *projected
    distance* ``||E_i^T (x - s_i)||`` in that seed's current subspace;
  - **recompute** each seed as its cluster centroid and each basis as
    the eigenvectors of the cluster covariance with the ``l_c``
    smallest eigenvalues;
  - **merge** clusters down to ``k_c = max(k, alpha * k_c)``: greedily
    join the pair whose union has the least *projected energy* (mean
    squared projected distance to the union centroid in the union's own
    best subspace);
  - shrink ``l_c`` geometrically so dimensionality reaches ``l`` in the
    same number of passes as the cluster count reaches ``k``.

* a final assignment pass fixes the output partition; points whose
  projected distance to every seed exceeds ``outlier_factor`` times the
  cluster's own energy radius can optionally be labelled outliers.

The implementation keeps per-cluster sufficient statistics so merging
candidates are evaluated from covariances without re-touching points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..data.dataset import Dataset, OUTLIER_LABEL
from ..exceptions import NotFittedError, ParameterError
from ..rng import SeedLike, ensure_rng
from ..validation import check_array, check_positive_int

__all__ = ["OrclusResult", "Orclus", "orclus"]


@dataclass
class OrclusResult:
    """A fitted ORCLUS clustering.

    ``bases[i]`` is a ``(d, l)`` orthonormal matrix spanning cluster
    ``i``'s subspace (the directions of least spread).
    """

    labels: np.ndarray
    centroids: np.ndarray
    bases: List[np.ndarray]
    energy: float
    n_merge_phases: int
    seconds: float = 0.0

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.shape[0])

    @property
    def n_outliers(self) -> int:
        """Number of points labelled as outliers."""
        return int(np.count_nonzero(self.labels == OUTLIER_LABEL))

    def cluster_sizes(self) -> Dict[int, int]:
        """Mapping cluster id -> member count."""
        return {i: int(np.count_nonzero(self.labels == i))
                for i in range(self.k)}

    def subspace_dimensionality(self) -> int:
        """The common output subspace dimensionality ``l``."""
        return int(self.bases[0].shape[1]) if self.bases else 0


def _projected_distances(X: np.ndarray, centroid: np.ndarray,
                         basis: np.ndarray) -> np.ndarray:
    """``||E^T (x - c)||`` for every row x — distance inside the subspace."""
    proj = (X - centroid) @ basis
    return np.sqrt(np.einsum("ij,ij->i", proj, proj))


def _least_spread_basis(cov: np.ndarray, l: int) -> Tuple[np.ndarray, float]:
    """Eigenvectors of the ``l`` smallest eigenvalues, plus their energy."""
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending order
    basis = eigvecs[:, :l]
    energy = float(np.clip(eigvals[:l], 0.0, None).sum())
    return basis, energy


@dataclass
class _ClusterStats:
    """Sufficient statistics: count, sum, and sum of outer products."""

    n: int
    s: np.ndarray
    ss: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray) -> "_ClusterStats":
        return cls(n=X.shape[0], s=X.sum(axis=0), ss=X.T @ X)

    def merged(self, other: "_ClusterStats") -> "_ClusterStats":
        return _ClusterStats(n=self.n + other.n, s=self.s + other.s,
                             ss=self.ss + other.ss)

    @property
    def centroid(self) -> np.ndarray:
        return self.s / self.n

    def covariance(self) -> np.ndarray:
        c = self.centroid
        return self.ss / self.n - np.outer(c, c)


def orclus(X: Union[np.ndarray, Dataset], k: int, l: int, *,
           seed_factor: int = 5, alpha: float = 0.5,
           max_passes: int = 50, outlier_factor: Optional[float] = None,
           seed: SeedLike = None) -> OrclusResult:
    """Run ORCLUS and return an :class:`OrclusResult`.

    Parameters
    ----------
    X:
        Data matrix ``(N, d)`` or a Dataset.
    k, l:
        Target cluster count and per-cluster subspace dimensionality
        (``1 <= l < d``; note ORCLUS's ``l`` counts *retained least-
        spread directions*, the analogue of PROCLUS's dimension sets).
    seed_factor:
        ``k0 = seed_factor * k`` initial seeds.
    alpha:
        Cluster-count decay per merge phase (ORCLUS paper default 0.5).
    outlier_factor:
        When set, the final pass labels a point an outlier if its
        projected distance to every centroid exceeds ``outlier_factor``
        times that cluster's RMS projected radius.
    """
    if isinstance(X, Dataset):
        X = X.points
    X = check_array(X, name="X")
    n, d = X.shape
    k = check_positive_int(k, name="k", minimum=1, maximum=n)
    l = check_positive_int(l, name="l", minimum=1, maximum=d - 1)
    check_positive_int(seed_factor, name="seed_factor", minimum=1)
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1); got {alpha}")
    rng = ensure_rng(seed)
    t0 = time.perf_counter()

    k_current = min(seed_factor * k, n)
    centroid_idx = rng.choice(n, size=k_current, replace=False)
    centroids = X[centroid_idx].copy()
    bases = [np.eye(d) for _ in range(k_current)]
    l_current = d

    # geometric dimensionality decay synchronised with cluster decay:
    # both reach their targets after the same number of phases.
    import math
    n_phases = max(1, math.ceil(math.log(max(k_current / k, 1.0001))
                                / math.log(1 / alpha)))
    beta = (l / d) ** (1.0 / n_phases)

    labels = np.zeros(n, dtype=np.int64)
    merge_phases = 0
    for _ in range(max_passes):
        # ---- assign --------------------------------------------------
        dist = np.empty((n, k_current))
        for i in range(k_current):
            dist[:, i] = _projected_distances(X, centroids[i], bases[i])
        labels = np.argmin(dist, axis=1).astype(np.int64)

        # ---- recompute centroids, bases ------------------------------
        stats: List[_ClusterStats] = []
        for i in range(k_current):
            members = X[labels == i]
            if members.shape[0] == 0:
                # re-seed an empty cluster at the worst-assigned point
                worst = int(np.argmax(dist[np.arange(n), labels]))
                members = X[worst:worst + 1]
            stats.append(_ClusterStats.of(members))
        l_next = max(l, int(round(l_current * beta)))
        centroids = np.vstack([st.centroid for st in stats])
        bases = []
        for st in stats:
            basis, _ = _least_spread_basis(st.covariance(), l_next)
            bases.append(basis)
        l_current = l_next

        if k_current == k and l_current == l:
            break

        # ---- merge ----------------------------------------------------
        k_target = max(k, int(alpha * k_current))
        if k_target < k_current:
            merge_phases += 1
            while k_current > k_target:
                best_pair, best_energy = None, np.inf
                for a in range(k_current):
                    for b in range(a + 1, k_current):
                        union = stats[a].merged(stats[b])
                        _, energy = _least_spread_basis(
                            union.covariance(), l_current,
                        )
                        if energy < best_energy:
                            best_energy = energy
                            best_pair = (a, b)
                a, b = best_pair
                stats[a] = stats[a].merged(stats[b])
                del stats[b]
                k_current -= 1
            centroids = np.vstack([st.centroid for st in stats])
            bases = []
            for st in stats:
                basis, _ = _least_spread_basis(st.covariance(), l_current)
                bases.append(basis)

    # ---- final assignment (and optional outliers) ----------------------
    dist = np.empty((n, k_current))
    for i in range(k_current):
        dist[:, i] = _projected_distances(X, centroids[i], bases[i])
    labels = np.argmin(dist, axis=1).astype(np.int64)
    total_energy = float(
        np.mean(dist[np.arange(n), labels] ** 2)
    )
    if outlier_factor is not None:
        radii = np.empty(k_current)
        for i in range(k_current):
            members = dist[labels == i, i]
            radii[i] = np.sqrt(np.mean(members ** 2)) if members.size else 0.0
        cutoff = radii[None, :] * outlier_factor
        outliers = np.all(dist > cutoff, axis=1)
        labels[outliers] = OUTLIER_LABEL

    return OrclusResult(
        labels=labels,
        centroids=centroids,
        bases=bases,
        energy=total_energy,
        n_merge_phases=merge_phases,
        seconds=time.perf_counter() - t0,
    )


class Orclus:
    """Estimator wrapper around :func:`orclus`."""

    def __init__(self, k: int, l: int, *, seed_factor: int = 5,
                 alpha: float = 0.5, max_passes: int = 50,
                 outlier_factor: Optional[float] = None,
                 seed: SeedLike = None):
        self.k = k
        self.l = l
        self.seed_factor = seed_factor
        self.alpha = alpha
        self.max_passes = max_passes
        self.outlier_factor = outlier_factor
        self.seed = seed
        self.result_: Optional[OrclusResult] = None

    def fit(self, X: Union[np.ndarray, Dataset]) -> "Orclus":
        """Run ORCLUS; returns self with ``result_`` populated."""
        self.result_ = orclus(
            X, self.k, self.l, seed_factor=self.seed_factor,
            alpha=self.alpha, max_passes=self.max_passes,
            outlier_factor=self.outlier_factor, seed=self.seed,
        )
        return self

    def fit_predict(self, X: Union[np.ndarray, Dataset]) -> np.ndarray:
        """Run ORCLUS and return the label array."""
        return self.fit(X).result_.labels

    @property
    def labels_(self) -> np.ndarray:
        """Labels from the last fit."""
        if self.result_ is None:
            raise NotFittedError("call fit() before accessing results")
        return self.result_.labels
