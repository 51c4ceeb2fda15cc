"""A literal transcription of PROCLUS (paper §2) for one restart.

This module is a test oracle, not a second implementation to run: it
follows the paper's pseudo-code (Figures 2-6 and §2.3) step by step in
float64, with no cache, no row blocking, no column-major copies and no
batching across medoids.  Every loop over medoids, dimensions and
clusters is written out; only a reduction over one vector or one
matrix (a sum, ``mean``, ``std(ddof=1)``, ``argmin``) is left to numpy.

Readings of the paper that its text leaves open, encoded here as the
fit encodes them (``DESIGN.md`` §5 gives the supporting text):

* the locality ``L_i`` is every point within distance ``<= delta_i`` of
  ``m_i``, the medoid's own row excluded; when fewer than 2 points
  qualify, the 2 nearest other points stand in;
* the bad medoids are the medoid of the smallest cluster, always, and
  the medoid of every cluster smaller than ``(N / k) * minDeviation``;
* ties go to the first index: the first farthest point in the greedy
  step, the first nearest medoid in assignment, and the dimension with
  the lower row-major index when two Z-scores are equal;
* ``A = 30`` and ``B = 5`` by default (ELKI's ``k_i`` = 30; Expor's
  ``m_i`` = 10).

The random streams are consumed in the fit's order: two children
spawned from the seed, then ``choice`` of the sample and ``integers``
for the greedy start on the first, ``choice`` of the first medoids and
one ``shuffle`` per replacement on the second.  On integer-valued data
every distance, locality statistic and segmental distance is an exact
sum followed by at most one rounding, so the fit must reproduce this
oracle's medoids, dimensions, labels and stopping reason exactly; only
the objective, a mean of inexact terms, may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.rng import ensure_rng, spawn

OUTLIER = -1


@dataclass
class ReferenceResult:
    """What one restart of the reference PROCLUS returns."""

    medoid_indices: np.ndarray
    dimensions: List[Tuple[int, ...]]
    labels: np.ndarray
    objective: float
    iterative_objective: float
    objective_history: List[float]
    terminated_by: str


# ---------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------
def full_distances(X: np.ndarray, p: np.ndarray, metric: str) -> np.ndarray:
    """``d(x, p)`` for every row ``x`` of ``X`` (the paper's ``d(.,.)``)."""
    diff = np.abs(X - p)
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=1))
    if metric == "manhattan":
        return diff.sum(axis=1)
    raise ValueError(f"the reference knows euclidean and manhattan, not {metric}")


def segmental_distances(X: np.ndarray, p: np.ndarray,
                        dims: Tuple[int, ...]) -> np.ndarray:
    """Manhattan segmental distance ``sum_{j in D} |x_j - p_j| / |D|``."""
    total = np.zeros(X.shape[0])
    for j in dims:
        total += np.abs(X[:, j] - p[j])
    return total / len(dims)


# ---------------------------------------------------------------------
# initialization (§2.1, Figure 3)
# ---------------------------------------------------------------------
def greedy(S: np.ndarray, count: int, metric: str,
           rng: np.random.Generator) -> List[int]:
    """Gonzalez farthest-point selection from a random first point."""
    first = int(rng.integers(S.shape[0]))
    chosen = [first]
    dist = full_distances(S, S[first], metric)
    dist[first] = -np.inf
    for _ in range(1, count):
        nxt = int(np.argmax(dist))  # first farthest point
        chosen.append(nxt)
        dist = np.minimum(dist, full_distances(S, S[nxt], metric))
        dist[nxt] = -np.inf
    return chosen


def initialize(X: np.ndarray, k: int, A: int, B: int, metric: str,
               rng: np.random.Generator) -> np.ndarray:
    """The candidate medoids ``M``: greedy over a random sample of ``A*k``."""
    n = X.shape[0]
    sample = rng.choice(n, size=min(A * k, n), replace=False)
    picks = greedy(X[sample], B * k, metric, rng)
    return np.array([sample[i] for i in picks], dtype=np.intp)


# ---------------------------------------------------------------------
# FindDimensions (Figure 4)
# ---------------------------------------------------------------------
def localities(X: np.ndarray, medoids: np.ndarray,
               metric: str) -> List[np.ndarray]:
    """``L_i``: the points within ``delta_i`` of ``m_i`` (medoid excluded)."""
    k = len(medoids)
    result = []
    for i in range(k):
        dist = full_distances(X, X[medoids[i]], metric)
        delta = min(dist[medoids[j]] for j in range(k) if j != i)
        members = [p for p in range(X.shape[0])
                   if p != medoids[i] and dist[p] <= delta]
        if len(members) < 2:
            order = np.argsort(dist, kind="stable")
            members = [int(p) for p in order if p != medoids[i]][:2]
        result.append(np.array(members, dtype=np.intp))
    return result


def average_distances(X: np.ndarray, medoids: np.ndarray,
                      groups: List[np.ndarray]) -> np.ndarray:
    """``X_{i,j}``: the mean ``|x_j - m_{i,j}|`` over the points of group ``i``."""
    k, d = len(medoids), X.shape[1]
    stats = np.empty((k, d))
    for i in range(k):
        m = X[medoids[i]]
        for j in range(d):
            stats[i, j] = np.abs(X[groups[i], j] - m[j]).mean()
    return stats


def allocate(stats: np.ndarray, total: int) -> List[Tuple[int, ...]]:
    """Z-scores, then the paper's greedy: 2 per medoid, the rest globally."""
    k, d = stats.shape
    z = np.zeros((k, d))
    for i in range(k):
        y = stats[i].mean()
        sigma = stats[i].std(ddof=1)
        if sigma > 0:
            for j in range(d):
                z[i, j] = (stats[i, j] - y) / sigma
    chosen: List[set] = [set() for _ in range(k)]
    for i in range(k):
        by_z = sorted(range(d), key=lambda j: (z[i, j], j))
        chosen[i].update(by_z[:2])
    remaining = total - 2 * k
    for _, i, j in sorted((z[i, j], i, j) for i in range(k) for j in range(d)):
        if remaining == 0:
            break
        if j not in chosen[i]:
            chosen[i].add(j)
            remaining -= 1
    return [tuple(sorted(s)) for s in chosen]


# ---------------------------------------------------------------------
# AssignPoints (Figure 5) and EvaluateClusters (Figure 6)
# ---------------------------------------------------------------------
def assign(X: np.ndarray, medoids: np.ndarray,
           dims: List[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """Labels by nearest segmental distance (first medoid on ties)."""
    dist = np.array([segmental_distances(X, X[medoids[i]], dims[i])
                     for i in range(len(medoids))])
    return np.argmin(dist, axis=0).astype(np.int64), dist


def evaluate(X: np.ndarray, labels: np.ndarray,
             dims: List[Tuple[int, ...]]) -> float:
    """``sum_i |C_i| * w_i / N``; ``w_i`` averages ``Y_{i,j}`` over ``D_i``."""
    total = 0.0
    for i in range(len(dims)):
        members = np.flatnonzero(labels == i)
        if members.size == 0:
            continue
        w = 0.0
        for j in dims[i]:
            values = X[members, j]
            w += np.abs(values - values.mean()).mean()
        total += members.size * (w / len(dims[i]))
    return total / labels.shape[0]


def bad_medoids(labels: np.ndarray, k: int, min_deviation: float) -> List[int]:
    """The smallest cluster's medoid, plus any cluster below the threshold."""
    sizes = [int(np.count_nonzero(labels == i)) for i in range(k)]
    threshold = labels.shape[0] / k * min_deviation
    bad = {i for i in range(k) if sizes[i] < threshold}
    bad.add(sizes.index(min(sizes)))
    return sorted(bad)


# ---------------------------------------------------------------------
# the algorithm (Figure 2, §2.3)
# ---------------------------------------------------------------------
def proclus_reference(X: np.ndarray, k: int, l: float, *, seed: int,
                      metric: str = "euclidean", A: int = 30, B: int = 5,
                      min_deviation: float = 0.1, max_bad_tries: int = 20,
                      max_iterations: int = 300,
                      handle_outliers: bool = True) -> ReferenceResult:
    """One restart of PROCLUS on ``X``, step by step."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    total = int(round(k * l))
    rng_init, rng_iter = spawn(ensure_rng(seed), 2)

    # Initialization phase
    M = initialize(X, k, A, B, metric, rng_init)

    # Iterative phase
    current = rng_iter.choice(M, size=k, replace=False)
    best_objective = np.inf
    best = current.copy()
    best_dims: List[Tuple[int, ...]] = []
    best_labels = np.zeros(n, dtype=np.int64)
    bad = list(range(k))
    history: List[float] = []
    tries = 0
    terminated_by = "max_iterations"
    for _ in range(max_iterations):
        L = localities(X, current, metric)
        dims = allocate(average_distances(X, current, L), total)
        labels, _ = assign(X, current, dims)
        objective = evaluate(X, labels, dims)
        history.append(objective)
        if objective < best_objective:
            best_objective, best = objective, current.copy()
            best_dims, best_labels = dims, labels
            bad = bad_medoids(labels, k, min_deviation)
            tries = 0
        else:
            tries += 1
        if tries >= max_bad_tries:
            terminated_by = "no_improvement"
            break
        # replace the bad medoids of the best set by random points of M
        available = np.array(sorted(set(M.tolist()) - set(best.tolist())),
                             dtype=np.intp)
        rng_iter.shuffle(available)
        current = best.copy()
        for slot, position in enumerate(bad):
            if slot < available.size:
                current[position] = available[slot]
        if sorted(current.tolist()) == sorted(best.tolist()):
            terminated_by = "pool_exhausted"
            break

    # Refinement phase: clusters replace localities
    groups, empty = [], []
    for i in range(k):
        members = np.flatnonzero(best_labels == i)
        if members.size == 0:
            empty.append(i)
            # nearest 2 other points, by mean |x - m| over all dimensions
            near = segmental_distances(X, X[best[i]], tuple(range(X.shape[1])))
            near[best[i]] = np.inf
            members = np.argsort(near, kind="stable")[:2]
        groups.append(members)
    dims = allocate(average_distances(X, best, groups), total)
    for i in empty:
        dims[i] = best_dims[i]
    labels, dist = assign(X, best, dims)
    if handle_outliers:
        # sphere of influence: the nearest other medoid, measured in D_i
        spheres = []
        for i in range(k):
            to_others = segmental_distances(X[best], X[best[i]], dims[i])
            spheres.append(min(to_others[j] for j in range(k) if j != i))
        for p in range(n):
            if all(dist[i, p] > spheres[i] for i in range(k)):
                labels[p] = OUTLIER
    return ReferenceResult(
        medoid_indices=best,
        dimensions=dims,
        labels=labels,
        objective=evaluate(X, labels, dims),
        iterative_objective=float(best_objective),
        objective_history=history,
        terminated_by=terminated_by,
    )
