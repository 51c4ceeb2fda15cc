"""Iterative phase: CLARANS-style hill climbing over medoid sets (§2.2).

The search graph's vertices are the k-subsets of the candidate pool
``M``.  From the best vertex found so far, the algorithm repeatedly
replaces that vertex's *bad* medoids with random pool points and keeps
the new vertex iff its objective improves.  Bad medoids are:

* the medoid of the cluster with the fewest points, always; and
* the medoid of any cluster with fewer than ``N/k * min_deviation``
  points — heuristically an outlier medoid, or one of several medoids
  piercing the same natural cluster.

Termination: ``max_bad_tries`` consecutive non-improving vertices, the
``max_iterations`` safety cap (which emits a
:class:`~repro.exceptions.ConvergenceWarning` — the search stopped on
its guard rail, not its criterion), or an expired wall-clock
:class:`~repro.robustness.guards.Deadline` — the latter returns the
best-so-far vertex with ``terminated_by="deadline"`` instead of
raising, so bounded-latency callers always get a usable result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distance.base import Metric
from ..exceptions import ConvergenceWarning, ParameterError
from ..obs import get_tracer, monotonic_s
from ..perf.cache import IterativeCache
from ..rng import SeedLike, ensure_rng
from ..robustness.guards import Deadline
from ..validation import check_array
from .assignment import assign_points
from .dimensions import compute_localities, find_dimensions
from .objective import column_major, evaluate_clusters

__all__ = [
    "find_bad_medoids",
    "replace_bad_medoids",
    "run_iterative_phase",
    "IterationRecord",
    "IterativePhaseResult",
]


@dataclass
class IterationRecord:
    """One vertex visit during hill climbing (for diagnostics/ablations)."""

    iteration: int
    objective: float
    improved: bool
    medoid_indices: Tuple[int, ...]
    bad_positions: Tuple[int, ...]
    locality_sizes: Tuple[int, ...]


@dataclass
class IterativePhaseResult:
    """Outcome of the hill-climbing phase."""

    medoid_indices: np.ndarray
    dim_sets: List[Tuple[int, ...]]
    labels: np.ndarray
    objective: float
    n_iterations: int
    n_improvements: int
    terminated_by: str
    history: List[IterationRecord] = field(default_factory=list)
    seconds: float = 0.0
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def objective_history(self) -> List[float]:
        """Objective of every visited vertex, in visit order."""
        return [rec.objective for rec in self.history]


def find_bad_medoids(labels: np.ndarray, k: int, min_deviation: float) -> List[int]:
    """Positions (0..k-1) of the bad medoids for the current clustering."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    # one O(N) bincount pass instead of k full label scans; outlier
    # labels (-1) are filtered first so the counts match the historical
    # per-cluster count_nonzero loop exactly
    valid = labels[labels >= 0] if labels.size and int(labels.min()) < 0 else labels
    sizes = np.bincount(valid.astype(np.intp, copy=False),
                        minlength=k)[:k]
    threshold = (n / k) * min_deviation
    bad = set(np.flatnonzero(sizes < threshold).tolist())
    bad.add(int(np.argmin(sizes)))  # the smallest cluster is always bad
    return sorted(bad)


def replace_bad_medoids(current: np.ndarray, bad_positions: Sequence[int],
                        pool: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """New medoid-index set with bad positions swapped for fresh pool points.

    Replacement points are drawn uniformly from pool points not in the
    current set, so the result has ``k`` distinct indices and every
    swap moves the vertex.  If the pool is exhausted the bad medoids
    are kept.
    """
    current = np.asarray(current, dtype=np.intp)
    new = current.copy()
    available = np.setdiff1d(pool, current)
    rng.shuffle(available)
    for slot, pos in enumerate(bad_positions):
        if slot >= available.size:
            break  # pool exhausted; keep the old medoid at this position
        new[pos] = available[slot]
    return new


def run_iterative_phase(X: np.ndarray, pool: np.ndarray, k: int, l: float, *,
                        metric: Union[str, Metric] = "euclidean",
                        min_deviation: float = 0.1,
                        max_bad_tries: int = 20,
                        max_iterations: int = 300,
                        seed: SeedLike = None,
                        deadline: Optional[Deadline] = None,
                        exclude_dims: Sequence[int] = (),
                        cache: Optional[IterativeCache] = None) -> IterativePhaseResult:
    """Hill-climb to the best medoid set drawn from ``pool``.

    Parameters mirror :class:`~repro.core.config.ProclusConfig`;
    ``pool`` holds candidate medoid indices into ``X``.  When
    ``deadline`` expires the best vertex found so far is returned with
    ``terminated_by="deadline"`` — the first iteration always runs to
    completion so the result is well-formed.  ``exclude_dims`` is
    forwarded to :func:`~repro.core.dimensions.find_dimensions`.

    Every vertex computes through the incremental per-medoid cache
    (:class:`~repro.perf.cache.IterativeCache`): ``cache=None`` builds
    one with the default memory budget; an instance is used as it is
    (and can be shared with the refinement phase).  Reuse changes only
    the wall clock, never a bit: ``tests/test_reference_proclus.py``
    checks the phase against a literal transcription of the paper.
    """
    t0 = monotonic_s()
    tracer = get_tracer()
    if cache is None:
        cache = IterativeCache()
    X = check_array(X, name="X")
    # one column-major copy serves every vertex's AssignPoints and
    # EvaluateClusters
    Xc = column_major(X)
    pool = np.asarray(pool, dtype=np.intp)
    if pool.size < k:
        raise ParameterError(
            f"medoid pool has {pool.size} points but k={k} are needed"
        )
    rng = ensure_rng(seed)

    current = rng.choice(pool, size=k, replace=False)
    best_obj = np.inf
    best_medoids = current.copy()
    best_dims: List[Tuple[int, ...]] = []
    best_labels = np.zeros(X.shape[0], dtype=np.int64)
    bad_positions: List[int] = list(range(k))
    history: List[IterationRecord] = []
    n_improvements = 0
    tries_without_improvement = 0
    terminated_by = "max_iterations"
    # medoid tuple -> (objective, bad positions, locality sizes) of
    # every scored vertex, so a revisit is not scored again
    scores: Dict[Tuple[int, ...], Tuple[float, List[int],
                                        Tuple[int, ...]]] = {}
    n_revisits = 0

    def out_of_time() -> bool:
        # the first iteration must complete so best_dims/labels are valid
        return (deadline is not None and bool(best_dims)
                and deadline.expired())

    iteration = 0
    with tracer.phase("iterative", k=k, pool_size=int(pool.size)) as phase_span:
        while iteration < max_iterations:
            if out_of_time():
                terminated_by = "deadline"
                if tracer.enabled:
                    tracer.event("deadline_expired", iteration=iteration)
                break
            iteration += 1
            key = tuple(current.tolist())
            scored = scores.get(key)
            if scored is None:
                localities, deltas = compute_localities(X, current,
                                                        metric=metric,
                                                        cache=cache)
                if out_of_time():
                    terminated_by = "deadline"
                    iteration -= 1  # this vertex was never evaluated
                    if tracer.enabled:
                        tracer.event("deadline_expired", iteration=iteration)
                    break
                dims = find_dimensions(
                    X, current, l, metric=metric, localities=localities,
                    exclude_dims=exclude_dims, cache=cache, deltas=deltas,
                )
                labels = assign_points(X, X[current], dims, cache=cache,
                                       medoid_indices=current, Xc=Xc)
                objective = evaluate_clusters(X, labels, dims, Xc=Xc)
                visited_bad = find_bad_medoids(labels, k, min_deviation)
                locality_sizes = tuple(len(loc) for loc in localities)
                scores[key] = (objective, visited_bad, locality_sizes)
            else:
                # a revisit scores what its first visit did, and that
                # objective is >= best_obj, the running minimum, so it
                # cannot improve and needs no labels or dims
                objective, visited_bad, locality_sizes = scored
                n_revisits += 1

            improved = objective < best_obj
            if improved:
                best_obj = objective
                best_medoids = current.copy()
                best_dims = dims
                best_labels = labels
                bad_positions = visited_bad
                n_improvements += 1
                tries_without_improvement = 0
            else:
                tries_without_improvement += 1
                # keep the cache at the best vertex's working set: the
                # swapped-in medoids may be drawn again, but an exact
                # redraw of this vertex is served by ``scores``
                cache.discard_rows(np.setdiff1d(current, best_medoids))
            if tracer.enabled:
                tracer.event("iteration", iteration=iteration,
                             objective=float(objective), improved=improved,
                             n_bad=len(visited_bad))

            history.append(IterationRecord(
                iteration=iteration,
                objective=float(objective),
                improved=improved,
                medoid_indices=tuple(int(i) for i in current),
                bad_positions=tuple(visited_bad),
                locality_sizes=locality_sizes,
            ))

            if tries_without_improvement >= max_bad_tries:
                terminated_by = "no_improvement"
                break
            current = replace_bad_medoids(best_medoids, bad_positions,
                                          pool, rng)
            if tracer.enabled:
                swapped = int(np.count_nonzero(current != best_medoids))
                if swapped:
                    tracer.count("iterative.bad_medoid_swaps", swapped)
                    tracer.event("medoid_swap", n_swapped=swapped,
                                 positions=list(bad_positions))
            if np.array_equal(np.sort(current), np.sort(best_medoids)):
                # pool exhausted: no neighbouring vertex remains to try
                terminated_by = "pool_exhausted"
                break
        tracer.count("iterative.revisits", n_revisits)
        phase_span.set(iterations=iteration, improvements=n_improvements,
                       revisits=n_revisits, terminated_by=terminated_by)

    if terminated_by == "max_iterations":
        warnings.warn(
            f"hill climbing stopped at the max_iterations={max_iterations} "
            f"safety cap after {n_improvements} improvement(s), before "
            f"reaching {max_bad_tries} consecutive non-improving vertices; "
            "the medoid search may not have converged",
            ConvergenceWarning, stacklevel=2,
        )

    return IterativePhaseResult(
        medoid_indices=best_medoids,
        dim_sets=best_dims,
        labels=best_labels,
        objective=float(best_obj),
        n_iterations=iteration,
        n_improvements=n_improvements,
        terminated_by=terminated_by,
        history=history,
        seconds=monotonic_s() - t0,
        cache_stats=cache.stats_dict(),
    )
