"""Graceful-degradation ladder for degenerate PROCLUS inputs.

PROCLUS assumes well-conditioned input: more distinct points than
medoids, a samplable pool, localities with spread in several dimensions.
When those assumptions fail, the library historically raised (or worse,
produced meaningless output).  This module implements the documented
ladder instead:

1. ``k`` >= number of distinct points — reduce ``k`` with a warning;
2. infeasible ``l`` (``l > d``, non-integral ``k*l``) — clamp/round
   with a warning;
3. pool/sample factors larger than the data — clamp so the
   initialization phase can run at all;
4. constant dimensions — exclude them from the Z-score ranking (soft:
   they are only picked if nothing else satisfies the per-cluster
   floor);
5. anything still infeasible (fewer than 2 usable medoids, pool
   exhaustion) — fall back to the full-dimensional
   :mod:`repro.baselines.kmedoids` solution.

Every rung is recorded on ``ProclusResult.warnings`` and flips
``ProclusResult.degraded``; the caller decides whether degradation is
acceptable (``auto_degrade=True``) or errors should propagate.

Imports of :mod:`repro.baselines` and :mod:`repro.core` are deferred to
call time so that :mod:`repro.robustness` stays importable from the
bottom of the dependency stack (:mod:`repro.distance` imports
:mod:`.guards`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..exceptions import DegenerateDataError
from ..rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.result import ProclusResult

__all__ = ["DegradationPlan", "plan_degradation", "distinct_row_count",
           "kmedoids_fallback"]


def distinct_row_count(X: np.ndarray) -> int:
    """Number of distinct rows in ``X``."""
    X = np.asarray(X)
    if X.shape[0] == 0:
        return 0
    return int(np.unique(X, axis=0).shape[0])


@dataclass
class DegradationPlan:
    """Adjusted parameters produced by :func:`plan_degradation`.

    ``use_kmedoids`` signals that PROCLUS cannot run meaningfully even
    after adjustment and the caller should use
    :func:`kmedoids_fallback`.  ``messages`` documents every rung of the
    ladder that fired; ``degraded`` is true iff any did.
    """

    k: int
    l: float
    sample_factor: int
    pool_factor: int
    exclude_dims: Tuple[int, ...] = ()
    use_kmedoids: bool = False
    messages: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any parameter was adjusted or a fallback chosen."""
        return bool(self.messages)


def plan_degradation(X: np.ndarray, k: int, l: float,
                     sample_factor: int, pool_factor: int, *,
                     constant_dims: Tuple[int, ...] = ()) -> DegradationPlan:
    """Walk the ladder and return feasible parameters for ``X``.

    Never raises for degenerate *data* — the worst outcome is
    ``use_kmedoids=True``.  (Shape problems still raise upstream.)
    """
    n, d = X.shape
    plan = DegradationPlan(k=int(k), l=float(l),
                           sample_factor=int(sample_factor),
                           pool_factor=int(pool_factor))

    # Rung 1: k vs distinct points -------------------------------------
    n_distinct = distinct_row_count(X)
    if plan.k >= n_distinct:
        new_k = max(1, n_distinct - 1)
        plan.messages.append(
            f"k={plan.k} >= {n_distinct} distinct point(s); reduced k to "
            f"{new_k}"
        )
        plan.k = new_k
    if plan.k < 2:
        plan.use_kmedoids = True
        plan.k = max(1, plan.k)
        plan.messages.append(
            "fewer than 2 usable medoids; falling back to full-dimensional "
            "k-medoids"
        )
        return plan

    # Rung 2: l feasibility --------------------------------------------
    floor = 2  # the paper's minimum of 2 dimensions per cluster
    if d < floor:
        plan.use_kmedoids = True
        plan.messages.append(
            f"d={d} is below the minimum of {floor} dimensions per "
            "cluster; falling back to full-dimensional k-medoids"
        )
        return plan
    if plan.l > d:
        plan.messages.append(f"l={plan.l:g} > d={d}; clamped l to {d}")
        plan.l = float(d)
    if plan.l < floor:
        plan.messages.append(
            f"l={plan.l:g} is below the per-cluster floor; raised l to {floor}"
        )
        plan.l = float(floor)
    total = plan.k * plan.l
    if abs(total - round(total)) > 1e-9:
        rounded = max(plan.k * floor, min(plan.k * d, int(round(total))))
        plan.l = rounded / plan.k
        plan.messages.append(
            f"k*l was non-integral; rounded the dimension budget to "
            f"{rounded} (l={plan.l:g})"
        )

    # Rung 3: pool/sample clamps ---------------------------------------
    max_factor = max(1, n // plan.k)
    if plan.sample_factor > max_factor or plan.pool_factor > max_factor:
        plan.messages.append(
            f"sample/pool factors ({plan.sample_factor}/{plan.pool_factor}) "
            f"exceed N/k={max_factor}; clamped"
        )
        plan.sample_factor = min(plan.sample_factor, max_factor)
        plan.pool_factor = min(plan.pool_factor, plan.sample_factor)

    # Rung 4: constant dimensions --------------------------------------
    if constant_dims:
        usable = d - len(constant_dims)
        if usable >= floor:
            plan.exclude_dims = tuple(int(j) for j in constant_dims)
            plan.messages.append(
                f"excluding {len(constant_dims)} constant dimension(s) "
                f"{list(plan.exclude_dims)} from the Z-score ranking"
            )
        else:
            plan.messages.append(
                f"{len(constant_dims)} constant dimension(s) detected but "
                f"only {usable} varying dimension(s) remain; keeping all "
                "dimensions in the ranking"
            )
    return plan


def kmedoids_fallback(X: np.ndarray, k: int, *,
                      l: Optional[float] = None,
                      seed: SeedLike = None,
                      metric: str = "euclidean") -> "ProclusResult":
    """Full-dimensional CLARANS clustering shaped as a ``ProclusResult``.

    The last rung of the ladder: when projected clustering is
    infeasible, a full-dimensional k-medoids solution is still a valid
    (if less informative) clustering.  Every cluster's dimension set is
    the full space, so downstream consumers (assignment, metrics,
    serialization) work unchanged.  ``l`` is accepted for interface
    symmetry and ignored — the full space is used.
    """
    from ..baselines.kmedoids import clarans
    from ..core.objective import evaluate_clusters
    from ..core.result import ProclusResult

    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    k = int(max(1, min(k, n)))
    if n == 0:
        raise DegenerateDataError("cannot cluster an empty matrix")
    km = clarans(X, k, metric=metric, num_local=1, seed=seed)
    dim_sets = [tuple(range(d)) for _ in range(k)]
    objective = float(evaluate_clusters(X, km.labels, dim_sets))
    return ProclusResult(
        labels=km.labels,
        medoids=km.medoids,
        medoid_indices=km.medoid_indices,
        dimensions={i: dims for i, dims in enumerate(dim_sets)},
        objective=objective,
        iterative_objective=objective,
        n_iterations=km.n_swaps,
        n_improvements=km.n_swaps,
        phase_seconds={"fallback_kmedoids": km.seconds},
        terminated_by="fallback_kmedoids",
        degraded=True,
    )
