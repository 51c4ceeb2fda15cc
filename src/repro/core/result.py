"""Result objects returned by PROCLUS (and reused by the baselines).

:class:`ProclusResult` is the library's canonical description of a
projected clustering: labels (with ``-1`` outliers), the medoids, the
per-cluster dimension sets, the final objective value, and run
diagnostics.  The experiment harness consumes these objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..data.dataset import OUTLIER_LABEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..robustness.guards import Deadline
    from ..robustness.sanitize import SanitizationReport
    from .predict import PredictReport

__all__ = ["ProclusResult"]


@dataclass
class ProclusResult:
    """A fitted projected clustering.

    Attributes
    ----------
    labels:
        Integer array ``(n_points,)``; cluster ids ``0..k-1`` or ``-1``.
    medoids:
        Float array ``(k, d)`` of medoid coordinates.
    medoid_indices:
        Indices of the medoids in the original data matrix.
    dimensions:
        Mapping cluster id -> sorted tuple of that cluster's dimensions.
    objective:
        Final value of the paper's EvaluateClusters criterion (lower is
        better) on the refined clustering (outliers excluded from the
        numerator).
    iterative_objective:
        The hill-climbing phase's best objective, computed with *every*
        point assigned.  Comparable across runs — use this to pick among
        restarts (the refined ``objective`` shrinks artificially when a
        bad solution dumps many points to outliers).
    n_iterations / n_improvements:
        Hill-climbing diagnostics.
    objective_history:
        Objective value of every vertex visited during hill climbing.
    phase_seconds:
        Wall-clock per phase: ``{"initialization": .., "iterative": ..,
        "refinement": ..}``.
    terminated_by:
        Why the hill climbing stopped: ``"no_improvement"`` (its
        convergence criterion), ``"pool_exhausted"``,
        ``"max_iterations"``, ``"deadline"`` (wall-clock budget hit —
        best-so-far returned), ``"signal"`` (SIGINT/SIGTERM stopped a
        supervised multi-restart run — best completed restart
        returned), or ``"fallback_kmedoids"`` (the degradation ladder
        bottomed out).
    warnings:
        Messages from the robustness layer: sanitization actions and
        every degradation-ladder rung that fired.  Empty for a clean,
        non-degraded fit.
    degraded:
        True when any fallback changed the requested computation
        (reduced ``k``, clamped factors, k-medoids fallback, ...).
    sanitization:
        The :class:`~repro.robustness.sanitize.SanitizationReport` when
        input sanitization ran, else ``None``.  ``labels`` and
        ``medoid_indices`` are always in *original* row indexing — the
        mapping back has already been applied.
    cache_stats:
        Hit/miss/eviction counters of the incremental distance cache
        (per store, plus a ``"memory"`` entry) that every PROCLUS fit
        computes through; ``None`` for the k-medoids fallback and for
        files saved without them.  See ``docs/performance.md`` for how
        to read them.
    parallelism:
        Restart fan-out diagnostics when the fit ran with
        ``restarts > 1``: the requested ``n_jobs``, the worker count
        actually used (``n_workers``), how many restarts completed
        (``restarts_completed`` — fewer than requested when a deadline
        cancelled the tail), per-restart worker wall times
        (``restart_seconds``, ``None`` for cancelled restarts), and the
        fan-out's total ``wall_seconds``.  ``None`` for single-restart
        fits.  Feed it to :func:`repro.core.diagnostics.parallel_report`
        for an efficiency summary.
    fault_tolerance:
        Supervisor diagnostics when a multi-restart fit ran under the
        fault-tolerant supervisor (checkpointing, retries, or a signal
        in play): retry/respawn/timeout counters, restarts salvaged by
        the serial degradation path, restarts resumed from a
        checkpoint, and whether a signal terminated the run (in which
        case ``terminated_by`` is ``"signal"``).  ``None`` for plain
        fits.
    profile:
        Structured observability report when the fit ran with
        ``profile=True``: per-phase wall seconds, counter totals, and
        the recorded span/event records (see :mod:`repro.obs` and
        ``docs/observability.md``).  For parallel multi-restart fits
        the winning restart's worker-side profile is nested under
        ``profile["winner"]``.  ``None`` for untraced fits.
    """

    labels: np.ndarray
    medoids: np.ndarray
    medoid_indices: np.ndarray
    dimensions: Dict[int, Tuple[int, ...]]
    objective: float
    iterative_objective: float = float("inf")
    n_iterations: int = 0
    n_improvements: int = 0
    objective_history: List[float] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    terminated_by: str = ""
    warnings: List[str] = field(default_factory=list)
    degraded: bool = False
    sanitization: Optional["SanitizationReport"] = None
    cache_stats: Optional[Dict[str, Dict[str, float]]] = None
    parallelism: Optional[Dict[str, object]] = None
    fault_tolerance: Optional[Dict[str, object]] = None
    profile: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.medoids.shape[0])

    @property
    def n_points(self) -> int:
        """Number of clustered input points (incl. outliers)."""
        return int(self.labels.shape[0])

    @property
    def n_outliers(self) -> int:
        """Number of points labelled as outliers."""
        return int(np.count_nonzero(self.labels == OUTLIER_LABEL))

    @property
    def outlier_indices(self) -> np.ndarray:
        """Indices of points labelled as outliers."""
        return np.flatnonzero(self.labels == OUTLIER_LABEL)

    def cluster_indices(self, cluster_id: int) -> np.ndarray:
        """Indices of points assigned to ``cluster_id``."""
        return np.flatnonzero(self.labels == cluster_id)

    def cluster_sizes(self) -> Dict[int, int]:
        """Mapping cluster id -> assigned point count."""
        return {
            cid: int(np.count_nonzero(self.labels == cid))
            for cid in range(self.k)
        }

    def clusters(self) -> Dict[int, np.ndarray]:
        """Mapping cluster id -> indices of member points."""
        return {cid: self.cluster_indices(cid) for cid in range(self.k)}

    @property
    def average_dimensionality(self) -> float:
        """Mean ``|D_i|`` over clusters — should equal the input ``l``."""
        if not self.dimensions:
            return 0.0
        return float(np.mean([len(d) for d in self.dimensions.values()]))

    def predict(self, X: Any, *, handle_outliers: bool = True,
                on_bad_values: str = "raise",
                chunk_size: Optional[int] = None,
                memory_budget_bytes: Optional[int] = None,
                deadline: Optional["Deadline"] = None) -> np.ndarray:
        """Assign new points to this fitted clustering; labels only.

        The paper's refinement-phase semantics applied to unseen data:
        Manhattan segmental distance to each medoid in its own dimension
        set, argmin assignment, and (with ``handle_outliers``) the
        sphere-of-influence outlier rule.  On the training matrix of a
        clean fit this reproduces :attr:`labels` bit-identically.  See
        :func:`repro.core.predict.predict_points` for the full knob set
        and :meth:`predict_report` for per-batch diagnostics.
        """
        return self.predict_report(
            X, handle_outliers=handle_outliers, on_bad_values=on_bad_values,
            chunk_size=chunk_size, memory_budget_bytes=memory_budget_bytes,
            deadline=deadline).labels

    def predict_report(self, X: Any, *, handle_outliers: bool = True,
                       on_bad_values: str = "raise",
                       max_points: Optional[int] = None,
                       chunk_size: Optional[int] = None,
                       memory_budget_bytes: Optional[int] = None,
                       deadline: Optional["Deadline"] = None,
                       return_distances: bool = False) -> "PredictReport":
        """:meth:`predict` plus diagnostics (outlier count, spheres, ...).

        Thin delegation to :func:`repro.core.predict.predict_points`
        with this result's medoids and dimension sets; all keyword
        arguments are forwarded.
        """
        from .predict import predict_points

        return predict_points(
            X, self.medoids, self.dimensions,
            handle_outliers=handle_outliers, on_bad_values=on_bad_values,
            max_points=max_points, chunk_size=chunk_size,
            memory_budget_bytes=memory_budget_bytes, deadline=deadline,
            return_distances=return_distances)

    def to_dict(self) -> dict:
        """JSON-friendly summary (labels omitted; sizes included)."""
        return {
            "k": self.k,
            "objective": self.objective,
            "n_outliers": self.n_outliers,
            "cluster_sizes": self.cluster_sizes(),
            "dimensions": {cid: list(d) for cid, d in self.dimensions.items()},
            "n_iterations": self.n_iterations,
            "n_improvements": self.n_improvements,
            "terminated_by": self.terminated_by,
            "phase_seconds": dict(self.phase_seconds),
            "degraded": self.degraded,
            "warnings": list(self.warnings),
            "cache_stats": self.cache_stats,
            "parallelism": (dict(self.parallelism)
                            if self.parallelism is not None else None),
            "fault_tolerance": (dict(self.fault_tolerance)
                                if self.fault_tolerance is not None else None),
            "profile": (dict(self.profile)
                        if self.profile is not None else None),
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"PROCLUS result: k={self.k}, N={self.n_points}, "
            f"objective={self.objective:.4f}, outliers={self.n_outliers}",
        ]
        sizes = self.cluster_sizes()
        for cid in range(self.k):
            dims = ", ".join(str(j) for j in self.dimensions.get(cid, ()))
            lines.append(
                f"  cluster {cid}: {sizes[cid]:>8d} points, dims [{dims}]"
            )
        lines.append(
            f"  iterations={self.n_iterations}, improvements="
            f"{self.n_improvements}, stop={self.terminated_by or 'n/a'}"
        )
        if self.degraded:
            lines.append("  DEGRADED result (a robustness fallback fired)")
        for msg in self.warnings:
            lines.append(f"  warning: {msg}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProclusResult(k={self.k}, N={self.n_points}, "
            f"objective={self.objective:.4f}, outliers={self.n_outliers})"
        )
