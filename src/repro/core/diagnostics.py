"""Diagnostics for the paper's robustness analysis (section 3).

PROCLUS's accuracy rests on two properties the paper argues for:

* the candidate pool (and the final medoid set) should be **piercing**
  — contain at least one point from every natural cluster;
* each medoid's **locality** should hold enough points (expected
  ``N/k`` for random medoids, Theorem 3.1; more for the spread-out
  medoids the greedy picks) for the dimension statistics to be robust.

These helpers quantify both on concrete runs, for tests, benches, and
users debugging a bad clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.dataset import OUTLIER_LABEL
from ..distance.base import Metric
from ..validation import check_array
from .dimensions import compute_localities

__all__ = ["PiercingReport", "piercing_report", "LocalityReport",
           "locality_report", "CacheReport", "cache_report",
           "ParallelReport", "parallel_report"]


@dataclass
class PiercingReport:
    """Does a point set pierce every ground-truth cluster?"""

    clusters_hit: Tuple[int, ...]
    clusters_missed: Tuple[int, ...]
    points_per_cluster: Dict[int, int]
    n_outlier_points: int

    @property
    def is_piercing(self) -> bool:
        """True when every ground-truth cluster is represented."""
        return not self.clusters_missed

    @property
    def n_duplicated_clusters(self) -> int:
        """Clusters represented by more than one chosen point."""
        return sum(1 for c in self.points_per_cluster.values() if c > 1)

    def to_text(self) -> str:
        """One-line verdict plus per-cluster counts."""
        verdict = "piercing" if self.is_piercing else (
            f"NOT piercing (missed clusters {list(self.clusters_missed)})"
        )
        counts = ", ".join(
            f"{cid}:{n}" for cid, n in sorted(self.points_per_cluster.items())
        )
        return (
            f"{verdict}; points per cluster {{{counts}}}, "
            f"{self.n_outlier_points} outlier pick(s)"
        )


def piercing_report(chosen_indices: Sequence[int],
                    true_labels: np.ndarray) -> PiercingReport:
    """Check a chosen point set (pool or medoids) against ground truth."""
    true_labels = np.asarray(true_labels)
    chosen = np.asarray(chosen_indices, dtype=np.intp)
    cluster_ids = sorted(
        int(c) for c in np.unique(true_labels) if c != OUTLIER_LABEL
    )
    picked_labels = true_labels[chosen]
    per_cluster = {
        cid: int(np.count_nonzero(picked_labels == cid))
        for cid in cluster_ids
    }
    hit = tuple(cid for cid, n in per_cluster.items() if n > 0)
    missed = tuple(cid for cid, n in per_cluster.items() if n == 0)
    return PiercingReport(
        clusters_hit=hit,
        clusters_missed=missed,
        points_per_cluster=per_cluster,
        n_outlier_points=int(np.count_nonzero(picked_labels == OUTLIER_LABEL)),
    )


@dataclass
class LocalityReport:
    """Locality sizes for a medoid set (Theorem 3.1's quantity)."""

    sizes: Tuple[int, ...]
    deltas: Tuple[float, ...]
    expected_random: float

    @property
    def mean_size(self) -> float:
        """Mean locality size across medoids."""
        return float(np.mean(self.sizes))

    @property
    def min_size(self) -> int:
        """Smallest locality (the robustness bottleneck)."""
        return int(min(self.sizes))

    @property
    def meets_theorem_bound(self) -> bool:
        """Paper section 3: greedy-selected medoids are far apart, so
        localities are expected to hold *at least* N/k points each on
        average."""
        return self.mean_size >= self.expected_random

    def to_text(self) -> str:
        """Sizes, radii, and the N/k reference."""
        sizes = ", ".join(str(s) for s in self.sizes)
        return (
            f"locality sizes [{sizes}] (mean {self.mean_size:.0f}, "
            f"min {self.min_size}); random-medoid expectation "
            f"N/k = {self.expected_random:.0f}"
        )


def locality_report(X: np.ndarray, medoid_indices: Sequence[int], *,
                    metric: Union[str, Metric] = "euclidean") -> LocalityReport:
    """Locality sizes and radii for a concrete medoid set."""
    X = check_array(X, name="X")
    medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
    localities, deltas = compute_localities(X, medoid_indices, metric=metric,
                                            min_locality_size=0)
    return LocalityReport(
        sizes=tuple(len(loc) for loc in localities),
        deltas=tuple(float(d) for d in deltas),
        expected_random=X.shape[0] / medoid_indices.size,
    )


@dataclass
class CacheReport:
    """Aggregated view of the incremental distance cache's counters.

    Built from ``result.cache_stats`` (or
    :meth:`repro.perf.IterativeCache.stats_dict`); answers "did the
    cache actually pay off on this run?".
    """

    hits: int
    misses: int
    evictions: int
    bytes_held: int
    budget_bytes: int
    per_store: Dict[str, Dict[str, float]]

    @property
    def lookups(self) -> int:
        """Total cache probes across all stores."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Overall fraction of probes served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def thrashing(self) -> bool:
        """True when evictions outnumber hits — the budget is too small
        for the working set and the cache is mostly churning."""
        return self.evictions > self.hits

    def to_text(self) -> str:
        """One-line verdict plus per-store hit rates."""
        stores = ", ".join(
            f"{name}={s.get('hit_rate', 0.0):.0%}"
            for name, s in sorted(self.per_store.items())
        )
        verdict = "THRASHING (raise the memory budget)" if self.thrashing \
            else f"{self.hit_rate:.0%} overall hit rate"
        return (
            f"cache: {verdict}; per store [{stores}]; "
            f"{self.bytes_held >> 10} KiB held of "
            f"{self.budget_bytes >> 20} MiB budget"
        )


def cache_report(stats: Optional[Mapping[str, Mapping[str, float]]]) -> Optional[CacheReport]:
    """Summarise ``result.cache_stats``; ``None`` when a result has none."""
    if stats is None:
        return None
    memory = stats.get("memory", {})
    stores = {name: dict(s) for name, s in stats.items() if name != "memory"}
    return CacheReport(
        hits=int(sum(s.get("hits", 0) for s in stores.values())),
        misses=int(sum(s.get("misses", 0) for s in stores.values())),
        evictions=int(sum(s.get("evictions", 0) for s in stores.values())),
        bytes_held=int(memory.get("bytes", 0)),
        budget_bytes=int(memory.get("budget_bytes", 0)),
        per_store=stores,
    )


@dataclass
class ParallelReport:
    """Aggregated view of a restart fan-out's worker utilisation.

    Built from ``result.parallelism``; answers "did the extra workers
    actually pay off on this fit?".
    """

    n_jobs: int
    n_workers: int
    restarts_completed: int
    restart_seconds: Sequence[Optional[float]]
    wall_seconds: float

    @property
    def busy_seconds(self) -> float:
        """Total worker wall time over the completed restarts."""
        return float(sum(s for s in self.restart_seconds if s is not None))

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual fan-out wall time."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.busy_seconds / self.wall_seconds

    @property
    def efficiency(self) -> float:
        """:attr:`speedup` per worker (1.0 = perfectly parallel)."""
        return self.speedup / max(1, self.n_workers)

    def to_text(self) -> str:
        """One-line utilisation summary."""
        return (
            f"parallel: {self.restarts_completed} restart(s) on "
            f"{self.n_workers} worker(s) (n_jobs={self.n_jobs}); "
            f"{self.busy_seconds:.3f}s of work in {self.wall_seconds:.3f}s "
            f"wall ({self.speedup:.2f}x, {self.efficiency:.0%} efficiency)"
        )


def parallel_report(parallelism: Optional[Mapping[str, object]]) -> Optional[ParallelReport]:
    """Summarise ``result.parallelism``; ``None`` for single-restart fits."""
    if parallelism is None:
        return None
    return ParallelReport(
        n_jobs=int(parallelism.get("n_jobs", 1)),
        n_workers=int(parallelism.get("n_workers", 1)),
        restarts_completed=int(parallelism.get("restarts_completed", 0)),
        restart_seconds=list(parallelism.get("restart_seconds", [])),
        wall_seconds=float(parallelism.get("wall_seconds", 0.0)),
    )
