"""Incremental distance caching for the hill-climbing hot path.

Each CLARANS vertex visit needs four expensive products, all of which
are column-separable by medoid:

* the ``(N, k)`` full-dimensional distance matrix behind the localities
  (one column per medoid row);
* the locality member sets (one per medoid, determined by the medoid's
  distance column and its radius ``delta_i``);
* the per-medoid dimension statistics ``X_{i,.}`` (determined by the
  locality members);
* the ``(N, k)`` segmental assignment matrix (one column per
  ``(medoid row, dimension set)`` pair).

A vertex swap replaces only the *bad* medoids (typically 1–2 of ``k``),
so :class:`IterativeCache` keeps each product keyed by the quantities
that fully determine it and recomputes only what a swap invalidated.
Misses are computed by the exact same kernels as the uncached path, so
results are **bit-identical** — the cache is a pure wall-clock
optimisation.

Memory is bounded: every store is an LRU evicting from the cold end
once the total held bytes exceed the configured budget (default:
:data:`repro.robustness.guards.DEFAULT_MEMORY_BUDGET_BYTES`), using the
same budget notion the distance kernels honour for their temporaries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..distance.base import Metric, get_metric
from ..distance.matrix import cross_distances, per_dimension_average_distance
from ..obs import get_tracer
from ..robustness.guards import DEFAULT_MEMORY_BUDGET_BYTES
from .kernels import segmental_columns

__all__ = ["CacheStats", "IterativeCache"]

MetricLike = Union[str, Metric]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache store."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class _LruStore:
    """Byte-accounted LRU mapping key -> ndarray.

    Keys are tuples whose **first element is the medoid row index**, so
    :meth:`discard_rows` can drop everything a swap invalidated.
    """

    def __init__(self, budget_bytes: int, stats: CacheStats) -> None:
        self._data: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._budget = int(budget_bytes)
        self.nbytes = 0
        self.stats = stats

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: tuple) -> Optional[np.ndarray]:
        value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: tuple, value: np.ndarray) -> None:
        old = self._data.pop(key, None)
        if old is not None:
            self.nbytes -= old.nbytes
        self._data[key] = value
        self.nbytes += value.nbytes
        while self.nbytes > self._budget and len(self._data) > 1:
            _, evicted = self._data.popitem(last=False)
            self.nbytes -= evicted.nbytes
            self.stats.evictions += 1

    def discard_rows(self, rows: Union[int, Sequence[int], np.ndarray]) -> None:
        doomed = set(int(r) for r in np.atleast_1d(rows))
        for key in [k for k in self._data if k[0] in doomed]:
            self.nbytes -= self._data.pop(key).nbytes

    def clear(self) -> None:
        self._data.clear()
        self.nbytes = 0


class IterativeCache:
    """Per-medoid product cache for ``run_iterative_phase`` (and refinement).

    The cache is bound to one data matrix: the first call against a new
    ``X`` object resets every store (large-database mode fits a
    subsample and then refines over the full data — the two must never
    share columns).

    Stores and their keys:

    ``distance``
        ``(row, metric)`` -> full-dimensional distance column
        ``d(X, X[row])`` of shape ``(N,)``.
    ``segmental``
        ``(row, dims)`` -> Manhattan segmental column of shape ``(N,)``.
    ``locality``
        ``(row, delta, min_size, metric)`` -> locality member indices.
    ``stats``
        ``(row, delta, min_size, metric)`` -> per-dimension average
        distance row of shape ``(d,)``.

    ``delta`` participates in the key because the locality of an
    unswapped medoid still changes when a swap moves its nearest
    neighbour; two visits agreeing on both the medoid row and its
    radius provably share the same members (and therefore statistics).
    """

    def __init__(self, memory_budget_bytes: Optional[int] = None) -> None:
        budget = (DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None
                  else int(memory_budget_bytes))
        self.memory_budget_bytes = budget
        self.stats: Dict[str, CacheStats] = {
            name: CacheStats()
            for name in ("distance", "segmental", "locality", "stats")
        }
        self._distance = _LruStore(budget, self.stats["distance"])
        self._segmental = _LruStore(budget, self.stats["segmental"])
        self._locality = _LruStore(budget, self.stats["locality"])
        self._stats = _LruStore(budget, self.stats["stats"])
        self._stores = (self._distance, self._segmental,
                        self._locality, self._stats)
        self._X: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def bind(self, X: np.ndarray) -> None:
        """Attach to ``X``; a different data matrix clears every store."""
        if X is not self._X:
            for store in self._stores:
                store.clear()
            self._X = X

    def discard_rows(self, rows: Union[int, Sequence[int], np.ndarray]) -> None:
        """Drop every cached product of the given medoid rows.

        Called after a non-improving vertex: its swapped-in medoids are
        excluded from future replacement draws, so their columns are
        dead weight.
        """
        rows = np.atleast_1d(rows)
        if rows.size == 0:
            return
        for store in self._stores:
            store.discard_rows(rows)

    @staticmethod
    def _metric_key(metric: MetricLike) -> int:
        m = get_metric(metric)
        return id(m)

    # ------------------------------------------------------------------
    def distance_columns(self, X: np.ndarray, medoid_indices: np.ndarray,
                         metric: MetricLike) -> np.ndarray:
        """``(N, k)`` full-dimensional distances to each medoid row.

        Bit-identical to ``cross_distances(X, X[medoid_indices])``:
        misses go through that very kernel, one batch for all missing
        columns.
        """
        self.bind(X)
        medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
        mkey = self._metric_key(metric)
        # columns are held (and the batch assembled) in X's working
        # dtype; byte accounting via .nbytes means a float32 run fits
        # about twice the columns in the same budget
        out = np.empty((X.shape[0], medoid_indices.size), dtype=X.dtype)
        missing = []
        for j, row in enumerate(medoid_indices):
            col = self._distance.get((int(row), mkey))
            if col is None:
                missing.append(j)
            else:
                out[:, j] = col
        if missing:
            fresh = cross_distances(X, X[medoid_indices[missing]], metric)
            for slot, j in enumerate(missing):
                # store an owned copy: a view would keep the whole miss
                # batch alive while nbytes counts a single column
                col = fresh[:, slot].copy()
                out[:, j] = col
                self._distance.put(
                    (int(medoid_indices[j]), mkey), col
                )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("cache.distance_computed", len(missing))
            tracer.count("cache.distance_served",
                         medoid_indices.size - len(missing))
        return out

    # ------------------------------------------------------------------
    def segmental_matrix(self, X: np.ndarray, medoid_indices: np.ndarray,
                         dim_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """``(N, k)`` segmental assignment matrix with column reuse.

        A column is reused when its medoid kept both its row *and* its
        dimension set since it was computed; misses run through the
        kernel in one sub-batch (each column depends only on its own
        medoid and dimension set, so sub-batching preserves bits).
        """
        self.bind(X)
        medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
        keys = [
            (int(row), tuple(int(d) for d in dims))
            for row, dims in zip(medoid_indices, dim_sets)
        ]
        # column-major like the kernel's output, so every column copy
        # below is contiguous
        out = np.empty((medoid_indices.size, X.shape[0]), dtype=X.dtype).T
        missing = []
        for j, key in enumerate(keys):
            col = self._segmental.get(key)
            if col is None:
                missing.append(j)
            else:
                out[:, j] = col
        if missing:
            fresh = segmental_columns(
                X, X[medoid_indices[missing]],
                [dim_sets[j] for j in missing],
            )
            for slot, j in enumerate(missing):
                col = fresh[:, slot].copy()  # owned, as in distance_columns
                out[:, j] = col
                self._segmental.put(keys[j], col)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("cache.segmental_computed", len(missing))
            tracer.count("cache.segmental_served",
                         medoid_indices.size - len(missing))
        return out

    # ------------------------------------------------------------------
    def locality_members(self, row: int, delta: float, min_size: int,
                         metric: MetricLike) -> Optional[np.ndarray]:
        """Cached locality member indices, or ``None`` on a miss."""
        return self._locality.get(
            (int(row), float(delta), int(min_size), self._metric_key(metric))
        )

    def store_locality_members(self, row: int, delta: float, min_size: int,
                               metric: MetricLike,
                               members: np.ndarray) -> None:
        """Record a locality member set under its determining key."""
        self._locality.put(
            (int(row), float(delta), int(min_size), self._metric_key(metric)),
            np.asarray(members, dtype=np.intp),
        )

    def dimension_stats(self, X: np.ndarray, medoid_indices: np.ndarray,
                        localities: Sequence[np.ndarray],
                        deltas: np.ndarray, min_size: int,
                        metric: MetricLike) -> np.ndarray:
        """The ``(k, d)`` matrix ``X_{i,j}``, one cached row per medoid.

        Misses call the same
        :func:`~repro.distance.matrix.per_dimension_average_distance`
        the uncached :func:`~repro.core.dimensions.dimension_statistics`
        uses, so rows are bit-identical.
        """
        self.bind(X)
        medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
        mkey = self._metric_key(metric)
        k = medoid_indices.size
        # statistics rows are float64 for any working dtype: they feed
        # the Z-score ranking (see per_dimension_average_distance's
        # accumulation policy), and at (k, d) they are tiny
        stats = np.empty((k, X.shape[1]), dtype=np.float64)
        for i in range(k):
            row = int(medoid_indices[i])
            key = (row, float(deltas[i]), int(min_size), mkey)
            cached = self._stats.get(key)
            if cached is None:
                members = np.asarray(localities[i], dtype=np.intp)
                cached = per_dimension_average_distance(X[members], X[row])
                self._stats.put(key, cached)
            stats[i] = cached
        return stats

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all stores."""
        return sum(store.nbytes for store in self._stores)

    def stats_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-store counters plus footprint, for results/diagnostics."""
        out: Dict[str, Dict[str, float]] = {
            name: s.as_dict() for name, s in self.stats.items()
        }
        out["memory"] = {
            "bytes": self.nbytes,
            "budget_bytes": self.memory_budget_bytes,
            "entries": sum(len(store) for store in self._stores),
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rates = ", ".join(
            f"{name}={s.hit_rate:.0%}" for name, s in self.stats.items()
        )
        return f"IterativeCache({rates}, {self.nbytes >> 10} KiB)"
