"""Incremental distance caching for the hill-climbing hot path.

Each CLARANS vertex visit needs four expensive products, all of which
are column-separable by medoid:

* the full-dimensional distance columns behind the localities (one
  per medoid row);
* the locality member sets (one per medoid, determined by the medoid's
  distance column and its radius ``delta_i``);
* the per-medoid dimension statistics ``X_{i,.}`` (determined by the
  locality members);
* the segmental assignment columns (one per
  ``(medoid row, dimension set)`` pair).

A vertex swap replaces only the *bad* medoids (typically 1–2 of ``k``),
so :class:`IterativeCache` keeps each product keyed by the quantities
that fully determine it and recomputes only what a swap invalidated.
Stored columns are read-only and handed out as they are, never copied
into an ``(N, k)`` matrix.  A new medoid ``m`` reads ``|X - m|`` once,
in cache-sized row blocks, for its distance column, its locality and
its statistics row.  A hit hands out the very value a miss would
compute, so results are **bit-identical** whatever is reused — the
cache is a pure wall-clock optimisation, and the hill climb always runs
through it.  ``tests/test_reference_proclus.py`` checks the fit against
a literal transcription of the paper.

Memory is bounded: every store is an LRU evicting from the cold end
once the total held bytes exceed the configured budget (default:
:data:`repro.robustness.guards.DEFAULT_MEMORY_BUDGET_BYTES`), using the
same budget notion the distance kernels honour for their temporaries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..distance.base import Metric, get_metric
from ..distance.matrix import (distances_and_locality,
                               per_dimension_average_distance)
from ..obs import get_tracer
from ..robustness.guards import DEFAULT_MEMORY_BUDGET_BYTES
from .kernels import segmental_columns

__all__ = ["CacheStats", "IterativeCache", "select_locality"]

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


def select_locality(column: np.ndarray, delta: np.floating, row: int,
                    min_size: int) -> np.ndarray:
    """Locality of the medoid at ``row`` from its distance column.

    The points within ``delta`` of the medoid, the medoid itself
    excluded; when fewer than ``min_size`` qualify, the nearest
    ``min_size`` other points instead.  ``delta`` keeps the column's
    dtype, so the compare rounds nothing.
    """
    mask = column <= delta
    mask[row] = False
    members = np.flatnonzero(mask)
    if members.size < min_size:
        order = np.argsort(column, kind="stable")
        order = order[order != row]
        # a copy: a cached prefix view would keep all N indices alive
        members = order[:min_size].copy()
    return members


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

        Called after a non-improving vertex, to keep the stores at the
        best vertex's working set.  Its swapped-in medoids can still be
        drawn again; an exact redraw of the whole vertex is served by
        the hill climb's score memo without touching the cache.
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
                         metric: MetricLike, *,
                         deltas: np.ndarray,
                         min_size: int) -> List[np.ndarray]:
        """The ``k`` full-dimensional distance columns ``d(X, X[row])``.

        Stored columns are handed out as they are, read-only, in
        ``X``'s working dtype; each is bit-identical to the matching
        column of ``cross_distances(X, X[medoid_indices])``.  A miss
        reads ``A = |X - X[row]|`` once, in cache-sized row blocks
        (:func:`~repro.distance.matrix.distances_and_locality`); with
        the medoids' locality radii ``deltas``, the same pass also
        gives a new medoid's locality members and its ``X_{i,.}``
        statistics row, stored under their usual keys
        (:meth:`_store_new_medoid`).  No ``(N, d)`` temporary is built.
        """
        self.bind(X)
        mkey = self._metric_key(metric)
        columns: List[np.ndarray] = []
        computed = 0
        for j, row in enumerate(np.asarray(medoid_indices,
                                           dtype=np.intp).tolist()):
            col = self._distance.get((row, mkey))
            if col is None:
                computed += 1
                col, members, stats = distances_and_locality(
                    X, row, deltas[j], metric)
                col.flags.writeable = False
                self._distance.put((row, mkey), col)
                self._store_new_medoid(X, col, members, stats, row,
                                       deltas[j], min_size, metric)
            columns.append(col)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("cache.distance_computed", computed)
            tracer.count("cache.distance_served", len(columns) - computed)
        return columns

    def _store_new_medoid(self, X: np.ndarray, column: np.ndarray,
                          members: np.ndarray, stats: Optional[np.ndarray],
                          row: int, delta: np.floating, min_size: int,
                          metric: MetricLike) -> None:
        """Store a new medoid's locality members and statistics row.

        ``members`` and ``stats`` come from the medoid's
        :func:`~repro.distance.matrix.distances_and_locality` pass.
        When fewer than ``min_size`` points lie within ``delta``, the
        members are the nearest ``min_size`` (:func:`select_locality`'s
        argsort over the finished column) and their row is gathered
        afterwards; either way it is bit-identical to
        :func:`~repro.distance.matrix.per_dimension_average_distance`
        over the members.
        """
        if members.size < min_size:
            members = select_locality(column, delta, row, min_size)
            stats = None
        self._store_locality(row, delta, min_size, metric, members)
        key = (int(row), float(delta), int(min_size), self._metric_key(metric))
        if self._stats.get(key) is None:
            if stats is None:
                stats = per_dimension_average_distance(X, X[row],
                                                       rows=members)
            self._stats.put(key, stats)

    def _store_locality(self, row: int, delta: np.floating, min_size: int,
                        metric: MetricLike, members: np.ndarray) -> None:
        """Record a new medoid's locality members under their key."""
        key = (int(row), float(delta), int(min_size), self._metric_key(metric))
        if self._locality.get(key) is None:
            self._locality.put(key, members)

    def localities(self, columns: Sequence[np.ndarray],
                   medoid_indices: np.ndarray, metric: MetricLike, *,
                   deltas: np.ndarray, min_size: int) -> List[np.ndarray]:
        """The ``k`` locality member sets, one cached entry per medoid.

        ``columns`` are the medoids' :meth:`distance_columns`.  A set is
        the points within ``deltas[i]`` of medoid ``i``, the medoid
        itself excluded, or its nearest ``min_size`` other points when
        fewer qualify (:func:`select_locality`).  A new medoid's set was
        stored by its distance pass; a retained medoid whose radius
        moved selects it from its column.
        """
        mkey = self._metric_key(metric)
        members_list: List[np.ndarray] = []
        for j, row in enumerate(np.asarray(medoid_indices,
                                           dtype=np.intp).tolist()):
            key = (row, float(deltas[j]), int(min_size), mkey)
            members = self._locality.get(key)
            if members is None:
                members = select_locality(columns[j], deltas[j], row,
                                          min_size)
                self._locality.put(key, members)
            members_list.append(members)
        return members_list

    # ------------------------------------------------------------------
    def segmental_matrix(self, X: np.ndarray, medoid_indices: np.ndarray,
                         dim_sets: Sequence[Sequence[int]], *,
                         Xc: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """The ``k`` segmental assignment columns, with column reuse.

        A column is reused when its medoid kept both its row *and* its
        dimension set since it was computed; stored columns are handed
        out as they are, read-only.  Misses run through the kernel in
        one sub-batch (each column depends only on its own medoid and
        dimension set, so sub-batching preserves bits).  ``Xc`` is
        :func:`~repro.core.objective.column_major` of ``X`` when the
        caller holds it; the kernel then reads ``Xc.T``, the same
        values laid out so each block's dimension rows are contiguous
        slices.
        """
        self.bind(X)
        medoid_indices = np.asarray(medoid_indices, dtype=np.intp)
        keys = [
            (int(row), tuple(int(d) for d in dims))
            for row, dims in zip(medoid_indices, dim_sets)
        ]
        columns: List[Optional[np.ndarray]] = [
            self._segmental.get(key) for key in keys
        ]
        missing = [j for j, col in enumerate(columns) if col is None]
        if missing:
            fresh = segmental_columns(
                X if Xc is None else Xc.T, X[medoid_indices[missing]],
                [dim_sets[j] for j in missing],
            )
            for slot, j in enumerate(missing):
                # store an owned copy: a view would keep the whole miss
                # batch alive while nbytes counts a single column
                col = fresh[:, slot].copy()
                col.flags.writeable = False
                self._segmental.put(keys[j], col)
                columns[j] = col
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("cache.segmental_computed", len(missing))
            tracer.count("cache.segmental_served",
                         medoid_indices.size - len(missing))
        return columns  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def dimension_stats(self, X: np.ndarray, medoid_indices: np.ndarray,
                        localities: Sequence[np.ndarray],
                        deltas: np.ndarray, min_size: int,
                        metric: MetricLike) -> np.ndarray:
        """The ``(k, d)`` matrix ``X_{i,j}``, one cached row per medoid.

        Rows of new medoids were stored by :meth:`distance_columns`.
        The remaining misses (retained medoids whose radius changed)
        call the same blocked
        :func:`~repro.distance.matrix.per_dimension_average_distance`
        the direct :func:`~repro.core.dimensions.dimension_statistics`
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
                cached = per_dimension_average_distance(X, X[row],
                                                        rows=members)
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
