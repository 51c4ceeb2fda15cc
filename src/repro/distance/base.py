"""Metric protocol and registry.

A :class:`Metric` computes distances between points and, in batch form,
between a set of points and a single point.  Algorithms take either a
metric *name* (looked up in the registry) or a :class:`Metric` instance,
so users can plug in custom distances without touching library code.

Every metric here is a function of the coordinate-wise absolute
differences ``|x - y|``, so a metric defines only how one row of those
differences reduces to a distance (:meth:`Metric.reduce_rows`).  The
hill climb's cache uses that split to read ``|X - m|`` once per new
medoid for both its distance column and its locality statistics.
"""

from __future__ import annotations

import abc
from typing import Dict, Union

import numpy as np

from ..dtypes import as_working
from ..exceptions import ParameterError

__all__ = ["Metric", "register_metric", "get_metric", "available_metrics"]


class Metric(abc.ABC):
    """Abstract distance function.

    Subclasses implement :meth:`reduce_rows`; the batch form
    :meth:`pairwise_to_point` and the scalar form :meth:`__call__` are
    derived from it.  A metric that reads only some columns may override
    :meth:`pairwise_to_point` to skip the full ``|X - p|`` block;
    :func:`~repro.distance.matrix.cross_distances` hands it one
    cache-sized row block at a time.  The override must agree with
    :meth:`reduce_rows`, which is all the hill climb's fused pass
    (:func:`~repro.distance.matrix.distances_and_locality`) calls.  All
    inputs are float arrays — callers validate shape/dtype once at the
    public API boundary.
    """

    #: registry key; subclasses set this to a short lowercase name.
    name: str = ""

    @abc.abstractmethod
    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        """Distance of each row from its absolute differences.

        ``A`` is ``|X - p|`` of shape ``(n, d)``; the result has shape
        ``(n,)`` in ``A``'s dtype.  ``A`` must not be modified.
        """

    def pairwise_to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Distances from each row of ``X`` (n, d) to point ``p`` (d,)."""
        diffs = X - p
        np.abs(diffs, out=diffs)
        return self.reduce_rows(diffs)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two individual points."""
        a = np.atleast_2d(as_working(a))
        b = np.asarray(b, dtype=a.dtype).ravel()
        return float(self.pairwise_to_point(a, b)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Metric] = {}


def register_metric(metric: Metric, *aliases: str) -> Metric:
    """Register ``metric`` under its ``name`` plus optional aliases."""
    if not metric.name:
        raise ParameterError("metric must define a non-empty .name")
    for key in (metric.name, *aliases):
        _REGISTRY[key.lower()] = metric
    return metric


def get_metric(metric: Union[str, Metric]) -> Metric:
    """Resolve a metric name or pass an instance through."""
    if isinstance(metric, Metric):
        return metric
    if isinstance(metric, str):
        try:
            return _REGISTRY[metric.lower()]
        except KeyError:
            raise ParameterError(
                f"unknown metric {metric!r}; available: {sorted(_REGISTRY)}"
            )
    raise ParameterError(
        f"metric must be a name or a Metric instance; got {type(metric).__name__}"
    )


def available_metrics() -> list:
    """Sorted list of registered metric names (including aliases)."""
    return sorted(_REGISTRY)
