"""Lp-norm distances (paper section 1.2).

The Manhattan distance is the ``L1`` norm, the Euclidean distance the
``L2`` norm, and in general ``d_p(x, y) = (sum_i |x_i - y_i|^p)^(1/p)``.
The Chebyshev distance is the ``p -> infinity`` limit.  Instances are
registered in the metric registry under the names ``"manhattan"`` /
``"l1"``, ``"euclidean"`` / ``"l2"``, and ``"chebyshev"`` / ``"linf"``.
"""

from __future__ import annotations

import numpy as np

from ..dtypes import as_working
from ..exceptions import ParameterError
from .base import Metric, register_metric

__all__ = [
    "ManhattanDistance",
    "EuclideanDistance",
    "LpDistance",
    "ChebyshevDistance",
    "manhattan",
    "euclidean",
    "lp_distance",
    "chebyshev",
]


class ManhattanDistance(Metric):
    """L1 norm: ``sum_i |x_i - y_i|``."""

    name = "manhattan"

    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        return A.sum(axis=1)


class EuclideanDistance(Metric):
    """L2 norm: ``sqrt(sum_i (x_i - y_i)^2)``."""

    name = "euclidean"

    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        # |a| * |a| == a * a exactly, so squaring the absolute
        # differences gives the same bits as squaring the differences
        return np.sqrt(np.einsum("ij,ij->i", A, A))


class ChebyshevDistance(Metric):
    """L-infinity norm: ``max_i |x_i - y_i|``."""

    name = "chebyshev"

    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        return A.max(axis=1)


class LpDistance(Metric):
    """General Lp norm for a fixed ``p >= 1``."""

    def __init__(self, p: float):
        p = float(p)
        if p < 1:
            raise ParameterError(f"Lp distance requires p >= 1; got {p}")
        self.p = p
        self.name = f"l{p:g}"

    def reduce_rows(self, A: np.ndarray) -> np.ndarray:
        return np.power(np.power(A, self.p).sum(axis=1), 1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LpDistance(p={self.p:g})"


_MANHATTAN = register_metric(ManhattanDistance(), "l1", "cityblock")
_EUCLIDEAN = register_metric(EuclideanDistance(), "l2")
_CHEBYSHEV = register_metric(ChebyshevDistance(), "linf", "linfinity")


def manhattan(a, b) -> float:
    """Manhattan (L1) distance between two points."""
    return _MANHATTAN(as_working(a), as_working(b))


def euclidean(a, b) -> float:
    """Euclidean (L2) distance between two points."""
    return _EUCLIDEAN(as_working(a), as_working(b))


def chebyshev(a, b) -> float:
    """Chebyshev (L-infinity) distance between two points."""
    return _CHEBYSHEV(as_working(a), as_working(b))


def lp_distance(a, b, p: float) -> float:
    """General Lp distance between two points for ``p >= 1``."""
    return LpDistance(p)(as_working(a), as_working(b))
