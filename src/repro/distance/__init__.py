"""Distance functions used throughout the library.

The paper works with three families of distances:

* classic **Lp norms** (Manhattan ``L1``, Euclidean ``L2``, general ``Lp``,
  and the ``L-infinity`` limit) — used by the initialization phase and the
  locality analysis;
* the **Manhattan segmental distance** — the paper's central metric: the
  Manhattan distance restricted to a dimension subset ``D`` and normalised
  by ``|D|`` so clusters with different dimensionalities are comparable;
* **batch kernels** from a point set to a few anchors (``cdist``-style),
  vectorised with numpy and walked in cache-sized row blocks.

The scalar helpers (:func:`manhattan`, :func:`euclidean`, ...) and the
:class:`Metric` registry serve the metric names and instances
:func:`repro.proclus` accepts.  The fit's own segmental distances come
from :func:`repro.perf.kernels.segmental_columns`.
"""

from .base import Metric, get_metric, register_metric, available_metrics
from .lp import (
    ChebyshevDistance,
    EuclideanDistance,
    LpDistance,
    ManhattanDistance,
    chebyshev,
    euclidean,
    lp_distance,
    manhattan,
)
from .matrix import cross_distances, per_dimension_average_distance
from .segmental import segmental_distances_to_point

__all__ = [
    "Metric",
    "get_metric",
    "register_metric",
    "available_metrics",
    "ManhattanDistance",
    "EuclideanDistance",
    "LpDistance",
    "ChebyshevDistance",
    "manhattan",
    "euclidean",
    "lp_distance",
    "chebyshev",
    "segmental_distances_to_point",
    "cross_distances",
    "per_dimension_average_distance",
]
