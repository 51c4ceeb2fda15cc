"""PROCLUS: the paper's primary contribution.

The algorithm runs in three phases (paper section 2):

1. **Initialization** (:mod:`repro.core.initialization`): draw a random
   sample of size ``A*k``, then apply the Gonzalez greedy farthest-point
   technique (:mod:`repro.core.greedy`) to obtain a candidate medoid pool
   ``M`` of size ``B*k`` that is, with high probability, a superset of a
   *piercing* set (one point per natural cluster).
2. **Iterative phase** (:mod:`repro.core.iterative`): CLARANS-style hill
   climbing over k-subsets of ``M``.  Each candidate set of medoids is
   scored by (a) finding per-medoid dimension sets from locality
   statistics (:mod:`repro.core.dimensions`), (b) assigning all points by
   Manhattan segmental distance (:mod:`repro.core.assignment`), and
   (c) the size-weighted dispersion objective
   (:mod:`repro.core.objective`).  Bad medoids (smallest cluster, or any
   below ``N/k * min_deviation`` points) are swapped for random pool
   points until no improvement persists.
3. **Refinement** (:mod:`repro.core.refinement`): recompute dimensions
   once from the actual clusters, reassign, and flag outliers via each
   medoid's sphere of influence.

Use :class:`~repro.core.proclus.Proclus` (estimator API) or
:func:`~repro.core.proclus.proclus` (one-call functional API).
"""

from __future__ import annotations

from .config import ProclusConfig
from .diagnostics import (
    CacheReport,
    LocalityReport,
    ParallelReport,
    PiercingReport,
    cache_report,
    locality_report,
    parallel_report,
    piercing_report,
)
from .dimensions import (
    allocate_dimensions,
    dimension_statistics,
    find_dimensions_from_clusters,
)
from .greedy import greedy_select
from .initialization import initialize_medoid_pool
from .iterative import IterationRecord, IterativePhaseResult, run_iterative_phase
from .predict import PredictReport, predict_points
from .proclus import Proclus, proclus
from .refinement import refine_clusters
from .result import ProclusResult
from .serialization import (load_result, load_result_with_fingerprint,
                            result_fingerprint, save_result)
from .steps import (assign_points, compute_localities, evaluate_clusters,
                    find_dimensions)
from .tuning import SweepResult, sweep_k, sweep_l

__all__ = [
    "Proclus",
    "proclus",
    "ProclusConfig",
    "ProclusResult",
    "greedy_select",
    "initialize_medoid_pool",
    "compute_localities",
    "dimension_statistics",
    "allocate_dimensions",
    "find_dimensions",
    "find_dimensions_from_clusters",
    "assign_points",
    "evaluate_clusters",
    "run_iterative_phase",
    "IterativePhaseResult",
    "IterationRecord",
    "refine_clusters",
    "piercing_report",
    "PiercingReport",
    "locality_report",
    "LocalityReport",
    "cache_report",
    "CacheReport",
    "parallel_report",
    "ParallelReport",
    "predict_points",
    "PredictReport",
    "save_result",
    "load_result",
    "load_result_with_fingerprint",
    "result_fingerprint",
    "sweep_l",
    "sweep_k",
    "SweepResult",
]
