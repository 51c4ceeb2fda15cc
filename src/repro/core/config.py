"""PROCLUS configuration.

The paper exposes two user parameters — the number of clusters ``k`` and
the average cluster dimensionality ``l`` — plus several internal
constants it names but does not fix numerically.  All of them live here
with documented defaults:

* ``sample_factor`` (the paper's ``A``): the initialization phase samples
  ``A*k`` points.
* ``pool_factor`` (the paper's ``B``, "a small constant"): the greedy
  technique reduces the sample to a candidate pool of ``B*k`` medoids.
* ``min_deviation``: clusters smaller than ``N/k * min_deviation`` mark
  their medoid bad (paper: "in most experiments, we choose 0.1").
* ``max_bad_tries``: the hill climbing stops after this many consecutive
  vertices that fail to improve the best objective (the paper's
  "certain number of vertices").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..distance.base import Metric
from ..exceptions import ParameterError
from ..rng import SeedLike
from ..validation import (
    check_dtype,
    check_fraction,
    check_k_l,
    check_max_retries,
    check_n_jobs,
    check_positive_int,
    check_time_budget,
)

__all__ = ["ProclusConfig"]


@dataclass
class ProclusConfig:
    """All PROCLUS knobs in one validated bundle.

    Parameters
    ----------
    k:
        Number of clusters to find.
    l:
        Average number of dimensions per cluster; ``l >= 2`` and ``k*l``
        integral (paper section 1).  Every cluster gets at least the
        paper's 2 dimensions.
    sample_factor:
        ``A`` — random-sample size multiplier for the initialization phase.
    pool_factor:
        ``B`` — candidate-medoid pool size multiplier (``B <= A``).
    min_deviation:
        Bad-medoid threshold fraction (paper default 0.1).
    max_bad_tries:
        Consecutive non-improving medoid swaps before termination.
    max_iterations:
        Absolute safety cap on hill-climbing iterations.
    metric:
        Full-dimensional metric for initialization/locality radii
        (the paper leaves ``d(.,.)`` generic; default Euclidean).
    time_budget_s:
        Optional wall-clock budget for the fit.  When it expires the
        hill climbing returns its best-so-far vertex with
        ``terminated_by="deadline"`` instead of raising.  ``None``
        (default) means unlimited.
    cache:
        Enable the incremental per-medoid distance cache
        (:class:`~repro.perf.cache.IterativeCache`) in the iterative
        and refinement phases.  Default on; results are bit-identical
        either way, only the wall clock changes.
    n_jobs:
        Worker count for multi-restart fits, run by the restart
        supervisor (:mod:`repro.robustness.supervisor`): ``1``
        (default) is the exact serial loop, ``>= 2`` fans the restarts
        out over a process pool with a shared-memory data plane, ``-1``
        uses all cores.  Results are bit-identical for any value.
    max_retries:
        Retry budget per restart under the fault-tolerant supervisor
        (:mod:`repro.robustness.supervisor`): a crashed or hung worker's
        restart is resubmitted up to this many times (deterministic —
        each attempt replays the identical seed stream) before the
        restart degrades to the in-process serial loop.  ``0`` disables
        retries (failed restarts go straight to serial salvage).
    restart_timeout_s:
        Per-restart wall-clock cap in the multi-restart fan-out;
        an in-flight restart exceeding it is treated as hung: the
        worker is replaced and the restart charged a retry.  ``None``
        (default) disables hang detection.
    checkpoint_dir:
        Directory for atomic per-restart checkpoints of a multi-restart
        fit.  Each completed restart persists immediately; an
        interrupted run can later be resumed (``resume=True``) and is
        bit-identical to an uninterrupted one.  ``None`` (default)
        disables checkpointing.
    resume:
        Resume a previous checkpointed run from ``checkpoint_dir``:
        completed restarts are loaded, only the remainder is computed.
        Requires ``checkpoint_dir``; raises
        :class:`~repro.exceptions.CheckpointError` when the directory
        records a different run (other seed, restarts, or parameters).
    dtype:
        Working dtype of the compute path: ``"float64"`` (default, the
        historical bit-exact path) or ``"float32"`` (half the memory
        bandwidth in every kernel; deterministic within the dtype but
        not bit-comparable to float64 runs).  See ``docs/performance.md``.
    seed:
        Seed or generator for all randomised steps.
    """

    k: int
    l: float
    sample_factor: int = 30
    pool_factor: int = 5
    min_deviation: float = 0.1
    max_bad_tries: int = 20
    max_iterations: int = 300
    metric: Union[str, Metric] = "euclidean"
    time_budget_s: Optional[float] = None
    cache: bool = True
    n_jobs: int = 1
    max_retries: int = 2
    restart_timeout_s: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    dtype: str = "float64"
    seed: SeedLike = None
    extra: dict = field(default_factory=dict)

    def validated(self, n_points: int, n_dims: int) -> "ProclusConfig":
        """Validate against a concrete dataset shape; returns ``self``."""
        self.k, self.l = check_k_l(self.k, self.l, n_dims, n_points)
        check_positive_int(self.sample_factor, name="sample_factor", minimum=1)
        check_positive_int(self.pool_factor, name="pool_factor", minimum=1)
        if self.pool_factor > self.sample_factor:
            raise ParameterError(
                "pool_factor (B) must be <= sample_factor (A); got "
                f"B={self.pool_factor}, A={self.sample_factor}"
            )
        self.min_deviation = check_fraction(
            self.min_deviation, name="min_deviation", inclusive_high=False
        )
        check_positive_int(self.max_bad_tries, name="max_bad_tries", minimum=1)
        check_positive_int(self.max_iterations, name="max_iterations", minimum=1)
        self.time_budget_s = check_time_budget(self.time_budget_s)
        self.cache = bool(self.cache)
        self.n_jobs = check_n_jobs(self.n_jobs)
        self.max_retries = check_max_retries(self.max_retries)
        self.restart_timeout_s = check_time_budget(
            self.restart_timeout_s, name="restart_timeout_s")
        self.resume = bool(self.resume)
        self.dtype = check_dtype(self.dtype)
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = str(self.checkpoint_dir)
        if self.resume and self.checkpoint_dir is None:
            raise ParameterError(
                "resume=True requires checkpoint_dir to be set"
            )
        if self.k > n_points:
            raise ParameterError(f"k={self.k} exceeds N={n_points}")
        return self

    @property
    def total_dimensions(self) -> int:
        """The dimension budget ``k * l`` distributed by FindDimensions."""
        return int(round(self.k * self.l))

    @property
    def sample_size(self) -> int:
        """Initialization-phase random sample size ``A * k``."""
        return self.sample_factor * self.k

    @property
    def pool_size(self) -> int:
        """Candidate medoid pool size ``B * k``."""
        return self.pool_factor * self.k
