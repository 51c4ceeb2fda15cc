"""PROCLUS configuration: the one record of a fit's parameters.

The paper exposes two user parameters — the number of clusters ``k`` and
the average cluster dimensionality ``l`` — plus several internal
constants it names but does not fix numerically.  :class:`ProclusConfig`
holds them, together with every other :func:`~repro.core.proclus.proclus`
keyword except the four that only the public boundary reads
(``on_bad_values``, ``collapse_duplicates``, ``auto_degrade`` and
``profile``).  ``proclus()`` builds the record once, checks it with
:meth:`ProclusConfig.checked` before touching the data, and hands it to
the fit; checks that depend on the data run later, in
:meth:`ProclusConfig.validated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Union

import numpy as np

from ..distance.base import Metric, get_metric
from ..exceptions import ParameterError
from ..rng import SeedLike
from ..validation import (
    check_dtype,
    check_flag,
    check_fraction,
    check_k_l,
    check_max_retries,
    check_n_jobs,
    check_path,
    check_positive_int,
    check_real,
    check_seed,
    check_time_budget,
)

__all__ = ["ProclusConfig"]

#: Field metadata marking an execution setting: how a fit is run, not
#: what one restart computes.  These fields stay out of
#: :meth:`ProclusConfig.restart_params`, so they are not part of a
#: checkpoint's run fingerprint.
_RUN: Dict[str, bool] = {"run": True}


@dataclass
class ProclusConfig:
    """Every parameter of a PROCLUS fit, in one record.

    Parameters
    ----------
    k:
        Number of clusters to find (an integer ``>= 1``, at most N).
    l:
        Average number of dimensions per cluster; ``2 <= l <= d`` and
        ``k*l`` integral (paper section 1).  Every cluster gets at least
        the paper's 2 dimensions.
    sample_factor:
        ``A`` — the initialization phase samples ``A*k`` points.
    pool_factor:
        ``B`` (the paper's "small constant") — the greedy technique
        reduces the sample to a candidate pool of ``B*k`` medoids;
        ``B <= A``.
    min_deviation:
        Bad-medoid threshold, in ``[0, 1)``: clusters smaller than
        ``N/k * min_deviation`` mark their medoid bad (paper: "in most
        experiments, we choose 0.1").
    max_bad_tries:
        The hill climbing stops after this many consecutive vertices
        that fail to improve the best objective (the paper's "certain
        number of vertices").
    max_iterations:
        Absolute safety cap on hill-climbing iterations.
    metric:
        Full-dimensional metric for initialization and locality radii
        (the paper leaves ``d(.,.)`` generic; default Euclidean).
    handle_outliers:
        Disable to keep every point assigned (ablation hook; the paper
        always detects outliers in the refinement pass).
    fit_sample_size:
        CLARA-style large-database mode: run the initialization and the
        hill climbing on a uniform subsample of this size, then perform
        the refinement pass (dimension recomputation, assignment,
        outlier detection) over the *full* data.  Cuts the
        per-iteration O(N·k·d) cost to O(sample·k·d) while the final
        clustering still covers every point.  ``None`` (default) uses
        all points throughout, as the paper does.  Composes with
        ``restarts``: every restart runs on its own subsample.  Must be
        at least ``A * k`` when it is smaller than N.
    dtype:
        Working dtype of the compute path: ``"float64"`` (default) or
        ``"float32"``.  The input is converted **once** at the public
        boundary; every kernel downstream — segmental columns, cross
        distances, the cache's stored columns, the shared-memory
        fan-out — then computes natively in that dtype, halving bytes
        moved for float32 (ranking statistics still accumulate in
        float64).  ``"float64"`` runs are bit-identical to the
        historical path; ``"float32"`` runs are deterministically
        reproducible within the dtype but not bit-comparable across
        dtypes (checkpoints record the dtype and refuse to resume a run
        of the other precision).
    restarts:
        Run the whole pipeline this many times with independent random
        streams and keep the run with the lowest *iterative-phase*
        objective.  The hill climbing is a randomised local search and
        can converge with two medoids piercing one natural cluster; the
        paper's own remedy (section 4.3) is to "simply run the
        algorithm a few times".  Selection uses the iterative objective
        because the refined one shrinks artificially when a bad
        solution declares many points outliers.
    time_budget_s:
        Wall-clock budget for the whole fit.  On expiry the hill
        climbing returns best-so-far with
        ``result.terminated_by == "deadline"`` (the first iteration
        always completes); remaining restarts are skipped.  ``None``
        (default) means unlimited.
    n_jobs:
        Worker count for ``restarts > 1``, run by the restart supervisor
        (:mod:`repro.robustness.supervisor`).  ``1`` (default) is the
        exact serial loop; ``>= 2`` fans the restarts out over that many
        processes, sharing the sanitized data matrix through a zero-copy
        shared-memory plane; ``-1`` uses all cores.  Results are
        bit-identical to the serial loop for any ``n_jobs``: child seeds
        are spawned in the parent and the winner is reduced by
        ``(iterative_objective, restart_index)``, which is
        order-independent.  Worker and timing diagnostics land on
        ``result.parallelism``.
    max_retries:
        Retry budget per restart under the supervisor: a crashed or hung
        worker's restart is resubmitted (replaying the identical seed
        stream, so retries are bit-deterministic) up to this many times,
        then degrades to the in-process serial loop.  ``0`` disables
        retries.  Diagnostics land on ``result.fault_tolerance``.
    restart_timeout_s:
        Wall-clock cap per restart in the parallel fan-out; an in-flight
        restart exceeding it is treated as hung: the worker is replaced
        and the restart charged a retry.  ``None`` (default) disables
        hang detection.
    checkpoint_dir:
        Persist every completed restart of a multi-restart fit to this
        directory (atomic write-temp-then-rename).  An interrupted run
        — SIGINT/SIGTERM returns best-so-far with
        ``result.terminated_by == "signal"`` — can then be resumed.
        ``None`` (default) disables checkpointing.
    resume:
        Resume from ``checkpoint_dir``: completed restarts are loaded
        and skipped, and the final result is bit-identical to an
        uninterrupted run.  Requires ``checkpoint_dir``.  A manifest
        recorded by a different run (other seed, restarts, or any field
        of :meth:`restart_params`) raises
        :class:`~repro.exceptions.CheckpointError`; the execution
        settings (``n_jobs``, ``max_retries``, ``restart_timeout_s``,
        ``time_budget_s``) may differ.
    seed:
        ``None``, an integer ``>= 0`` or a numpy ``Generator``: the
        source of every random draw.
    """

    k: int
    l: float
    sample_factor: int = 30
    pool_factor: int = 5
    min_deviation: float = 0.1
    max_bad_tries: int = 20
    max_iterations: int = 300
    metric: Union[str, Metric] = "euclidean"
    handle_outliers: bool = True
    fit_sample_size: Optional[int] = None
    dtype: str = "float64"
    restarts: int = field(default=1, metadata=_RUN)
    time_budget_s: Optional[float] = field(default=None, metadata=_RUN)
    n_jobs: int = field(default=1, metadata=_RUN)
    max_retries: int = field(default=2, metadata=_RUN)
    restart_timeout_s: Optional[float] = field(default=None, metadata=_RUN)
    checkpoint_dir: Optional[str] = field(default=None, metadata=_RUN)
    resume: bool = field(default=False, metadata=_RUN)
    seed: SeedLike = field(default=None, metadata=_RUN)

    def checked(self) -> "ProclusConfig":
        """Check every field that does not depend on the data; return ``self``.

        Values are normalised in place (numpy integers to ``int``, the
        dtype to its name).  Any malformed field raises
        :class:`~repro.exceptions.ParameterError`.
        """
        for name in ("k", "sample_factor", "pool_factor", "max_bad_tries",
                     "max_iterations", "restarts"):
            setattr(self, name,
                    check_positive_int(getattr(self, name), name=name))
        for name in ("handle_outliers", "resume"):
            setattr(self, name, check_flag(getattr(self, name), name=name))
        for name in ("time_budget_s", "restart_timeout_s"):
            setattr(self, name,
                    check_time_budget(getattr(self, name), name=name))
        if not np.isfinite(check_real(self.l, name="l")):
            raise ParameterError(f"l must be finite; got {self.l}")
        if self.pool_factor > self.sample_factor:
            raise ParameterError(
                "pool_factor (B) must be <= sample_factor (A); got "
                f"B={self.pool_factor}, A={self.sample_factor}"
            )
        self.min_deviation = check_fraction(
            self.min_deviation, name="min_deviation", inclusive_high=False
        )
        get_metric(self.metric)
        if self.fit_sample_size is not None:
            self.fit_sample_size = check_positive_int(
                self.fit_sample_size, name="fit_sample_size")
        self.dtype = check_dtype(self.dtype)
        self.n_jobs = check_n_jobs(self.n_jobs)
        self.max_retries = check_max_retries(self.max_retries)
        if self.checkpoint_dir is not None:
            check_path(self.checkpoint_dir, name="checkpoint_dir")
            self.checkpoint_dir = str(self.checkpoint_dir)
        if self.resume and self.checkpoint_dir is None:
            raise ParameterError("resume=True requires checkpoint_dir to be set")
        self.seed = check_seed(self.seed)
        return self

    def validated(self, n_points: int, n_dims: int) -> "ProclusConfig":
        """:meth:`checked`, then the checks against a dataset shape.

        ``k`` and ``l`` are checked against ``N`` and ``d``, and a
        ``fit_sample_size`` below ``N`` against the initialization's
        ``A * k``.  Returns ``self``.
        """
        self.checked()
        self.k, self.l = check_k_l(self.k, self.l, n_dims, n_points)
        if (self.fit_sample_size is not None
                and self.sample_size > self.fit_sample_size < n_points):
            raise ParameterError(
                f"fit_sample_size={self.fit_sample_size} is smaller than "
                f"the initialization needs (A*k = {self.sample_size})"
            )
        return self

    def restart_params(self) -> Dict[str, Any]:
        """The fields that define what one restart computes, as a dict.

        Every field except the execution settings (``restarts``,
        ``time_budget_s``, ``n_jobs``, ``max_retries``,
        ``restart_timeout_s``, ``checkpoint_dir``, ``resume``, ``seed``).
        The dict crosses the process boundary to restart workers and is
        hashed into a checkpoint's run fingerprint, so a run may resume
        under other execution settings.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.metadata}

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
