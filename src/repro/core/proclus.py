"""Public PROCLUS API: estimator class and one-call function.

Example
-------
>>> from repro.data import generate
>>> from repro.core import Proclus
>>> ds = generate(2000, 20, 5, cluster_dim_counts=[7] * 5, seed=7)
>>> result = Proclus(k=5, l=7, seed=7).fit(ds.points)
>>> sorted(result.cluster_sizes().values())  # doctest: +SKIP
[...]
"""

from __future__ import annotations

import inspect
import warnings as _warnings
from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.dataset import Dataset
from ..distance.base import Metric
from ..exceptions import (
    DataError,
    NotFittedError,
    ParameterError,
    SanitizationWarning,
)
from ..obs import get_tracer, maybe_trace, monotonic_s
from ..perf.cache import IterativeCache
from ..perf.parallel import resolve_n_jobs
from ..rng import SeedLike, ensure_rng, spawn
from ..robustness.fallback import kmedoids_fallback, plan_degradation
from ..robustness.guards import Deadline
from ..robustness.sanitize import SanitizationReport, sanitize
from ..validation import check_array, check_flag
from .assignment import assign_points
from .config import ProclusConfig
from .initialization import initialize_medoid_pool
from .iterative import run_iterative_phase
from .objective import evaluate_clusters
from .refinement import refine_clusters
from .result import ProclusResult

__all__ = ["Proclus", "proclus"]


def _fit(X: np.ndarray, config: ProclusConfig, *,
         deadline: Optional[Deadline], exclude_dims: Sequence[int],
         notes: List[str]) -> ProclusResult:
    """Fit on already-sanitized data (the body behind :func:`proclus`).

    ``X`` arrives already converted to ``config.dtype`` by the public
    boundary; the record is validated here against ``X``'s shape.
    """
    config = config.validated(X.shape[0], X.shape[1])
    tracer = get_tracer()
    if config.restarts > 1:
        # Multi-restart runs execute under the fault-tolerant supervisor
        # (crash retry, hang replacement, checkpoint/resume, signal-safe
        # shutdown); both its loops reduce the winner by the
        # order-independent key (iterative_objective, restart_index),
        # which equals the historical serial first-best-wins choice.
        from ..robustness.supervisor import (RunCheckpoint,
                                             run_serial_restarts,
                                             supervise_restarts)

        children = spawn(ensure_rng(config.seed), config.restarts)
        fit_kwargs = dict(config.restart_params(), exclude_dims=exclude_dims)
        checkpoint = None
        if config.checkpoint_dir is not None:
            checkpoint = RunCheckpoint.open(
                config.checkpoint_dir, children=children,
                fit_kwargs=fit_kwargs, resume=config.resume,
            )
        fan_t0 = monotonic_s()
        with tracer.span("restarts", restarts=config.restarts,
                         n_jobs=config.n_jobs):
            if resolve_n_jobs(config.n_jobs, n_tasks=config.restarts) > 1:
                outcome = supervise_restarts(
                    X, children, n_jobs=config.n_jobs, deadline=deadline,
                    fit_kwargs=fit_kwargs, max_retries=config.max_retries,
                    restart_timeout_s=config.restart_timeout_s,
                    checkpoint=checkpoint, profile=tracer.enabled,
                )
            else:
                outcome = run_serial_restarts(
                    X, children, deadline=deadline, fit_kwargs=fit_kwargs,
                    checkpoint=checkpoint,
                )
        best = outcome.best
        # only the winning child's notes survive, as in the historical
        # serial loop; losers' notes describe runs that were discarded
        notes.extend(outcome.winner_notes)
        if outcome.interrupted:
            notes.append(
                f"interrupted by signal after {outcome.completed} of "
                f"{config.restarts} restarts; returning the best completed run"
            )
            best.terminated_by = "signal"
        elif outcome.cancelled:
            notes.append(
                f"time budget exhausted after {outcome.completed} of "
                f"{config.restarts} restarts; returning the best completed run"
            )
        best.parallelism = {
            "n_jobs": config.n_jobs,
            "n_workers": outcome.n_workers,
            "restarts_completed": outcome.completed,
            "restart_seconds": outcome.restart_seconds,
            "wall_seconds": monotonic_s() - fan_t0,
        }
        ft = outcome.fault_tolerance
        if ft is not None and not (
            checkpoint is not None or outcome.interrupted
            or any(ft[key] for key in (
                "retries", "respawns", "timeouts", "corrupt_payloads",
                "salvaged_serial", "resumed_from"))
        ):
            ft = None  # an uneventful run reports no fault diagnostics
        best.fault_tolerance = ft
        return best

    cache_obj = IterativeCache() if config.cache else None
    sample_size = config.fit_sample_size
    if sample_size is not None and sample_size < X.shape[0]:
        rng_sample, rng_fit = spawn(ensure_rng(config.seed), 2)
        sample_idx = rng_sample.choice(
            X.shape[0], size=sample_size, replace=False,
        )
        t0 = monotonic_s()
        with tracer.phase("sample_fit", sample_size=sample_size):
            sub = _fit(
                X[sample_idx],
                replace(config, handle_outliers=False, fit_sample_size=None,
                        seed=rng_fit),
                deadline=deadline, exclude_dims=exclude_dims, notes=notes,
            )
        t_sample_fit = monotonic_s() - t0
        # refinement over the FULL database with the sample's medoids.
        # The sample fit's cache is bound to the subsample, so the full
        # pass gets a fresh one (assignment + refinement share columns
        # for medoids whose dimension set survives).
        t0 = monotonic_s()
        with tracer.phase("refinement"):
            medoid_indices = sample_idx[sub.medoid_indices]
            dim_sets = [sub.dimensions[i] for i in range(config.k)]
            full_labels = assign_points(X, X[medoid_indices], dim_sets,
                                        cache=cache_obj,
                                        medoid_indices=medoid_indices)
            refined = refine_clusters(
                X, full_labels, medoid_indices, config.l,
                fallback_dims=dim_sets,
                handle_outliers=config.handle_outliers,
                exclude_dims=exclude_dims,
                cache=cache_obj,
            )
            objective = evaluate_clusters(X, refined.labels, refined.dim_sets)
        return ProclusResult(
            labels=refined.labels,
            medoids=X[medoid_indices],
            medoid_indices=medoid_indices,
            dimensions={i: d for i, d in enumerate(refined.dim_sets)},
            objective=float(objective),
            iterative_objective=sub.iterative_objective,
            n_iterations=sub.n_iterations,
            n_improvements=sub.n_improvements,
            objective_history=sub.objective_history,
            phase_seconds={
                "sample_fit": t_sample_fit,
                "refinement": monotonic_s() - t0,
            },
            terminated_by=sub.terminated_by,
            cache_stats=(cache_obj.stats_dict()
                         if cache_obj is not None else None),
        )

    rng_init, rng_iter = spawn(ensure_rng(config.seed), 2)

    # Phase 1: initialization ------------------------------------------
    t0 = monotonic_s()
    with tracer.phase("initialization", sample_size=config.sample_size,
                      pool_size=config.pool_size):
        pool = initialize_medoid_pool(
            X, config.sample_size, config.pool_size,
            metric=config.metric, seed=rng_init,
        )
    t_init = monotonic_s() - t0

    # Phase 2: iterative hill climbing ---------------------------------
    phase2 = run_iterative_phase(
        X, pool, config.k, config.l,
        metric=config.metric,
        min_deviation=config.min_deviation,
        max_bad_tries=config.max_bad_tries,
        max_iterations=config.max_iterations,
        seed=rng_iter,
        deadline=deadline,
        exclude_dims=exclude_dims,
        cache=cache_obj,
    )

    # Phase 3: refinement ----------------------------------------------
    t0 = monotonic_s()
    with tracer.phase("refinement"):
        refined = refine_clusters(
            X, phase2.labels, phase2.medoid_indices, config.l,
            fallback_dims=phase2.dim_sets,
            handle_outliers=config.handle_outliers,
            exclude_dims=exclude_dims,
            cache=cache_obj,
        )
        final_objective = evaluate_clusters(X, refined.labels,
                                            refined.dim_sets)
    t_refine = monotonic_s() - t0

    return ProclusResult(
        labels=refined.labels,
        medoids=X[phase2.medoid_indices],
        medoid_indices=phase2.medoid_indices,
        dimensions={i: dims for i, dims in enumerate(refined.dim_sets)},
        objective=float(final_objective),
        iterative_objective=float(phase2.objective),
        n_iterations=phase2.n_iterations,
        n_improvements=phase2.n_improvements,
        objective_history=phase2.objective_history,
        phase_seconds={
            "initialization": t_init,
            "iterative": phase2.seconds,
            "refinement": t_refine,
        },
        terminated_by=phase2.terminated_by,
        cache_stats=(cache_obj.stats_dict()
                     if cache_obj is not None else None),
    )


def proclus(X: Union[np.ndarray, Dataset], k: int, l: float, *,
            sample_factor: int = 30, pool_factor: int = 5,
            min_deviation: float = 0.1, max_bad_tries: int = 20,
            max_iterations: int = 300,
            metric: Union[str, Metric] = "euclidean",
            handle_outliers: bool = True,
            restarts: int = 1,
            fit_sample_size: Optional[int] = None,
            on_bad_values: str = "raise",
            collapse_duplicates: bool = False,
            auto_degrade: bool = False,
            time_budget_s: Optional[float] = None,
            cache: bool = True,
            n_jobs: int = 1,
            max_retries: int = 2,
            restart_timeout_s: Optional[float] = None,
            checkpoint_dir: Optional[str] = None,
            resume: bool = False,
            profile: bool = False,
            dtype: str = "float64",
            seed: SeedLike = None) -> ProclusResult:
    """Run PROCLUS end-to-end and return a :class:`ProclusResult`.

    ``X`` is a data matrix ``(N, d)`` or a :class:`~repro.data.Dataset`.
    ``k``, ``l`` and every other keyword except the four below are the
    fields of :class:`~repro.core.config.ProclusConfig`, which documents
    them.  All keywords are checked before the data is touched: a
    malformed value raises :class:`~repro.exceptions.ParameterError`,
    with or without ``auto_degrade``.

    Parameters
    ----------
    on_bad_values:
        Policy for NaN/inf cells: ``"raise"`` (default — the historical
        behaviour), ``"drop"``, ``"impute_median"``, or ``"clip"``.  Any
        value other than ``"raise"`` runs the sanitization pipeline; the
        returned labels are always in *original* row indexing, with
        dropped rows labelled ``-1``.
    collapse_duplicates:
        Collapse exact duplicate rows before fitting; every duplicate
        inherits its representative's label in the returned result.
    auto_degrade:
        Enable the graceful-degradation ladder for degenerate inputs:
        ``k`` is reduced below the number of distinct points, infeasible
        ``l``/pool factors are clamped, constant dimensions are excluded
        from the Z-score ranking, and — when projected clustering is
        impossible on this data — the full-dimensional
        :func:`~repro.robustness.kmedoids_fallback` is used.  Every
        adjustment is recorded on ``result.warnings`` and flips
        ``result.degraded``.  Default off: degenerate inputs raise, as
        before.
    profile:
        Record a structured observability profile of the fit
        (:mod:`repro.obs`): per-phase wall seconds, hot-path counters,
        and the span/event tree land on ``result.profile`` (a JSON-safe
        dict that survives ``to_dict``/``save_result``/``load_result``).
        Tracing never perturbs the clustering — results are
        bit-identical with ``profile`` on or off.  When a tracer is
        already installed via :func:`repro.obs.use_tracer`, it is used
        (and keeps the raw records) instead of a fresh one.  With
        parallel restarts each worker traces its own fit and the
        winner's worker-side profile is embedded under
        ``result.profile["winner"]``.  Default off: the no-op tracer
        costs nothing measurable.
    """
    config = ProclusConfig(
        k=k, l=l, sample_factor=sample_factor, pool_factor=pool_factor,
        min_deviation=min_deviation, max_bad_tries=max_bad_tries,
        max_iterations=max_iterations, metric=metric,
        handle_outliers=handle_outliers, fit_sample_size=fit_sample_size,
        cache=cache, dtype=dtype, restarts=restarts,
        time_budget_s=time_budget_s, n_jobs=n_jobs, max_retries=max_retries,
        restart_timeout_s=restart_timeout_s, checkpoint_dir=checkpoint_dir,
        resume=resume, seed=seed,
    ).checked()
    collapse_duplicates = check_flag(collapse_duplicates,
                                     name="collapse_duplicates")
    auto_degrade = check_flag(auto_degrade, name="auto_degrade")
    profile = check_flag(profile, name="profile")
    if isinstance(X, Dataset):
        X = X.points
    deadline = (Deadline.start(config.time_budget_s)
                if config.time_budget_s is not None else None)

    notes: List[str] = []
    report: Optional[SanitizationReport] = None
    exclude_dims: Tuple[int, ...] = ()
    degraded = False

    with maybe_trace(profile) as tracer:
        if on_bad_values != "raise" or collapse_duplicates or auto_degrade:
            with tracer.span("sanitize"):
                X, report = sanitize(
                    X, on_bad_values=on_bad_values,
                    collapse_duplicates=collapse_duplicates, warn=False,
                    dtype=config.dtype,
                )
            notes.extend(report.messages)
            degraded = degraded or report.changed
        else:
            # the single sanctioned conversion point: everything below
            # computes natively in the working dtype
            X = check_array(X, name="X", dtype=np.dtype(config.dtype))

        use_kmedoids = False
        if auto_degrade:
            plan = plan_degradation(
                X, config.k, config.l, config.sample_factor,
                config.pool_factor,
                constant_dims=(report.constant_dims
                               if report is not None else ()),
            )
            notes.extend(plan.messages)
            degraded = degraded or plan.degraded
            config = replace(config, k=plan.k, l=plan.l,
                             sample_factor=plan.sample_factor,
                             pool_factor=plan.pool_factor)
            exclude_dims = plan.exclude_dims
            use_kmedoids = plan.use_kmedoids
            if tracer.enabled and plan.degraded:
                tracer.event("degradation_planned", k=plan.k, l=plan.l,
                             use_kmedoids=plan.use_kmedoids,
                             n_excluded_dims=len(plan.exclude_dims))

        if use_kmedoids:
            result = kmedoids_fallback(X, config.k, seed=config.seed,
                                       metric=config.metric)
        else:
            try:
                result = _fit(X, config, deadline=deadline,
                              exclude_dims=exclude_dims, notes=notes)
            except (ParameterError, DataError) as exc:
                if not auto_degrade:
                    raise
                notes.append(
                    f"PROCLUS infeasible on this input ({exc}); falling "
                    "back to full-dimensional k-medoids"
                )
                degraded = True
                tracer.event("kmedoids_fallback", reason=str(exc))
                result = kmedoids_fallback(X, config.k, seed=config.seed,
                                           metric=config.metric)

        if report is not None and report.changed:
            result.labels = report.restore_labels(result.labels)
            result.medoid_indices = report.restore_indices(
                result.medoid_indices)
        result.sanitization = report
        result.warnings = list(result.warnings) + notes
        result.degraded = bool(result.degraded or degraded)
        if tracer.enabled:
            # keep the worker-side profile of a parallel winner nested
            # under the coordinating process's own profile
            winner_profile = result.profile
            result.profile = tracer.profile()
            if winner_profile is not None:
                result.profile["winner"] = winner_profile
    for msg in notes:
        _warnings.warn(msg, SanitizationWarning, stacklevel=2)
    return result


class Proclus:
    """Estimator-style wrapper with ``fit`` / ``fit_predict`` / ``predict``.

    ``Proclus(k, l, **params)`` takes the keywords of :func:`proclus`
    and forwards them to it on every :meth:`fit`; a name
    :func:`proclus` does not take raises
    :class:`~repro.exceptions.ParameterError` here, at construction.
    After :meth:`fit`, the fitted
    :class:`~repro.core.result.ProclusResult` is available as
    :attr:`result_`, with convenience mirrors :attr:`labels_`,
    :attr:`medoids_`, and :attr:`dimensions_`.
    """

    def __init__(self, k: int, l: float, **params: Any) -> None:
        try:
            inspect.signature(proclus).bind(None, k, l, **params)
        except TypeError as exc:
            raise ParameterError(f"Proclus: {exc}") from None
        self.k = k
        self.l = l
        self.params = params
        self.result_: Optional[ProclusResult] = None

    # ------------------------------------------------------------------
    def fit(self, X: Union[np.ndarray, Dataset]) -> "Proclus":
        """Cluster ``X`` (array or Dataset); returns ``self``."""
        self.result_ = proclus(X, self.k, self.l, **self.params)
        return self

    def fit_predict(self, X: Union[np.ndarray, Dataset]) -> np.ndarray:
        """Fit and return the label array."""
        return self.fit(X).labels_

    def predict(self, X: Union[np.ndarray, Dataset]) -> np.ndarray:
        """Assign *new* points to the fitted medoids (no outlier logic).

        :meth:`ProclusResult.predict
        <repro.core.result.ProclusResult.predict>` with
        ``handle_outliers=False``.
        """
        if isinstance(X, Dataset):
            X = X.points
        return self._fitted().predict(X, handle_outliers=False)

    # ------------------------------------------------------------------
    def _fitted(self) -> ProclusResult:
        if self.result_ is None:
            raise NotFittedError("call fit() before accessing results")
        return self.result_

    @property
    def labels_(self) -> np.ndarray:
        """Labels from the last ``fit`` (``-1`` marks outliers)."""
        return self._fitted().labels

    @property
    def medoids_(self) -> np.ndarray:
        """Medoid coordinates from the last ``fit``."""
        return self._fitted().medoids

    @property
    def dimensions_(self) -> dict:
        """Per-cluster dimension sets from the last ``fit``."""
        return self._fitted().dimensions

    @property
    def objective_(self) -> float:
        """Final objective value from the last ``fit``."""
        return self._fitted().objective

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Proclus(k={self.k}, l={self.l})"
