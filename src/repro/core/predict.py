"""Assign *new* points to a fitted PROCLUS clustering (the predict path).

The paper fits a clustering once over a database; a production system
then has to answer "which projected cluster does this fresh record
belong to?" continuously, without refitting.  This module is that
inference core, shared by
:meth:`repro.core.result.ProclusResult.predict` and the hardened query
server in :mod:`repro.serve`.  A :class:`FittedModel` holds what
predict derives from a fit (checked medoids, dimension sets, spheres
and the kernel's segment layout); :func:`predict_points` builds one per
call, the server one per model load.

Semantics mirror the refinement phase (paper section 2.3) exactly:

* every query point is assigned to the medoid with the smallest
  **Manhattan segmental distance** measured in that medoid's own
  dimension set ``D_i``;
* a point is an **outlier** (label ``-1``) when its segmental distance
  to every medoid ``i`` exceeds that medoid's *sphere of influence*
  ``Delta_i = min_{j != i} d_{D_i}(m_i, m_j)`` — the same strict ``>``
  rule the refinement pass applies.

Because the distance kernel, the spheres, and the nearest-medoid scan
(with its first-index tie-break) are the ones the fit itself used,
``predict(X_train)`` on a clean fit is **bit-identical** to
``result.labels`` — across working dtypes and serial/parallel fits
(test-enforced).  Queries compute natively in the
fitted working dtype.

**One pass per row block.**  :meth:`FittedModel.predict` walks the batch in
equal row blocks sized by the segmental kernel's own rule
(:func:`~repro.robustness.guards.row_block_size`), so every
``segmental_columns`` call runs exactly one kernel block (under a
budget at most the default).  Each block
is checked for NaN/inf (under ``on_bad_values="raise"``), gets its
``k`` distance columns in a reused scratch, and is labelled by the
nearest-medoid scan and the outlier test while those columns are still
in cache; no ``(N, k)`` matrix is built unless ``return_distances``
asks for it.  Rows are independent, so block boundaries never change a
bit of the output.

Each block first polls an optional per-call wall-clock
:class:`~repro.robustness.guards.Deadline`: when the budget expires
mid-batch the partial result is *discarded* and a typed
:class:`~repro.exceptions.BudgetExceededError` is raised — a serving
layer must never return half-assigned batches as if they were whole.
A deadline that expires before the block holding a bad value is
reached raises that error rather than the bad value's
:class:`~repro.exceptions.ParameterError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..data.dataset import OUTLIER_LABEL
from ..exceptions import DegenerateDataError, ParameterError
from ..obs import get_tracer
from ..perf.kernels import (SegmentalLayout, nearest_medoid,
                            segmental_columns, segmental_layout)
from ..robustness.guards import Deadline, row_block_size
from ..validation import check_array, check_positive_int
from .refinement import detect_outliers, spheres_of_influence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..robustness.sanitize import SanitizationReport

__all__ = ["FittedModel", "PredictReport", "predict_points",
           "normalize_dimension_sets", "DEFAULT_PREDICT_CHUNK"]

#: Most rows in one block of the predict loop.  The block is the
#: segmental kernel's own (about 1 MiB of queries), capped by this or
#: by a caller's ``chunk_size``.  Block boundaries never change a bit of
#: the output (rows are independent); they bound peak memory and set
#: how often the deadline is polled.
DEFAULT_PREDICT_CHUNK: int = 8192

DimensionSets = Union[Mapping[int, Sequence[int]], Sequence[Sequence[int]]]


@dataclass
class PredictReport:
    """Labels and diagnostics for one predict batch.

    Attributes
    ----------
    labels:
        ``(n_points,)`` int64 array of cluster ids ``0..k-1`` or ``-1``
        for outliers, in the *caller's* row order (rows a sanitization
        policy dropped are labelled ``-1``).
    n_points / n_outliers:
        Batch size (original rows) and how many rows ended up labelled
        ``-1``.
    spheres:
        The per-medoid spheres of influence used for the outlier test
        (``inf`` for ``k == 1``: a lone medoid rejects nothing).
    sanitization:
        The :class:`~repro.robustness.sanitize.SanitizationReport` when
        a non-``"raise"`` bad-value policy inspected the batch, else
        ``None``.
    distances:
        The ``(n_clean, k)`` segmental-distance matrix when
        ``return_distances=True`` was requested, else ``None`` (row
        order follows the sanitized matrix, not the caller's).
    warnings:
        Human-readable notes (sanitization modifications, degenerate
        batches); the serving layer forwards these in the response body.
    """

    labels: np.ndarray
    n_points: int
    n_outliers: int
    spheres: np.ndarray
    sanitization: Optional["SanitizationReport"] = None
    distances: Optional[np.ndarray] = None
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (the wire shape the query server returns)."""
        return {
            "labels": [int(v) for v in self.labels],
            "n_points": int(self.n_points),
            "n_outliers": int(self.n_outliers),
            "warnings": list(self.warnings),
        }


def normalize_dimension_sets(dimensions: DimensionSets, k: int,
                             d: int) -> List[Tuple[int, ...]]:
    """Validate and order per-cluster dimension sets for ``k`` medoids.

    Accepts the :attr:`ProclusResult.dimensions` mapping (cluster id ->
    dims) or a plain sequence; returns one sorted tuple per cluster id
    ``0..k-1``.  Missing ids, empty sets, or out-of-range dimension
    indices raise :class:`~repro.exceptions.ParameterError`.
    """
    ordered: List[Sequence[int]]
    if isinstance(dimensions, Mapping):
        try:
            ordered = [dimensions[i] for i in range(k)]
        except KeyError as exc:
            raise ParameterError(
                f"dimensions mapping is missing cluster id {exc} "
                f"(need ids 0..{k - 1})"
            )
    else:
        ordered = list(dimensions)
        if len(ordered) != k:
            raise ParameterError(
                f"need one dimension set per medoid; got {len(ordered)} "
                f"for k={k}"
            )
    out: List[Tuple[int, ...]] = []
    for cid, dims in enumerate(ordered):
        dim_tuple = tuple(sorted(int(j) for j in dims))
        if not dim_tuple:
            raise ParameterError(f"cluster {cid} has an empty dimension set")
        if dim_tuple[0] < 0 or dim_tuple[-1] >= d:
            raise ParameterError(
                f"cluster {cid} has dimension indices outside [0, {d - 1}]: "
                f"{list(dim_tuple)}"
            )
        out.append(dim_tuple)
    return out


def _coerce_queries(X: Any, d: int, dtype: np.dtype,
                    max_points: Optional[int]) -> np.ndarray:
    """Shape/size-validate a query batch into fitted-dtype matrix form.

    Every rejection is a typed :class:`~repro.exceptions.ParameterError`
    so the serving layer can map it to a structured HTTP 400 — a
    malformed query must never surface as an internal error.  Content
    (NaN/inf) is *not* checked here; that is the bad-value policy's job.
    """
    try:
        arr = np.asarray(X)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"query batch is not numeric matrix data: {exc}")
    # casting would drop the imaginary part with only a ComplexWarning
    if arr.dtype.kind == "c":
        raise ParameterError("query batch is complex; expected real values")
    try:
        arr = arr.astype(dtype, copy=False)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"query batch is not numeric matrix data: {exc}")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ParameterError(
            "query batch must be 2-dimensional (n_points, d); got "
            f"ndim={arr.ndim}"
        )
    if arr.shape[0] == 0:
        raise ParameterError("query batch is empty")
    if arr.shape[1] != d:
        raise ParameterError(
            f"query batch has {arr.shape[1]} dimension(s); the fitted "
            f"model expects d={d}"
        )
    if max_points is not None:
        check_positive_int(max_points, name="max_points", minimum=1)
        if arr.shape[0] > max_points:
            raise ParameterError(
                f"query batch has {arr.shape[0]} points; at most "
                f"{max_points} are accepted per request"
            )
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class FittedModel:
    """A fitted clustering, prepared for predict.

    Everything the predict loop derives from ``(medoids, dimensions)``,
    derived once by :meth:`build`: the checked medoids, one sorted
    dimension set per medoid, the spheres of influence and the
    segmental kernel's :class:`~repro.perf.kernels.SegmentalLayout`.
    :func:`predict_points` builds one per call; the query server builds
    one per model load and runs every request on it.

    Attributes
    ----------
    medoids:
        ``(k, d)`` medoid coordinates in the fitted working dtype.
    dim_sets:
        One sorted dimension tuple per medoid.
    spheres:
        The per-medoid spheres of influence (``inf`` for ``k == 1``: a
        lone medoid rejects nothing).
    layout:
        The medoids' segment layout, shared by every block's kernel call.
    """

    medoids: np.ndarray
    dim_sets: Tuple[Tuple[int, ...], ...]
    spheres: np.ndarray
    layout: SegmentalLayout

    @classmethod
    def build(cls, medoids: np.ndarray,
              dimensions: DimensionSets) -> "FittedModel":
        """Check ``medoids`` and ``dimensions`` and derive the rest.

        Non-finite or malformed medoids raise
        :class:`~repro.exceptions.DataError`; bad dimension sets raise
        :class:`~repro.exceptions.ParameterError` (see
        :func:`normalize_dimension_sets`).  The medoids are finite, so
        no sphere is NaN.
        """
        medoid_arr = check_array(medoids, name="medoids")
        k, d = medoid_arr.shape
        dim_sets = tuple(normalize_dimension_sets(dimensions, k, d))
        return cls(medoid_arr, dim_sets,
                   spheres_of_influence(medoid_arr, dim_sets),
                   segmental_layout(medoid_arr, dim_sets))

    def predict(
        self,
        X: Any,
        *,
        handle_outliers: bool = True,
        on_bad_values: str = "raise",
        max_points: Optional[int] = None,
        chunk_size: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        return_distances: bool = False,
    ) -> PredictReport:
        """Assign a batch of new points to this model.

        Parameters
        ----------
        X:
            Query batch ``(n, d)`` (a single ``(d,)`` point is accepted
            and treated as one row).
        handle_outliers:
            Apply the refinement phase's sphere-of-influence rule and
            label rejected points ``-1``.  Disable for fits that ran
            with ``handle_outliers=False``, whose training labels were
            produced without the rule.
        on_bad_values:
            NaN/inf policy for the *queries*: ``"raise"`` (default)
            rejects the batch with
            :class:`~repro.exceptions.ParameterError`; ``"drop"`` labels
            affected rows ``-1``; ``"impute_median"`` / ``"clip"``
            repair cells from the batch's own column statistics.
        max_points:
            Reject batches larger than this (request-size admission for
            the serving layer).
        chunk_size:
            Most rows per block (default :data:`DEFAULT_PREDICT_CHUNK`);
            the kernel's own block size applies when it is smaller.
            Never changes the output bits; bounds memory and sets the
            deadline polling granularity.
        memory_budget_bytes:
            Caps the kernel temporaries of one row block (default:
            :data:`~repro.robustness.guards.DEFAULT_MEMORY_BUDGET_BYTES`);
            a smaller budget means smaller blocks.
        deadline:
            Optional wall-clock budget.  Expiry *between* blocks
            discards the partial batch and raises
            :class:`~repro.exceptions.BudgetExceededError` — the caller
            gets all assignments or none.
        return_distances:
            Also keep the full ``(n_clean, k)`` distance matrix on the
            report.

        Returns
        -------
        PredictReport
            Labels in the caller's row order plus diagnostics.
        """
        k, d = self.medoids.shape
        queries = _coerce_queries(X, d, self.medoids.dtype, max_points)
        n_original = int(queries.shape[0])
        report: Optional["SanitizationReport"] = None
        # "raise" checks finiteness block by block in the loop below
        check_finite = on_bad_values == "raise"
        if not check_finite:
            from ..robustness.sanitize import sanitize

            try:
                queries, report = sanitize(
                    queries, on_bad_values=on_bad_values,
                    collapse_duplicates=False, detect_constant_dims=False,
                    warn=False, dtype=self.medoids.dtype)
            except DegenerateDataError:
                # every row was dropped by the policy: nothing to assign
                # — the whole batch is outliers by construction, not an
                # error
                return PredictReport(
                    labels=np.full(n_original, OUTLIER_LABEL,
                                   dtype=np.int64),
                    n_points=n_original,
                    n_outliers=n_original,
                    spheres=self.spheres,
                    warnings=["every query row was dropped by the "
                              "bad-value policy; the whole batch is "
                              "labelled -1"],
                )

        n = int(queries.shape[0])
        cap = (DEFAULT_PREDICT_CHUNK if chunk_size is None
               else check_positive_int(chunk_size, name="chunk_size",
                                       minimum=1))
        # the kernel's own block rule, capped: each segmental_columns
        # call below runs exactly one kernel block
        step = row_block_size(n, d, sum(self.layout.sizes),
                              queries.dtype.itemsize,
                              memory_budget_bytes=memory_budget_bytes,
                              cap=cap)
        tracer = get_tracer()
        # column-major, like the kernel's own output: each medoid's
        # column is contiguous for the nearest-medoid scan and the
        # outlier test.  Only return_distances keeps every block's
        # columns; otherwise one block's worth is reused.
        dist = np.empty((k, n if return_distances else step),
                        dtype=queries.dtype).T
        clean_labels = np.empty(n, dtype=np.int64)
        with tracer.span("predict", n_points=n, k=k) as span:
            for start in range(0, n, step):
                if deadline is not None:
                    deadline.check("predict")
                block = queries[start:start + step]
                rows = block.shape[0]
                if check_finite and not bool(np.isfinite(block).all()):
                    raise ParameterError(
                        "query batch contains NaN or infinite values; "
                        "pass on_bad_values='drop', 'impute_median', or "
                        "'clip' to sanitize"
                    )
                at = start if return_distances else 0
                block_dist = segmental_columns(
                    block, self.medoids, self.dim_sets,
                    out=dist[at:at + rows], layout=self.layout,
                )
                # the block's k columns are still in cache for both scans
                block_labels = nearest_medoid(block_dist.T)
                if handle_outliers:
                    block_labels[detect_outliers(block_dist.T,
                                                 self.spheres)] = (
                        OUTLIER_LABEL)
                clean_labels[start:start + rows] = block_labels
            if deadline is not None:
                deadline.check("predict")
            span.set(n_outliers=int(np.count_nonzero(
                clean_labels == OUTLIER_LABEL)))

        warnings: List[str] = []
        if report is not None and report.changed:
            labels = report.restore_labels(clean_labels, fill=OUTLIER_LABEL)
            warnings.extend(report.messages)
        else:
            labels = clean_labels
        n_outliers = int(np.count_nonzero(labels == OUTLIER_LABEL))
        if tracer.enabled:
            tracer.count("predict.points", n_original)
            tracer.count("predict.outliers", n_outliers)
        return PredictReport(
            labels=labels,
            n_points=n_original,
            n_outliers=n_outliers,
            spheres=self.spheres,
            sanitization=report,
            distances=dist if return_distances else None,
            warnings=warnings,
        )


def predict_points(X: Any, medoids: np.ndarray, dimensions: DimensionSets,
                   **options: Any) -> PredictReport:
    """Assign a batch of new points to a fitted projected clustering.

    Builds a :class:`FittedModel` from ``medoids`` (``(k, d)``, in the
    fitted working dtype) and ``dimensions`` (the
    :attr:`ProclusResult.dimensions` mapping or a sequence of
    per-cluster dimension sets), then runs :meth:`FittedModel.predict`
    on ``X`` with the keyword ``options`` (``handle_outliers``,
    ``on_bad_values``, ``max_points``, ``chunk_size``,
    ``memory_budget_bytes``, ``deadline``, ``return_distances``; see
    there).  A caller predicting many batches on one model builds the
    model once and calls its ``predict`` instead.
    """
    return FittedModel.build(medoids, dimensions).predict(X, **options)
