"""Point assignment (paper Figure 5).

Every point goes to the medoid with the smallest **Manhattan segmental
distance** relative to that medoid's dimension set ``D_i`` — a single
pass over the database.  The batch form below computes the full
``(N, k)`` segmental-distance matrix through the multi-medoid kernel
(:func:`repro.perf.kernels.segmental_columns` — each medoid's
dimensions read as rows of the transposed data block and summed in
``np.add.reduceat``'s order, ``O(N * k * l)`` work) and also backs the
refinement phase's outlier test.  The matrix is column-major and is
consumed as its ``k`` columns, so the nearest medoid is found by a
column scan (:func:`repro.perf.kernels.nearest_medoid`) with
``np.argmin``'s first-index tie rule.  During hill climbing an
:class:`~repro.perf.cache.IterativeCache` hands out the stored columns
of medoids that kept both their row and their dimension set since the
previous vertex, without assembling a matrix.  New points are assigned
in bounded-memory row blocks by
:func:`~repro.core.predict.predict_points`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import as_working
from ..exceptions import ParameterError
from ..perf.kernels import Columns, nearest_medoid, segmental_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..perf.cache import IterativeCache

__all__ = ["segmental_distance_columns", "assign_points"]


def segmental_distance_columns(X: np.ndarray, medoids: np.ndarray,
                               dim_sets: Sequence[Sequence[int]], *,
                               cache: Optional["IterativeCache"] = None,
                               medoid_indices: Optional[np.ndarray] = None,
                               Xc: Optional[np.ndarray] = None,
                               ) -> Columns:
    """The ``k`` segmental distance columns, one per medoid.

    Column ``i`` uses medoid ``i``'s own dimension set ``D_i``, as the
    paper's assignment requires.  When ``cache`` *and* the medoids' row
    indices into ``X`` are provided, the cache's stored columns are
    handed out where possible (read-only, bit-identical to the direct
    computation); otherwise the kernel's column-major matrix is passed
    as its columns.  ``Xc`` is
    :func:`~repro.core.objective.column_major` of ``X`` when the caller
    holds it: the kernel then reads its transpose, whose row blocks
    hold each dimension contiguously, with identical results.  ``X`` is
    not validated here: callers validate it once per phase.
    """
    X = as_working(X)
    medoids = np.atleast_2d(np.asarray(medoids, dtype=X.dtype))
    k = medoids.shape[0]
    if len(dim_sets) != k:
        raise ParameterError(
            f"need one dimension set per medoid; got {len(dim_sets)} for k={k}"
        )
    if cache is not None and medoid_indices is not None:
        return cache.segmental_matrix(X, medoid_indices, dim_sets, Xc=Xc)
    return segmental_columns(X if Xc is None else Xc.T, medoids,
                             dim_sets).T


def assign_points(X: np.ndarray, medoids: np.ndarray,
                  dim_sets: Sequence[Sequence[int]],
                  return_distances: bool = False, *,
                  cache: Optional["IterativeCache"] = None,
                  medoid_indices: Optional[np.ndarray] = None,
                  Xc: Optional[np.ndarray] = None,
                  ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Assign every point to its segmentally-closest medoid.

    Returns the label array (ids ``0..k-1``); with
    ``return_distances=True`` also returns the column-major ``(N, k)``
    distance matrix so callers (objective evaluation, outlier
    detection) can reuse it without a second pass.
    ``cache``/``medoid_indices``/``Xc`` are forwarded to
    :func:`segmental_distance_columns`.  ``X`` is not validated here:
    the hill climb validates it once per phase, and the
    :mod:`repro.core` export validates it first.
    """
    columns = segmental_distance_columns(X, medoids, dim_sets,
                                         cache=cache,
                                         medoid_indices=medoid_indices,
                                         Xc=Xc)
    labels = nearest_medoid(columns)
    if return_distances:
        return labels, np.asarray(columns).T
    return labels
