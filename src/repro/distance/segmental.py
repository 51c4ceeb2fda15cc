"""Manhattan segmental distance (paper section 1.2).

For a dimension subset ``D`` with ``|D| >= 1``, the Manhattan segmental
distance between points ``x`` and ``y`` is::

    d_D(x, y) = ( sum_{i in D} |x_i - y_i| ) / |D|

i.e. the *average* per-dimension separation over ``D``.  The
normalisation by ``|D|`` is the point: clusters live in subspaces of
different dimensionality, and dividing by ``|D|`` makes distances
relative to different subsets comparable.  (The paper notes there is no
comparably easy normalised variant of the Euclidean metric.)

:func:`segmental_distances_to_point` computes it from many points to one
point relative to one ``D``; the fit's ``AssignPoints`` and predict use
:func:`repro.perf.kernels.segmental_columns`, one column per medoid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..dtypes import as_working
from ..exceptions import DataError
from ..robustness.guards import row_block_size
from ..validation import check_dimension_subset

__all__ = ["segmental_distances_to_point"]


def segmental_distances_to_point(X: np.ndarray, p,
                                 dims: Sequence[int]) -> np.ndarray:
    """Segmental distances from every row of ``X`` to point ``p``.

    Parameters
    ----------
    X:
        Array of shape ``(n, d)``.
    p:
        Point of shape ``(d,)``.
    dims:
        Dimension subset ``D``; an empty one, or one with an index
        outside ``[0, d)``, raises
        :class:`~repro.exceptions.ParameterError`.  A 1-D ``X`` or a
        point of another length than ``d`` raises
        :class:`~repro.exceptions.DataError`.

    Returns
    -------
    numpy.ndarray of shape ``(n,)``, in ``X``'s working dtype.  The
    per-row mean spans only ``|D| <= d`` entries (a short reduction, the
    same rounding exposure for every row), so it runs natively in the
    working dtype — values are compared against each other, never
    against a float64 branch of the same quantity.  Rows are walked in
    the cache-sized blocks of
    :func:`~repro.robustness.guards.row_block_size` (about 1 MiB of
    ``X``, which measured fastest at N=50k, d=20); each row's mean is
    its own, so the values equal ``np.abs(X[:, D] - p[D]).mean(axis=1)``.
    """
    d = np.asarray(list(dims), dtype=np.intp)
    X = as_working(X)
    if X.ndim != 2:
        raise DataError(f"X must be 2-dimensional; got ndim={X.ndim}")
    point = np.asarray(p, dtype=X.dtype).ravel()
    if point.size != X.shape[1]:
        raise DataError(
            f"p must have X's {X.shape[1]} dimensions; got {point.size}"
        )
    # validated only: D is summed in the caller's order, as given
    check_dimension_subset(d, X.shape[1])
    target = point[d]
    n = X.shape[0]
    out = np.empty(n, dtype=X.dtype)
    step = row_block_size(n, X.shape[1], d.size, X.dtype.itemsize)
    for start in range(0, n, step):
        out[start:start + step] = np.abs(
            X[start:start + step, d] - target).mean(axis=1)
    return out
