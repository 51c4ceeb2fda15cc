"""Input validation helpers shared by every public entry point.

The functions here normalise user input into canonical numpy form and
raise :class:`~repro.exceptions.ParameterError` /
:class:`~repro.exceptions.DataError` with actionable messages.  They are
deliberately small and composable; algorithm modules call them at the top
of their public functions and then assume clean input internally.
"""

from __future__ import annotations

import numbers
import os
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from .dtypes import as_working, check_dtype  # noqa: F401 - re-exported
from .exceptions import DataError, ParameterError

__all__ = [
    "check_array",
    "check_dtype",
    "check_positive_int",
    "check_fraction",
    "check_k_l",
    "check_dimension_subset",
    "check_flag",
    "check_max_retries",
    "check_n_jobs",
    "check_path",
    "check_real",
    "check_same_length",
    "check_seed",
    "check_time_budget",
]


def check_array(X, *, name: str = "X", min_rows: int = 1, min_cols: int = 1,
                allow_1d: bool = False, dtype=None,
                allow_nonfinite: bool = False) -> np.ndarray:
    """Coerce ``X`` to a 2-D float array and validate its contents.

    Parameters
    ----------
    X:
        Array-like of shape ``(n_points, n_dims)`` (or 1-D when
        ``allow_1d`` is true, in which case it is reshaped to a row).
    name:
        Name used in error messages.
    min_rows, min_cols:
        Minimum acceptable shape.
    allow_1d:
        Accept a single point given as a 1-D sequence.
    dtype:
        Target dtype.  ``None`` (default) preserves a float32/float64
        input's *working dtype* and coerces everything else (lists,
        integer arrays, float16, ...) to float64 — see
        :mod:`repro.dtypes`.  Pass an explicit dtype to force a
        conversion (the public ``proclus(..., dtype=...)`` boundary
        does this once; internal call sites preserve).
    allow_nonfinite:
        Skip the NaN/inf content check.  Used by the sanitization
        pipeline (:mod:`repro.robustness`), which needs the shape checks
        but handles bad values itself.

    Returns
    -------
    numpy.ndarray
        A C-contiguous 2-D array of the resolved dtype.

    Raises
    ------
    DataError
        If ``X`` is not numeric, or the array is empty, has the wrong
        rank, or contains NaN/inf.
    """
    try:
        arr = as_working(X) if dtype is None else np.asarray(X, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} is not numeric array data: {exc}")
    if arr.ndim == 1:
        if not allow_1d:
            raise DataError(
                f"{name} must be 2-dimensional (n_points, n_dims); "
                f"got a 1-D array of length {arr.shape[0]}"
            )
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional; got ndim={arr.ndim}")
    if arr.shape[0] < min_rows:
        raise DataError(
            f"{name} must have at least {min_rows} row(s); got {arr.shape[0]}"
        )
    if arr.shape[1] < min_cols:
        raise DataError(
            f"{name} must have at least {min_cols} column(s); got {arr.shape[1]}"
        )
    if not allow_nonfinite and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_positive_int(value, *, name: str, minimum: int = 1,
                       maximum: Optional[int] = None) -> int:
    """Validate an integral parameter and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}; got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}; got {value}")
    return value


def check_seed(value: Any) -> Union[None, int, np.random.Generator]:
    """Validate a seed: ``None``, a numpy ``Generator`` or an int ``>= 0``.

    Bools are rejected.  Returns ``None`` and generators unchanged and
    an integer as ``int``.
    """
    if value is None or isinstance(value, np.random.Generator):
        return value
    return check_positive_int(value, name="seed", minimum=0)


def check_path(value: Any, *, name: str = "path") -> Path:
    """Validate a filesystem path (``str`` or ``os.PathLike``)."""
    if not isinstance(value, (str, os.PathLike)):
        raise ParameterError(f"{name} must be a path; got {value!r}")
    return Path(value)


def check_real(value, *, name: str) -> float:
    """Validate a real number (not a bool or a string) and return a float."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, numbers.Real)):
        raise ParameterError(f"{name} must be a number; got {value!r}")
    return float(value)


def check_flag(value, *, name: str) -> bool:
    """Validate a boolean switch: ``True`` or ``False`` (numpy bools too)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"{name} must be True or False; got {value!r}")
    return bool(value)


def check_fraction(value, *, name: str, inclusive_low: bool = True,
                   inclusive_high: bool = True) -> float:
    """Validate a float in [0, 1] (bounds optionally exclusive)."""
    value = check_real(value, name=name)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        interval = (("[" if inclusive_low else "(") + "0, 1"
                    + ("]" if inclusive_high else ")"))
        raise ParameterError(f"{name} must lie in {interval}; got {value}")
    return value


def check_k_l(k, l, n_dims: int, n_points: Optional[int] = None) -> tuple:
    """Validate PROCLUS's ``k`` (clusters) and ``l`` (average dims).

    The paper requires ``l >= 2`` per cluster (so average ``l >= 2``),
    ``l <= d``, and that ``k * l`` is integral.  ``l`` may be fractional
    as long as ``k * l`` is a whole number.
    """
    k = check_positive_int(k, name="k", minimum=1)
    try:
        l = float(l)
    except (TypeError, ValueError):
        raise ParameterError(f"l must be numeric; got {l!r}")
    if l < 2:
        raise ParameterError(f"l (average cluster dimensionality) must be >= 2; got {l}")
    if l > n_dims:
        raise ParameterError(
            f"l must be <= data dimensionality d={n_dims}; got {l}"
        )
    total = k * l
    if abs(total - round(total)) > 1e-9:
        raise ParameterError(
            f"k * l must be integral (paper, section 1); got k={k}, l={l}"
        )
    if n_points is not None and k > n_points:
        raise ParameterError(
            f"k={k} exceeds the number of data points N={n_points}"
        )
    return k, l


def check_dimension_subset(dims: Iterable[int], n_dims: int, *,
                           name: str = "dims") -> np.ndarray:
    """Validate a set of dimension indices against dimensionality ``n_dims``."""
    arr = np.asarray(sorted(set(int(j) for j in dims)), dtype=np.intp)
    if arr.size == 0:
        raise ParameterError(f"{name} must be non-empty")
    if arr[0] < 0 or arr[-1] >= n_dims:
        raise ParameterError(
            f"{name} must contain indices in [0, {n_dims - 1}]; got {arr.tolist()}"
        )
    return arr


def check_time_budget(value, *, name: str = "time_budget_s"):
    """Validate an optional wall-clock budget: ``None`` or a float >= 0."""
    if value is None:
        return None
    value = check_real(value, name=name)
    if not np.isfinite(value) or value < 0:
        raise ParameterError(f"{name} must be >= 0 and finite; got {value}")
    return value


def check_n_jobs(value, *, name: str = "n_jobs") -> int:
    """Validate a worker-count knob: an int ``>= 1``, or ``-1`` (all cores).

    The knob sizes the restart pool and the experiment-grid threads.
    Returns the value unchanged (``-1`` is resolved to a concrete core
    count later, by :func:`repro.perf.parallel.resolve_n_jobs`).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value == 0 or value < -1:
        raise ParameterError(
            f"{name} must be >= 1, or -1 for all cores; got {value}"
        )
    return value


def check_max_retries(value, *, name: str = "max_retries") -> int:
    """Validate a retry budget: an integer ``>= 0`` (0 disables retries)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0; got {value}")
    return value


def check_same_length(a: Sequence, b: Sequence, *, names=("a", "b")) -> None:
    """Raise :class:`DataError` unless ``len(a) == len(b)``."""
    if len(a) != len(b):
        raise DataError(
            f"{names[0]} and {names[1]} must have equal length; "
            f"got {len(a)} and {len(b)}"
        )
