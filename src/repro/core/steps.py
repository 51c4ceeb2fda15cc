"""The hill climb's step functions, validating their input.

:func:`~repro.core.iterative.run_iterative_phase` validates ``X`` once
per phase and then calls
:func:`~repro.core.dimensions.compute_localities`,
:func:`~repro.core.dimensions.find_dimensions`,
:func:`~repro.core.assignment.assign_points` and
:func:`~repro.core.objective.evaluate_clusters` on every vertex, so
those skip the ``N x d`` finiteness scan.  :mod:`repro.core` exports the
forms below instead: each runs :func:`~repro.validation.check_array` on
``X`` first, so data from outside the program still raises
:class:`~repro.exceptions.DataError`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, TypeVar, cast

from ..validation import check_array
from . import assignment, dimensions, objective

__all__ = ["compute_localities", "find_dimensions", "assign_points",
           "evaluate_clusters"]

_Step = TypeVar("_Step", bound=Callable[..., Any])


def _validating(step: _Step, min_rows: int = 1) -> _Step:
    """``step`` with its first argument ``X`` checked by ``check_array``."""
    @functools.wraps(step)
    def checked(X: Any, *args: Any, **kwargs: Any) -> Any:
        return step(check_array(X, name="X", min_rows=min_rows),
                    *args, **kwargs)
    return cast(_Step, checked)


compute_localities = _validating(dimensions.compute_localities)
find_dimensions = _validating(dimensions.find_dimensions)
assign_points = _validating(assignment.assign_points)
# an empty clustering stays the step's own ParameterError
evaluate_clusters = _validating(objective.evaluate_clusters, min_rows=0)
