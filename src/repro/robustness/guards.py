"""Runtime budget guards: wall-clock deadlines and memory estimates.

Two production concerns the paper never had to face:

* **Latency** — the hill climbing (§2.2) has no bounded runtime; under a
  service-level deadline the right behaviour is to return the best
  vertex found so far, not to keep climbing.  :class:`Deadline` carries
  a wall-clock budget through the pipeline; ``run_iterative_phase``
  polls it each iteration and terminates with
  ``terminated_by="deadline"`` instead of raising.
* **Memory** — every pass over the rows of ``X`` (the distance
  kernels, predict, the fit's ``|X - m|`` passes) walks cache-sized row
  blocks from :func:`row_block_size`, the one blocking policy: a block
  spans a few hundred KiB to 1 MiB of ``X``, and fewer rows when its
  temporaries would pass a memory budget (64 MiB by default), so peak
  memory stays bounded without changing any numeric result.

This module deliberately imports nothing beyond numpy and the exception
hierarchy so every other layer (including :mod:`repro.distance`) can
depend on it without cycles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from ..exceptions import BudgetExceededError
from ..validation import check_time_budget

__all__ = [
    "Deadline",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "row_block_size",
    "PASS_BLOCK_BYTES",
    "ROW_BLOCK_BYTES",
]

#: Soft cap on the temporaries of one :func:`row_block_size` block, and
#: on the column-major copy :func:`repro.core.objective.column_major`
#: makes (identical values, bounded peak memory).
DEFAULT_MEMORY_BUDGET_BYTES: int = 64 * 2**20

#: Bytes of ``X`` one block of :func:`row_block_size` spans by default.
#: The segmental kernel selects the dimensions of a transposed block,
#: reading it once per selected dimension, so a block that stays in the
#: per-core L2 cache is read from memory only once; 1 MiB measured
#: fastest at d=20 and d=50, in both dtypes, on a 2-vCPU Xeon (2 MiB L2
#: per core).
ROW_BLOCK_BYTES: int = 1 << 20

#: Bytes of ``X`` one block spans in the fit's passes that hold a few
#: block-sized temporaries at once (the ``|X - m|`` scratch, a tiled
#: medoid, a float64 statistics buffer; a transposed copy): 256 KiB
#: keeps them together in the per-core L2 cache and measured fastest at
#: d=20, in both dtypes, on a 2-vCPU Xeon.
PASS_BLOCK_BYTES: int = 1 << 18


@dataclass(frozen=True)
class Deadline:
    """A wall-clock budget started at a fixed instant.

    ``budget_s=None`` means unlimited: :meth:`expired` is always false
    and :meth:`remaining` is ``inf``, so callers can thread a single
    object through unconditionally.
    """

    budget_s: Optional[float]
    started_at: float

    @classmethod
    def start(cls, budget_s: Optional[float] = None) -> "Deadline":
        """Validate ``budget_s`` and start the clock now."""
        return cls(check_time_budget(budget_s), time.perf_counter())

    @property
    def unlimited(self) -> bool:
        """True when no budget was set."""
        return self.budget_s is None

    def elapsed(self) -> float:
        """Seconds since the deadline was started."""
        return time.perf_counter() - self.started_at

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited; never negative)."""
        if self.unlimited:
            return math.inf
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        """True once the budget has been used up."""
        return not self.unlimited and self.elapsed() >= self.budget_s

    def check(self, what: str = "operation") -> None:
        """Hard enforcement: raise :class:`BudgetExceededError` if expired."""
        if self.expired():
            raise BudgetExceededError(
                f"{what} exceeded its time budget of {self.budget_s:g}s "
                f"(elapsed {self.elapsed():.3f}s)"
            )


def row_block_size(n: int, d: int, n_selected: int, itemsize: int, *,
                   memory_budget_bytes: Optional[int] = None,
                   cap: Optional[int] = None,
                   block_bytes: int = ROW_BLOCK_BYTES) -> int:
    """Rows per block of a cache-blocked pass over ``n`` rows.

    A block spans about ``block_bytes`` of an ``(n, d)`` matrix with
    ``itemsize``-byte entries, fewer rows when the block's
    ``(n_selected, rows)`` temporaries would exceed
    ``memory_budget_bytes`` (default: :data:`DEFAULT_MEMORY_BUDGET_BYTES`),
    and at most ``cap`` rows.  The ``n`` rows are then split into equal
    blocks, so no short tail block pays the per-block call overhead for
    a handful of rows.  Fed back in as ``n`` (other arguments
    unchanged, ``cap`` aside, or with a larger budget), the result is
    one block: predict's blocks, sized under at most the default
    budget, each run :func:`repro.perf.kernels.segmental_columns` as
    one kernel block.
    """
    step = max(1, block_bytes // (max(1, d) * itemsize))
    budget = (DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None
              else int(memory_budget_bytes))
    # a diff array and its elementwise transform: two entries per
    # selected column and row
    per_row = max(1, int(n_selected)) * max(1, int(itemsize)) * 2
    if int(n) * per_row > budget:
        step = min(step, max(1, budget // per_row))
    if cap is not None:
        step = min(step, cap)
    n_blocks = max(1, -(-n // step))
    return max(1, -(-n // n_blocks))
