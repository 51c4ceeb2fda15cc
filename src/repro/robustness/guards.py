"""Runtime budget guards: wall-clock deadlines and memory estimates.

Two production concerns the paper never had to face:

* **Latency** — the hill climbing (§2.2) has no bounded runtime; under a
  service-level deadline the right behaviour is to return the best
  vertex found so far, not to keep climbing.  :class:`Deadline` carries
  a wall-clock budget through the pipeline; ``run_iterative_phase``
  polls it each iteration and terminates with
  ``terminated_by="deadline"`` instead of raising.
* **Memory** — distance kernels materialise ``O(n * d)`` temporaries per
  anchor.  :func:`resolve_row_chunk` estimates that footprint and tells
  :mod:`repro.distance.matrix` to fall back to row-chunked computation
  past a threshold, keeping peak memory bounded without changing any
  numeric result.  :func:`row_block_size` sizes the cache-blocked
  passes (the segmental kernel, predict, the fit's ``|X - m|`` passes)
  within that budget.

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
    "estimate_cross_distance_temp_bytes",
    "resolve_row_chunk",
    "row_block_size",
    "PASS_BLOCK_BYTES",
    "ROW_BLOCK_BYTES",
]

#: Soft cap on per-call temporary allocations in the distance kernels.
#: Past this, :func:`repro.distance.matrix.cross_distances` switches to
#: row-chunked computation (identical values, bounded peak memory).
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


def estimate_cross_distance_temp_bytes(n_rows: int, n_cols: int,
                                       itemsize: int = 8) -> int:
    """Peak temporary bytes for one anchor pass over an ``(n, d)`` block.

    The Lp kernels allocate a diff array and its elementwise transform —
    two temporaries of the block's shape in the working dtype
    (``itemsize`` bytes per element; 8 for the float64 default, 4 when
    the kernel runs in float32).
    """
    return int(n_rows) * max(1, int(n_cols)) * max(1, int(itemsize)) * 2


def resolve_row_chunk(n_rows: int, n_cols: int,
                      memory_budget_bytes: Optional[int] = None, *,
                      itemsize: int = 8) -> Optional[int]:
    """Rows per chunk to keep distance temporaries under budget.

    Returns ``None`` when the whole block fits (the caller should use its
    unchunked fast path), otherwise the largest row count whose
    temporaries stay within ``memory_budget_bytes`` (at least 1).
    ``itemsize`` is the working dtype's element size — a float32 kernel
    (4-byte items) fits twice the rows of a float64 one in the same
    budget.
    """
    budget = (DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None
              else int(memory_budget_bytes))
    if estimate_cross_distance_temp_bytes(n_rows, n_cols, itemsize) <= budget:
        return None
    per_row = estimate_cross_distance_temp_bytes(1, n_cols, itemsize)
    return max(1, budget // per_row)


def row_block_size(n: int, d: int, n_selected: int, itemsize: int, *,
                   memory_budget_bytes: Optional[int] = None,
                   cap: Optional[int] = None,
                   block_bytes: int = ROW_BLOCK_BYTES) -> int:
    """Rows per block of a cache-blocked pass over ``n`` rows.

    A block spans about ``block_bytes`` of an ``(n, d)`` matrix with
    ``itemsize``-byte entries, fewer rows when the block's
    ``(n_selected, rows)`` temporaries would exceed
    ``memory_budget_bytes`` (see :func:`resolve_row_chunk`), and at
    most ``cap`` rows.  The ``n`` rows are then split into equal
    blocks, so no short tail block pays the per-block call overhead for
    a handful of rows.  Fed back in as ``n`` (other arguments
    unchanged, ``cap`` aside), the result is one block: a caller
    walking rows in blocks of this size runs
    :func:`repro.perf.kernels.segmental_columns` as one kernel block
    per call.
    """
    step = max(1, block_bytes // (max(1, d) * itemsize))
    chunk = resolve_row_chunk(n, n_selected, memory_budget_bytes,
                              itemsize=itemsize)
    if chunk is not None:
        step = min(step, chunk)
    if cap is not None:
        step = min(step, cap)
    n_blocks = max(1, -(-n // step))
    return max(1, -(-n // n_blocks))
