"""Parallel execution helpers behind the ``n_jobs`` knob.

Nothing here changes a single bit of any result; parallelism buys wall
clock only.  The module holds three pieces:

* :func:`resolve_n_jobs` — turns the user-facing ``n_jobs`` knob into a
  concrete worker count.
* :class:`SharedMatrix` — the zero-copy shared-memory data plane of the
  restart fan-out.  The parent publishes the sanitized ``X`` once via
  :mod:`multiprocessing.shared_memory` and every pool worker attaches a
  read-only view instead of unpickling an ``(N, d)`` array per task.
  The fan-out itself — child seeds, supervision, the order-independent
  ``(iterative_objective, restart_index)`` winner reduction — lives in
  :mod:`repro.robustness.supervisor`.
* :func:`parallel_map` — evaluates independent experiment
  configurations concurrently (ordered results, thread based: the
  runners close over local datasets and report objects, which a process
  pool could not pickle).

``n_jobs`` semantics everywhere: ``1`` (the default) takes the exact
serial code path, ``>= 2`` uses that many workers, ``-1`` uses all
cores (``os.cpu_count()``); worker counts are additionally capped by
the number of tasks.
"""

from __future__ import annotations

import os
import weakref
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - deferred heavy import
    from multiprocessing.shared_memory import SharedMemory

from ..validation import check_n_jobs

__all__ = [
    "resolve_n_jobs",
    "SharedMatrix",
    "parallel_map",
]


def resolve_n_jobs(n_jobs: int, n_tasks: Optional[int] = None) -> int:
    """Turn the user-facing ``n_jobs`` knob into a concrete worker count.

    ``-1`` means all cores; any other value must be ``>= 1``.  The
    result is capped at ``n_tasks`` when given — more workers than
    independent tasks only cost startup time.
    """
    n_jobs = check_n_jobs(n_jobs)
    workers = os.cpu_count() or 1 if n_jobs == -1 else n_jobs
    if n_tasks is not None:
        workers = min(workers, max(1, int(n_tasks)))
    return max(1, workers)


# ----------------------------------------------------------------------
# Shared-memory data plane
# ----------------------------------------------------------------------

#: Per-process cache of attached segments: name -> (SharedMemory, view).
#: Workers serve many restarts from one pool, so each process attaches
#: a given matrix once and reuses the view for every later task.
_ATTACHED: Dict[str, Tuple[object, np.ndarray]] = {}


class SharedMatrix:
    """A matrix published once, attached read-only by workers.

    The parent calls :meth:`publish`, ships the small :attr:`descriptor`
    dict to each task, and :meth:`unlink`\\ s the segment when the
    fan-out is done.  Workers call :meth:`attach` with the descriptor
    and get a read-only ndarray view backed by the shared pages —
    no per-task pickling of the data matrix.
    """

    def __init__(self, shm: "SharedMemory", shape: Tuple[int, ...],
                 dtype: str) -> None:
        self._shm = shm
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self._unlinked = False
        # Leak guard: /dev/shm segments outlive their creator, so a
        # parent that dies between publish() and unlink() would strand
        # the pages until reboot.  The finalizer fires on garbage
        # collection AND at interpreter exit (atexit semantics), and is
        # disarmed by an explicit unlink() so the segment is settled
        # exactly once.
        self._finalizer = weakref.finalize(
            self, _release_segment, shm)

    @classmethod
    def publish(cls, X: np.ndarray) -> "SharedMatrix":
        """Copy ``X`` into a fresh shared-memory segment.

        The segment holds ``X`` in its own (sanitized working) dtype —
        the descriptor carries the dtype string and workers attach with
        it, so a float32 fan-out ships half the shared-memory bytes of
        a float64 one.
        """
        from multiprocessing import shared_memory

        X = np.ascontiguousarray(X)
        shm = shared_memory.SharedMemory(create=True, size=max(1, X.nbytes))
        view = np.ndarray(X.shape, dtype=X.dtype, buffer=shm.buf)
        view[...] = X
        # Freeze the parent-side view: every worker sees these pages, so
        # a stray in-place write after publish would corrupt the fan-out
        # (RPR008 enforces this contract statically).
        view.flags.writeable = False
        return cls(shm, X.shape, X.dtype.str)

    @property
    def descriptor(self) -> Dict[str, object]:
        """Picklable handle a worker needs to attach: name, shape, dtype."""
        return {"name": self._shm.name, "shape": self.shape,
                "dtype": self.dtype}

    @staticmethod
    def attach(descriptor: Dict[str, object]) -> np.ndarray:
        """Worker side: a read-only view of a published matrix.

        Attachments are cached per process: one ``mmap`` per matrix,
        not per task.  Pool workers inherit the parent's resource
        tracker (its fd travels with both fork and spawn start
        methods), so the attach-side registration is an idempotent
        set-insert there and the parent's single :meth:`unlink` settles
        the segment's lifetime.
        """
        name = str(descriptor["name"])
        cached = _ATTACHED.get(name)
        if cached is not None:
            return cached[1]
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        view = np.ndarray(tuple(descriptor["shape"]),
                          dtype=np.dtype(str(descriptor["dtype"])),
                          buffer=shm.buf)
        view.flags.writeable = False
        _ATTACHED[name] = (shm, view)
        return view

    def unlink(self) -> None:
        """Release the segment (parent side, after the fan-out).

        Idempotent: a second call (or the finalizer firing after an
        explicit call) is a no-op, so supervisor retry paths can unlink
        defensively without double-free errors.
        """
        if self._unlinked:
            return
        self._unlinked = True
        self._finalizer.detach()
        _release_segment(self._shm)


def _release_segment(shm: "SharedMemory") -> None:
    """Close and unlink one segment, tolerating prior reclamation."""
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


# ----------------------------------------------------------------------
# Ordered map over independent configurations (experiment grids)
# ----------------------------------------------------------------------

def parallel_map(fn: Callable, items: Sequence, *, n_jobs: int = 1) -> List:
    """``[fn(x) for x in items]`` with results in input order.

    ``n_jobs=1`` is literally the list comprehension (exact serial
    path); otherwise items run on a thread pool.  Threads rather than
    processes because the experiment runners close over locally built
    datasets and report objects — unpicklable, but perfectly shareable
    within a process, and the heavy lifting inside (numpy kernels)
    releases the GIL.  Exceptions propagate to the caller exactly as in
    the serial loop.
    """
    items = list(items)
    workers = resolve_n_jobs(n_jobs, n_tasks=len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
