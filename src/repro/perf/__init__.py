"""Performance layer: hot-path caches and batched kernels.

The iterative phase (paper §2.2) re-evaluates a full vertex — medoid
distances, localities, dimension statistics, segmental assignment —
on every hill-climbing step, even though a step changes only the bad
medoids (typically 1–2 of ``k``).  This package holds the machinery
that exploits that incrementality without changing a single bit of the
output:

* :mod:`repro.perf.kernels` — the multi-medoid Manhattan segmental
  kernel: each medoid's dimensions are read as rows of the transposed
  data block and summed in ``np.add.reduceat``'s pairwise order (bit
  for bit), into a column-major ``(N, k)`` matrix that
  :func:`~repro.perf.kernels.nearest_medoid` scans column by column;
* :mod:`repro.perf.cache` — :class:`IterativeCache`, a byte-bounded
  LRU cache of per-medoid distance columns, segmental columns, and
  locality statistics, keyed by medoid row index (and dimension set)
  so only the columns of swapped medoids are recomputed;
* :mod:`repro.perf.parallel` — helpers behind the ``n_jobs`` knob:
  :func:`~repro.perf.parallel.resolve_n_jobs`, the shared-memory data
  plane (:class:`~repro.perf.parallel.SharedMatrix`) that the restart
  supervisor (:mod:`repro.robustness.supervisor`) publishes ``X``
  through, and an ordered :func:`~repro.perf.parallel.parallel_map` for
  experiment grids.  The knob's default (``1``) is the exact serial
  code path.

Everything here is exact: a cache hit and a recomputation produce
bit-identical results (enforced by the tier-1 property suite), and so
do serial and parallel ones.
"""

from __future__ import annotations

from .cache import CacheStats, IterativeCache
from .kernels import build_dims_layout, nearest_medoid, segmental_columns
from .parallel import (
    SharedMatrix,
    parallel_map,
    resolve_n_jobs,
)

__all__ = [
    "IterativeCache",
    "CacheStats",
    "segmental_columns",
    "nearest_medoid",
    "build_dims_layout",
    "SharedMatrix",
    "parallel_map",
    "resolve_n_jobs",
]
