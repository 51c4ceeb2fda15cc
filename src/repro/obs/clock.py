"""The sanctioned monotonic-clock seam for the numeric core.

RPR002 forbids raw clock reads (``time.perf_counter``, ``time.monotonic``,
wall-clock calls) inside the determinism-scoped directories: a stray
timestamp feeding a result value silently breaks serial/parallel and
cache hit/miss bit-identity, and scattering clock calls makes that
impossible to audit.  All duration measurement in ``core``/``perf``/
``distance`` therefore goes through this one function, which the lint
rule recognises as the single legal source of monotonic time.

The seam is intentionally trivial — the value is that there is exactly
one of it.  Timings taken here feed *diagnostics only* (``phase_seconds``,
tracer spans, deadline bookkeeping), never cluster assignments.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_s"]


def monotonic_s() -> float:
    """Seconds on a monotonic high-resolution clock.

    The reference point is arbitrary (process start, roughly); only
    differences between two reads are meaningful.
    """
    return time.perf_counter()
