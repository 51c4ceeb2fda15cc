"""Robustness layer: sanitization, budgets, degradation, fault injection.

The PROCLUS reproduction's graceful-degradation subsystem, in four
parts:

* :mod:`~repro.robustness.sanitize` — configurable input sanitization
  (:func:`sanitize`) producing a :class:`SanitizationReport` that maps
  results back to original row indices;
* :mod:`~repro.robustness.guards` — runtime budget guards: the
  :class:`Deadline` wall-clock budget honoured by the hill climbing, and
  :func:`~repro.robustness.guards.row_block_size`, the one row-blocking
  policy of the distance kernels, bounded by a memory budget;
* :mod:`~repro.robustness.fallback` — the degradation ladder for
  degenerate inputs (:func:`plan_degradation`,
  :func:`kmedoids_fallback`);
* :mod:`~repro.robustness.faults` — a fault-injection harness
  (:func:`inject_nan_rows` and friends, composed by :class:`FaultPlan`;
  process-level worker faults via :class:`ProcessFaultSpec`) used by
  the chaos test suite;
* :mod:`~repro.robustness.supervisor` — the fault-tolerant execution
  supervisor for multi-restart runs: crash retry with deterministic
  seed replay, hung-worker replacement, atomic checkpoint/resume
  (:class:`RunCheckpoint`), and signal-safe shutdown.

``guards`` sits at the very bottom of the dependency stack (it is
imported by :mod:`repro.distance`), so this package must not import
heavyweight modules at import time — :mod:`.fallback` defers its
``baselines``/``core`` imports to call time.
"""

from .atomicio import atomic_write
from .faults import (
    PROCESS_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    ServeFaultSpec,
    apply_serve_fault,
    Fault,
    FaultPlan,
    ProcessFaultSpec,
    inject_constant_dims,
    inject_duplicates,
    inject_extreme_scale,
    inject_nan_rows,
    standard_fault_matrix,
    standard_faults,
)
from .fallback import (
    DegradationPlan,
    distinct_row_count,
    kmedoids_fallback,
    plan_degradation,
)
from .guards import DEFAULT_MEMORY_BUDGET_BYTES, Deadline
from .sanitize import BAD_VALUE_POLICIES, SanitizationReport, sanitize
from .supervisor import (
    RunCheckpoint,
    SignalWatch,
    SupervisedOutcome,
    run_serial_restarts,
    seed_state_token,
    signal_guard,
    supervise_restarts,
)

__all__ = [
    "atomic_write",
    "SERVE_FAULT_KINDS",
    "ServeFaultSpec",
    "apply_serve_fault",
    "sanitize",
    "SanitizationReport",
    "BAD_VALUE_POLICIES",
    "Deadline",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "DegradationPlan",
    "plan_degradation",
    "distinct_row_count",
    "kmedoids_fallback",
    "Fault",
    "FaultPlan",
    "inject_nan_rows",
    "inject_duplicates",
    "inject_constant_dims",
    "inject_extreme_scale",
    "standard_faults",
    "standard_fault_matrix",
    "PROCESS_FAULT_KINDS",
    "ProcessFaultSpec",
    "SupervisedOutcome",
    "RunCheckpoint",
    "SignalWatch",
    "signal_guard",
    "seed_state_token",
    "supervise_restarts",
    "run_serial_restarts",
]
