"""Fault-tolerant run supervisor for multi-restart PROCLUS fits.

PROCLUS is pitched at large databases, and the paper's answer to a
hill climb that gets stuck is to run the algorithm a few times (§4.3).
This module is the one restart runner for ``restarts > 1``: in-process
for ``n_jobs=1``, and over a process pool for ``n_jobs >= 2``, with the
data matrix shipped once through the shared-memory plane
(:class:`repro.perf.parallel.SharedMatrix`).  The pool path must
survive the failures long-lived jobs actually see, so the supervisor
provides four guarantees on top of the raw pool primitive:

* **Crash recovery** — a worker killed mid-restart (OOM, segfault,
  ``os._exit``) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`.
  The supervisor catches the breakage, respawns the pool, and retries the
  failed restart indices with bounded exponential backoff.  Retries are
  *deterministic*: each restart replays its own parent-spawned seed
  stream (the parent's generator copy is never advanced — workers only
  ever receive pickled snapshots), so attempt N computes bit-identical
  results to attempt 0.  Once a restart exhausts ``max_retries``, the
  completed restarts are salvaged and the stubborn remainder degrades to
  the in-process serial loop — the same degradation philosophy as the
  PR-1 ladder: a usable, correct result instead of a raised
  ``BrokenProcessPool``.
* **Hung-worker detection** — the supervision loop polls with a bounded
  ``wait`` timeout and tracks per-restart wall clock from submission.
  In-flight restarts exceeding ``restart_timeout_s`` are charged a
  failed attempt, the pool is terminated (running futures cannot be
  cancelled), innocent in-flight work is requeued at its current
  attempt, and a fresh pool resumes.  Deadline expiry is observed every
  tick even when nothing completes.
* **Checkpoint / resume** — with a ``checkpoint_dir``, every completed
  restart is persisted atomically (write-temp-then-``os.replace``):
  the fitted child result as an ``.npz`` via
  :func:`repro.core.serialization.save_result`, plus a JSON manifest
  keying each entry by ``(restart_index, seed-state token)``.  A
  resumed run (``resume=True``) validates the manifest against the
  freshly spawned seed streams and fit parameters, loads the completed
  restarts, and computes only the rest — the reduction over the union
  is bit-identical to an uninterrupted run.  A manifest from a
  *different* run raises :class:`~repro.exceptions.CheckpointError`;
  a corrupt per-restart payload file is discarded and recomputed.
* **Signal-safe shutdown** — SIGINT/SIGTERM install a one-shot handler
  (main thread only) that stops dispatch, cancels pending restarts,
  flushes the checkpoint, and returns the best completed restart with
  ``terminated_by="signal"``.  The first signal restores the previous
  handlers, so a second signal falls through to the default behaviour —
  a hard exit.

Two entry points mirror the two execution modes of
:func:`repro.core.proclus._fit`: :func:`supervise_restarts` (process
pool, ``n_jobs >= 2``) and :func:`run_serial_restarts` (in-process
loop, exact serial semantics).  Both return a :class:`SupervisedOutcome`
whose winner is reduced by ``(iterative_objective, restart_index)`` —
the order-independent equivalent of the serial first-best-wins rule —
and whose ``fault_tolerance`` dict lands on
``ProclusResult.fault_tolerance``.

Deadline cooperation: a :class:`~repro.robustness.guards.Deadline`
cannot cross a process boundary (its epoch is a per-process clock), so
the parent forwards the *remaining seconds* at submission time and each
worker starts a fresh deadline from that value — workers self-terminate
best-so-far exactly like an in-process fit.

Heavy imports (:mod:`repro.perf.parallel`, :mod:`repro.core`) are
deferred to call time: this package sits near the bottom of the
dependency stack and must stay importable from :mod:`repro.distance`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..exceptions import CheckpointError, ParameterError
from ..obs import get_tracer, maybe_trace, monotonic_s
from .atomicio import atomic_write
from .guards import Deadline

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..core.result import ProclusResult

from .faults import ProcessFaultSpec, apply_process_fault

__all__ = [
    "SupervisedOutcome",
    "RunCheckpoint",
    "SignalWatch",
    "signal_guard",
    "seed_state_token",
    "run_fingerprint",
    "supervise_restarts",
    "run_serial_restarts",
]

#: Supervision-loop tick: upper bound on how long the parent blocks in
#: ``wait`` before re-checking the deadline, signals, and hang caps.
POLL_INTERVAL_S: float = 0.05

#: Exponential-backoff schedule for pool respawns after a crash:
#: ``min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**(respawn-1))`` seconds.
BACKOFF_BASE_S: float = 0.05
BACKOFF_CAP_S: float = 2.0

#: Manifest schema version; bumped on incompatible layout changes.
MANIFEST_VERSION: int = 1

#: Test hooks (module-level so the chaos suite can monkeypatch them and
#: drive faults through the public ``proclus()`` surface): a process
#: fault shipped to every worker, and a deterministic stand-in for a
#: SIGINT arriving after N newly computed restarts.
_TEST_FAULT_SPEC: Optional[ProcessFaultSpec] = None
_TEST_INTERRUPT_AFTER: Optional[int] = None


# ----------------------------------------------------------------------
# Signal-safe shutdown
# ----------------------------------------------------------------------

class SignalWatch:
    """Flag set by the one-shot SIGINT/SIGTERM handler."""

    def __init__(self) -> None:
        self.stop_requested = False
        self.signum: Optional[int] = None

    def request_stop(self, signum: int) -> None:
        """Record a stop request (called by the handler or test hooks)."""
        self.stop_requested = True
        self.signum = signum


@contextmanager
def signal_guard(enabled: bool = True) -> Iterator[SignalWatch]:
    """Install a one-shot SIGINT/SIGTERM handler around a block.

    The handler only sets a flag the supervision loops poll — no work is
    interrupted mid-restart — and immediately restores the previous
    handlers so a *second* signal takes the default path (hard exit for
    SIGTERM, ``KeyboardInterrupt`` for SIGINT).  Outside the main
    thread (or with ``enabled=False``) this is a no-op that yields a
    watch nobody sets.
    """
    watch = SignalWatch()
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield watch
        return

    previous: Dict[int, Any] = {}

    def _restore() -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass

    def _handler(signum: int, frame: Any) -> None:
        watch.request_stop(signum)
        _restore()  # one-shot: the next signal is a hard exit

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            pass
    try:
        yield watch
    finally:
        for signum, handler in previous.items():
            try:
                if signal.getsignal(signum) is _handler:
                    signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

def seed_state_token(rng: np.random.Generator) -> str:
    """A short stable digest of a generator's exact bit-level state.

    Two generators with equal tokens produce identical streams, so a
    checkpoint entry keyed by ``(restart_index, token)`` can only be
    resumed into a run that would recompute the identical restart.
    """
    state = rng.bit_generator.state
    blob = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _canonical(value: Any) -> Any:
    """JSON-stable view of a fit parameter for fingerprinting."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    # objects (e.g. Metric instances): identity by class name only
    return f"<{type(value).__name__}>"


def run_fingerprint(fit_kwargs: Dict[str, Any], n_restarts: int,
                    seed_tokens: Sequence[str]) -> str:
    """Digest identifying a multi-restart run for checkpoint validation."""
    blob = json.dumps(
        {
            "fit": _canonical(fit_kwargs),
            "restarts": int(n_restarts),
            "seeds": list(seed_tokens),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class _CheckpointEntry:
    """One completed restart as recorded in the manifest."""

    file: str
    seconds: float
    notes: List[str]
    seed_token: str


class RunCheckpoint:
    """Atomic on-disk progress record for one multi-restart run.

    Layout under ``directory``::

        manifest.json          # run identity + completed-entry index
        restart_00000.npz      # one saved ProclusResult per restart
        restart_00003.npz

    Every write is temp-file-then-``os.replace`` so a crash mid-write
    can never tear the manifest or a payload: the worst case is a stale
    temp file next to a consistent checkpoint.
    """

    MANIFEST_NAME = "manifest.json"

    def __init__(self, directory: Union[str, Path], n_restarts: int,
                 seed_tokens: Sequence[str], fingerprint: str) -> None:
        self.directory = Path(directory)
        self.n_restarts = int(n_restarts)
        self.seed_tokens = list(seed_tokens)
        self.fingerprint = fingerprint
        self.entries: Dict[int, _CheckpointEntry] = {}
        #: Corrupt per-restart files dropped (and recomputed) on resume.
        self.discarded: int = 0
        #: True when this checkpoint was opened with ``resume=True``.
        self.resumed: bool = False

    # -- construction ---------------------------------------------------
    @classmethod
    def open(cls, directory: Union[str, Path], *,
             children: Sequence[np.random.Generator],
             fit_kwargs: Dict[str, Any], resume: bool) -> "RunCheckpoint":
        """Open (or start) the checkpoint for a concrete run.

        ``resume=False`` starts fresh: the directory is created and a
        new manifest overwrites any stale one.  ``resume=True``
        validates an existing manifest against this run's identity and
        loads its completed entries; any mismatch raises
        :class:`~repro.exceptions.CheckpointError`.
        """
        tokens = [seed_state_token(child) for child in children]
        fingerprint = run_fingerprint(fit_kwargs, len(children), tokens)
        ckpt = cls(directory, len(children), tokens, fingerprint)
        if resume:
            ckpt.resumed = True
            ckpt._load_manifest()
        else:
            ckpt.directory.mkdir(parents=True, exist_ok=True)
            ckpt._write_manifest()
        return ckpt

    # -- persistence ----------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    def _write_manifest(self) -> None:
        payload = {
            "format_version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "n_restarts": self.n_restarts,
            "seed_tokens": self.seed_tokens,
            "entries": {
                str(i): {
                    "file": e.file,
                    "seconds": e.seconds,
                    "notes": e.notes,
                    "seed_token": e.seed_token,
                }
                for i, e in sorted(self.entries.items())
            },
        }
        with atomic_write(self._manifest_path()) as tmp:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.is_file():
            raise CheckpointError(
                f"resume requested but no checkpoint manifest at {path}"
            )
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint manifest {path} is unreadable: {exc}"
            )
        version = payload.get("format_version")
        if version != MANIFEST_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {path} has format version {version}; "
                f"this library reads version {MANIFEST_VERSION}"
            )
        if payload.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint at {self.directory} records a different run "
                "(seed stream, restart count, or fit parameters changed); "
                "refusing to resume — results would not be reproducible"
            )
        for key, raw in dict(payload.get("entries", {})).items():
            index = int(key)
            if not (0 <= index < self.n_restarts):
                self.discarded += 1
                continue
            if raw.get("seed_token") != self.seed_tokens[index]:
                self.discarded += 1
                continue
            self.entries[index] = _CheckpointEntry(
                file=str(raw["file"]),
                seconds=float(raw["seconds"]),
                notes=[str(n) for n in raw.get("notes", [])],
                seed_token=str(raw["seed_token"]),
            )

    def record(self, index: int, result: "ProclusResult",
               notes: Sequence[str], seconds: float) -> None:
        """Persist one completed restart, atomically, then the manifest."""
        from ..core.serialization import save_result

        # save_result stages through the same atomic_write helper, so
        # the payload is already torn-write-proof under its final name
        name = f"restart_{index:05d}.npz"
        save_result(result, self.directory / name)
        self.entries[index] = _CheckpointEntry(
            file=name, seconds=float(seconds), notes=list(notes),
            seed_token=self.seed_tokens[index],
        )
        self._write_manifest()

    def completed(self) -> Dict[int, Tuple["ProclusResult", List[str], float]]:
        """Load every resumable restart: index -> (result, notes, seconds).

        A payload file that is missing or fails to load (torn write,
        disk corruption) is *discarded* — the restart is recomputed —
        rather than raised: progress loss is bounded to that one entry.
        """
        from ..core.serialization import load_result
        from ..exceptions import DataError

        loaded: Dict[int, Tuple["ProclusResult", List[str], float]] = {}
        for index in sorted(self.entries):
            entry = self.entries[index]
            path = self.directory / entry.file
            try:
                result = load_result(path)
            except (OSError, ValueError, KeyError, DataError,
                    CheckpointError):
                self.discarded += 1
                del self.entries[index]
                continue
            loaded[index] = (result, list(entry.notes), entry.seconds)
        return loaded


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------

@dataclass
class SupervisedOutcome:
    """What the supervised restart loops hand back to ``_fit``.

    ``best`` is the winning restart's result and ``best_index`` its
    restart index; ``winner_notes`` holds the notes *that restart
    alone* produced (losing restarts' notes are dropped).
    ``completed`` counts restarts that finished, resumed ones included.
    ``cancelled`` counts restarts the expired *deadline* cancelled
    before they started; signal-cancelled ones show up as
    ``n_restarts - completed`` instead.  ``restart_seconds`` holds each
    restart's wall time by index (``None`` for one that never ran), and
    ``n_workers`` the worker count used (``1`` for the serial loop).
    ``fault_tolerance`` carries the retry/respawn/timeout/salvage/resume
    counters destined for ``ProclusResult.fault_tolerance``, and
    ``interrupted``/``signum`` describe a signal-triggered shutdown.
    """

    best: "ProclusResult"
    best_index: int
    winner_notes: List[str]
    completed: int
    cancelled: int
    restart_seconds: List[Optional[float]]
    n_workers: int
    fault_tolerance: Optional[Dict[str, Any]] = None
    interrupted: bool = False
    signum: Optional[int] = None


def _reduce(results: Dict[int, "ProclusResult"],
            child_notes: Dict[int, List[str]],
            seconds: List[Optional[float]], *,
            cancelled: int, n_workers: int,
            fault_tolerance: Optional[Dict[str, Any]],
            watch: SignalWatch) -> SupervisedOutcome:
    """Order-independent winner reduction shared by both loops."""
    if not results:
        if watch.stop_requested:
            # nothing to salvage: honour the user's interrupt verbatim
            raise KeyboardInterrupt(
                "interrupted before any restart completed"
            )
        raise ParameterError("no restart completed")
    best_index = min(
        results, key=lambda i: (results[i].iterative_objective, i),
    )
    return SupervisedOutcome(
        best=results[best_index],
        best_index=best_index,
        winner_notes=child_notes.get(best_index, []),
        completed=len(results),
        cancelled=cancelled,
        restart_seconds=seconds,
        n_workers=n_workers,
        fault_tolerance=fault_tolerance,
        interrupted=watch.stop_requested,
        signum=watch.signum,
    )


def _fault_tolerance_dict(*, max_retries: int,
                          restart_timeout_s: Optional[float],
                          checkpoint: Optional[RunCheckpoint],
                          resumed: int, retries: int, respawns: int,
                          timeouts: int, corrupt_payloads: int,
                          salvaged: int,
                          watch: SignalWatch) -> Dict[str, Any]:
    """The diagnostics blob surfaced as ``result.fault_tolerance``."""
    return {
        "max_retries": int(max_retries),
        "restart_timeout_s": restart_timeout_s,
        "retries": int(retries),
        "respawns": int(respawns),
        "timeouts": int(timeouts),
        "corrupt_payloads": int(corrupt_payloads),
        "salvaged_serial": int(salvaged),
        "resumed_from": int(resumed),
        "checkpoint_dir": (str(checkpoint.directory)
                           if checkpoint is not None else None),
        "checkpoint_discarded": (checkpoint.discarded
                                 if checkpoint is not None else 0),
        "terminated_by_signal": bool(watch.stop_requested),
    }


# ----------------------------------------------------------------------
# The restart runner (serial loop, salvage, and pool worker)
# ----------------------------------------------------------------------

def _run_restart(X: np.ndarray, child: np.random.Generator,
                 deadline: Optional[Deadline], fit_kwargs: Dict[str, Any],
                 index: int) -> Tuple["ProclusResult", List[str], float]:
    """One restart: ``_fit`` with ``restarts=1`` under a ``restart`` span.

    Returns the child result, the notes it alone produced, and its wall
    time.  ``fit_kwargs`` are the keyword arguments of
    :func:`repro.core.proclus._fit` minus ``X``/``seed``/``deadline``/
    ``notes``/``restarts``/``n_jobs`` (``k`` and ``l`` included).
    """
    from ..core.proclus import _fit

    params = dict(fit_kwargs)
    k = params.pop("k")
    l = params.pop("l")
    notes: List[str] = []
    t0 = monotonic_s()
    with get_tracer().span("restart", index=index):
        result = _fit(X, k, l, restarts=1, seed=child, deadline=deadline,
                      notes=notes, n_jobs=1, **params)
    return result, notes, monotonic_s() - t0


# Pool entry point: module level, declared-shareable params (RPR005).
def _supervised_worker(
    descriptor: Dict[str, object], index: int, seed: np.random.Generator,
    remaining_s: Optional[float], fit_kwargs: Dict, attempt: int,
    fault: Optional[ProcessFaultSpec], profile: bool = False,
) -> Tuple[int, object, List[str], float]:
    """One supervised restart inside a pool worker.

    Applies any injected process fault first — crash and hang never
    return; ``corrupt`` returns a malformed payload the parent-side
    validator must reject and retry.  Otherwise it attaches the shared
    data matrix, starts a fresh deadline from ``remaining_s``, and runs
    :func:`_run_restart`.  With ``profile=True`` the restart runs under
    a local tracer whose profile ships home as ``result.profile``; the
    payload tuple shape stays fixed, so payload validation and the
    checkpoint format are unaffected.
    """
    if apply_process_fault(fault, index, attempt):
        return (index, None, [], 0.0)  # corrupt payload
    from ..perf.parallel import SharedMatrix

    X = SharedMatrix.attach(descriptor)
    deadline = Deadline.start(remaining_s) if remaining_s is not None else None
    with maybe_trace(profile) as tracer:
        result, notes, secs = _run_restart(X, seed, deadline, fit_kwargs,
                                           index=index)
        if tracer.enabled:
            result.profile = tracer.profile()
    return index, result, notes, secs


def _valid_payload(payload: object, index: int) -> bool:
    """Parent-side payload validation (defence against corrupt returns)."""
    if not isinstance(payload, tuple) or len(payload) != 4:
        return False
    got_index, result, notes, secs = payload
    if got_index != index or not isinstance(notes, list):
        return False
    if not isinstance(secs, (int, float)):
        return False
    return all(
        hasattr(result, attr)
        for attr in ("iterative_objective", "labels", "terminated_by")
    )


# ----------------------------------------------------------------------
# Serial supervised loop
# ----------------------------------------------------------------------

def run_serial_restarts(X: np.ndarray,
                        children: Sequence[np.random.Generator], *,
                        deadline: Optional[Deadline],
                        fit_kwargs: Dict[str, Any],
                        checkpoint: Optional[RunCheckpoint] = None,
                        interrupt_after: Optional[int] = None,
                        ) -> SupervisedOutcome:
    """The serial restart loop with checkpointing and signal safety.

    Computes restarts in index order in the parent process — the exact
    serial code path, including the deadline semantics (each restart is
    checked only *after* it completes, so at least one always finishes).
    With a checkpoint, completed restarts persist after each finish and
    resumed entries are skipped; the signal guard is installed only when
    checkpointing is active, preserving the historical
    ``KeyboardInterrupt`` behaviour of plain runs.
    """
    if interrupt_after is None:
        interrupt_after = _TEST_INTERRUPT_AFTER
    restarts = len(children)
    results: Dict[int, "ProclusResult"] = {}
    child_notes: Dict[int, List[str]] = {}
    seconds: List[Optional[float]] = [None] * restarts
    resumed = 0
    if checkpoint is not None:
        for index, (res, notes_i, secs) in checkpoint.completed().items():
            results[index] = res
            child_notes[index] = notes_i
            seconds[index] = secs
        resumed = len(results)

    deadline_hit = False
    computed = 0
    with signal_guard(enabled=checkpoint is not None) as watch:
        for i, child in enumerate(children):
            if i in results:
                continue
            if watch.stop_requested:
                break
            if interrupt_after is not None and computed >= interrupt_after:
                watch.request_stop(signal.SIGINT)
                break
            result, notes_i, secs = _run_restart(
                X, child, deadline, fit_kwargs, index=i)
            results[i] = result
            child_notes[i] = notes_i
            seconds[i] = secs
            computed += 1
            if checkpoint is not None:
                checkpoint.record(i, result, notes_i, secs)
            if (deadline is not None and deadline.expired()
                    and len(results) < restarts):
                deadline_hit = True
                break

    cancelled = restarts - len(results) if deadline_hit else 0
    fault_tolerance = None
    if checkpoint is not None or watch.stop_requested:
        fault_tolerance = _fault_tolerance_dict(
            max_retries=0, restart_timeout_s=None, checkpoint=checkpoint,
            resumed=resumed, retries=0, respawns=0, timeouts=0,
            corrupt_payloads=0, salvaged=0, watch=watch,
        )
    return _reduce(results, child_notes, seconds, cancelled=cancelled,
                   n_workers=1, fault_tolerance=fault_tolerance, watch=watch)


# ----------------------------------------------------------------------
# Pooled supervision loop
# ----------------------------------------------------------------------

def _terminate_pool(pool: Any, kill: bool) -> None:
    """Shut a pool down; ``kill=True`` also terminates worker processes.

    Killing is the only way to reclaim a *running* future — executor
    ``cancel`` only reaches queued ones — so the hang and signal paths
    use it.  The clean path (nothing in flight) joins workers normally.
    On return the killed workers are reaped: the executor's manager
    thread reaps them too, and a poll racing its ``waitpid`` reads a
    reaped worker as alive, so that thread is joined last.
    """
    if not kill:
        pool.shutdown(wait=True, cancel_futures=True)
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    # shutdown() drops the executor's reference to its manager thread
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - reap race
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass
    if manager is not None:
        manager.join(timeout=5)


def supervise_restarts(X: np.ndarray,
                       children: Sequence[np.random.Generator], *,
                       n_jobs: int,
                       deadline: Optional[Deadline],
                       fit_kwargs: Dict[str, Any],
                       max_retries: int = 2,
                       restart_timeout_s: Optional[float] = None,
                       checkpoint: Optional[RunCheckpoint] = None,
                       fault_spec: Optional[ProcessFaultSpec] = None,
                       interrupt_after: Optional[int] = None,
                       poll_interval_s: float = POLL_INTERVAL_S,
                       backoff_base_s: float = BACKOFF_BASE_S,
                       backoff_cap_s: float = BACKOFF_CAP_S,
                       profile: bool = False,
                       ) -> SupervisedOutcome:
    """Fan restarts out over a process pool under full supervision.

    Submission is windowed (at most ``n_workers`` in flight), which
    keeps the per-restart wall-clock cap meaningful — an in-flight
    restart is actually running — and lets deadline expiry cancel
    queued restarts without waiting for a completion.  See the module
    docstring for the recovery, timeout, checkpoint, and signal
    contracts.

    ``fault_spec``/``interrupt_after`` are chaos-test hooks: the former
    ships a :class:`~repro.robustness.faults.ProcessFaultSpec` to every
    worker, the latter simulates a SIGINT arriving after N newly
    computed restarts complete.

    ``profile=True`` asks each worker to run its restart under a fresh
    tracer (:mod:`repro.obs`) and attach the per-restart profile to the
    result it ships back; the caller surfaces the winner's profile.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
    from concurrent.futures import wait as futures_wait
    from concurrent.futures.process import BrokenProcessPool

    from ..perf.parallel import SharedMatrix, resolve_n_jobs

    if fault_spec is None:
        fault_spec = _TEST_FAULT_SPEC
    if interrupt_after is None:
        interrupt_after = _TEST_INTERRUPT_AFTER

    restarts = len(children)
    workers = resolve_n_jobs(n_jobs, n_tasks=restarts)
    results: Dict[int, "ProclusResult"] = {}
    child_notes: Dict[int, List[str]] = {}
    seconds: List[Optional[float]] = [None] * restarts
    retries = respawns = timeouts = corrupt_payloads = salvaged = 0
    resumed = 0
    deadline_cancelled = 0
    exhausted: List[int] = []
    tracer = get_tracer()

    if checkpoint is not None:
        for index, (res, notes_i, secs) in checkpoint.completed().items():
            results[index] = res
            child_notes[index] = notes_i
            seconds[index] = secs
        resumed = len(results)
        if resumed and tracer.enabled:
            tracer.event("resume_loaded", n_restarts=resumed)

    todo: "deque[Tuple[int, int]]" = deque(
        (i, 0) for i in range(restarts) if i not in results
    )
    inflight: Dict[Any, Tuple[int, int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = None
    plane: Optional[SharedMatrix] = None

    def _record(index: int, result: "ProclusResult", notes_i: List[str],
                secs: float) -> None:
        results[index] = result
        child_notes[index] = notes_i
        seconds[index] = secs
        if checkpoint is not None:
            checkpoint.record(index, result, notes_i, secs)
        if tracer.enabled:
            tracer.event("restart_completed", index=index,
                         seconds=float(secs))

    def _fail(index: int, attempt: int) -> None:
        nonlocal retries
        if attempt < max_retries:
            retries += 1
            todo.append((index, attempt + 1))
            if tracer.enabled:
                tracer.count("supervisor.retries")
                tracer.event("restart_retry", index=index,
                             attempt=attempt + 1)
        elif index not in exhausted:
            exhausted.append(index)

    def _backoff() -> None:
        pause = min(backoff_cap_s, backoff_base_s * (2 ** max(0, respawns - 1)))
        if deadline is not None and not deadline.unlimited:
            pause = min(pause, deadline.remaining())
        if pause > 0:
            time.sleep(pause)

    with signal_guard(enabled=True) as watch:
        try:
            if todo:
                plane = SharedMatrix.publish(X)
                pool = ProcessPoolExecutor(max_workers=workers)
            while todo or inflight:
                if watch.stop_requested:
                    if tracer.enabled:
                        tracer.event("signal_stop",
                                     pending=len(todo) + len(inflight))
                    break
                if (interrupt_after is not None
                        and len(results) - resumed >= interrupt_after):
                    watch.request_stop(signal.SIGINT)
                    break
                if deadline is not None and deadline.expired() and todo:
                    deadline_cancelled += len(todo)
                    todo.clear()
                    if not inflight:
                        break
                broken = False
                while todo and len(inflight) < workers and pool is not None:
                    index, attempt = todo.popleft()
                    remaining = None
                    if deadline is not None and not deadline.unlimited:
                        remaining = deadline.remaining()
                    try:
                        fut = pool.submit(
                            _supervised_worker, plane.descriptor, index,
                            children[index], remaining, fit_kwargs, attempt,
                            fault_spec, profile,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # pool already broken: nothing was dispatched, so
                        # the attempt is not charged
                        todo.appendleft((index, attempt))
                        broken = True
                        break
                    inflight[fut] = (index, attempt, monotonic_s())
                if inflight and not broken:
                    done, _ = futures_wait(
                        set(inflight), timeout=poll_interval_s,
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        index, attempt, _t0 = inflight.pop(fut)
                        try:
                            payload = fut.result()
                        except BrokenProcessPool:
                            broken = True
                            _fail(index, attempt)
                            continue
                        if not _valid_payload(payload, index):
                            corrupt_payloads += 1
                            if tracer.enabled:
                                tracer.event("corrupt_payload", index=index,
                                             attempt=attempt)
                            _fail(index, attempt)
                            continue
                        _, result, notes_i, secs = payload
                        _record(index, result, notes_i, secs)
                if broken:
                    # the pool death took every in-flight restart with it;
                    # we cannot tell the guilty worker from the innocent,
                    # so each in-flight attempt is charged and requeued
                    for fut, (index, attempt, _t0) in list(inflight.items()):
                        _fail(index, attempt)
                    inflight.clear()
                    _terminate_pool(pool, kill=True)
                    respawns += 1
                    if tracer.enabled:
                        tracer.event("pool_respawn", respawns=respawns)
                    _backoff()
                    pool = ProcessPoolExecutor(max_workers=workers)
                    continue
                if restart_timeout_s is not None and inflight:
                    now = monotonic_s()
                    hung = [
                        (fut, index, attempt)
                        for fut, (index, attempt, t0) in inflight.items()
                        if now - t0 > restart_timeout_s
                    ]
                    if hung:
                        for fut, index, attempt in hung:
                            timeouts += 1
                            if tracer.enabled:
                                tracer.event("restart_timeout", index=index,
                                             attempt=attempt)
                            _fail(index, attempt)
                            del inflight[fut]
                        # running futures cannot be cancelled: kill the
                        # pool, requeue the innocent bystanders at their
                        # current attempt, and start fresh
                        for fut, (index, attempt, _t0) in inflight.items():
                            todo.appendleft((index, attempt))
                        inflight.clear()
                        _terminate_pool(pool, kill=True)
                        respawns += 1
                        pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            if pool is not None:
                _terminate_pool(
                    pool, kill=bool(inflight) or watch.stop_requested)
            if plane is not None:
                plane.unlink()

    # Degradation ladder: restarts that exhausted the retry budget run
    # in-process — slower, but correct and deterministic.
    if exhausted and not watch.stop_requested:
        for index in sorted(exhausted):
            if watch.stop_requested:
                break
            if deadline is not None and deadline.expired():
                deadline_cancelled += 1
                continue
            if tracer.enabled:
                tracer.event("salvage_serial", index=index)
            result, notes_i, secs = _run_restart(
                X, children[index], deadline, fit_kwargs, index=index)
            _record(index, result, notes_i, secs)
            salvaged += 1

    fault_tolerance = _fault_tolerance_dict(
        max_retries=max_retries, restart_timeout_s=restart_timeout_s,
        checkpoint=checkpoint, resumed=resumed, retries=retries,
        respawns=respawns, timeouts=timeouts,
        corrupt_payloads=corrupt_payloads, salvaged=salvaged, watch=watch,
    )
    return _reduce(results, child_notes, seconds,
                   cancelled=deadline_cancelled, n_workers=workers,
                   fault_tolerance=fault_tolerance, watch=watch)
