"""Chaos suite for the fault-tolerant run supervisor (``-m chaos``).

Process-level faults are injected through the module-level test hooks in
:mod:`repro.robustness.supervisor` (``_TEST_FAULT_SPEC`` ships a
:class:`~repro.robustness.faults.ProcessFaultSpec` to every worker as an
ordinary pickled argument, so injection works under any multiprocessing
start method; ``_TEST_INTERRUPT_AFTER`` simulates a SIGINT arriving
after N computed restarts).  The contract under test everywhere:

* no ``BrokenProcessPool`` (or any untyped error) ever escapes
  ``proclus()``;
* whatever faults fire, the returned winner is **bit-identical** to the
  fault-free serial baseline — retries replay identical seed streams;
* an interrupted checkpointed run plus ``resume=True`` is bit-identical
  to an uninterrupted run.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro import proclus
from repro.data import generate
from repro.robustness import supervisor
from repro.robustness.faults import ProcessFaultSpec

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings(
        "ignore::repro.exceptions.SanitizationWarning"),
]

FAST = dict(max_bad_tries=3, max_iterations=40)
RESTARTS = 4


@pytest.fixture(scope="module")
def workload():
    return generate(300, 8, 3, cluster_dim_counts=[3, 3, 3],
                    outlier_fraction=0.05, seed=31)


@pytest.fixture(scope="module")
def baseline(workload):
    """The fault-free serial run every scenario must reproduce."""
    return proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11, **FAST)


@pytest.fixture
def inject():
    """Set a supervisor test hook for one test, restoring it afterwards."""
    def _set(fault=None, interrupt_after=None):
        supervisor._TEST_FAULT_SPEC = fault
        supervisor._TEST_INTERRUPT_AFTER = interrupt_after

    yield _set
    supervisor._TEST_FAULT_SPEC = None
    supervisor._TEST_INTERRUPT_AFTER = None


def _fingerprint(result):
    return (
        result.labels.tobytes(),
        result.medoid_indices.tobytes(),
        tuple(sorted(result.dimensions.items())),
        result.objective,
        result.iterative_objective,
        result.terminated_by,
    )


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------

def test_worker_killed_mid_fanout_is_retried(workload, baseline, inject):
    """Acceptance: one killed worker, bit-identical winner, no escape."""
    inject(fault=ProcessFaultSpec(kind="crash", index=1, times=1))
    result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                     n_jobs=2, **FAST)
    assert _fingerprint(result) == _fingerprint(baseline)
    ft = result.fault_tolerance
    assert ft["retries"] >= 1 and ft["respawns"] >= 1


def test_persistent_crash_degrades_to_serial_salvage(workload, baseline,
                                                     inject):
    """A worker that dies on every attempt exhausts the retry budget;
    the stubborn restart runs in-process instead of raising."""
    inject(fault=ProcessFaultSpec(kind="crash", index=1, times=99))
    result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                     n_jobs=2, max_retries=1, **FAST)
    assert _fingerprint(result) == _fingerprint(baseline)
    assert result.fault_tolerance["salvaged_serial"] >= 1


def test_max_retries_zero_goes_straight_to_salvage(workload, baseline,
                                                   inject):
    inject(fault=ProcessFaultSpec(kind="crash", index=0, times=99))
    result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                     n_jobs=2, max_retries=0, **FAST)
    assert _fingerprint(result) == _fingerprint(baseline)
    assert result.fault_tolerance["retries"] == 0
    assert result.fault_tolerance["salvaged_serial"] >= 1


# ----------------------------------------------------------------------
# Hang detection
# ----------------------------------------------------------------------

def test_hung_worker_is_replaced_within_timeout(workload, baseline, inject):
    inject(fault=ProcessFaultSpec(kind="hang", index=0, times=1, hang_s=60))
    result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                     n_jobs=2, restart_timeout_s=1.0, **FAST)
    assert _fingerprint(result) == _fingerprint(baseline)
    ft = result.fault_tolerance
    assert ft["timeouts"] >= 1 and ft["respawns"] >= 1


# ----------------------------------------------------------------------
# Corrupt worker payloads
# ----------------------------------------------------------------------

def test_corrupt_payload_is_rejected_and_retried(workload, baseline, inject):
    inject(fault=ProcessFaultSpec(kind="corrupt", index=2, times=1))
    result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                     n_jobs=2, **FAST)
    assert _fingerprint(result) == _fingerprint(baseline)
    assert result.fault_tolerance["corrupt_payloads"] == 1


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

def test_corrupt_checkpoint_file_is_recomputed(tmp_path, workload, baseline):
    """Torn per-restart payloads are discarded, recomputed, and the
    resumed run still matches the uninterrupted baseline bit for bit."""
    ck = tmp_path / "ck"
    proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
            checkpoint_dir=str(ck), **FAST)
    (ck / "restart_00001.npz").write_bytes(b"\x00garbage")

    resumed = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                      checkpoint_dir=str(ck), resume=True, **FAST)
    assert _fingerprint(resumed) == _fingerprint(baseline)
    ft = resumed.fault_tolerance
    assert ft["checkpoint_discarded"] == 1
    assert ft["resumed_from"] == RESTARTS - 1


@pytest.mark.parametrize("seed", [11, 77])
@pytest.mark.parametrize("interrupt_at", [1, 2, 3])
def test_interrupt_then_resume_is_bit_identical(tmp_path, workload, inject,
                                                seed, interrupt_at):
    """Property (acceptance): interrupt after the j-th restart + resume
    equals the uninterrupted serial baseline, for any j and seed."""
    uninterrupted = proclus(workload.points, 3, 3, restarts=RESTARTS,
                            seed=seed, **FAST)
    ck = tmp_path / f"ck-{seed}-{interrupt_at}"

    inject(interrupt_after=interrupt_at)
    partial = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=seed,
                      checkpoint_dir=str(ck), **FAST)
    assert partial.terminated_by == "signal"
    assert partial.fault_tolerance["terminated_by_signal"] is True
    assert partial.parallelism["restarts_completed"] == interrupt_at

    inject()  # clear the hook before the resumed run
    resumed = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=seed,
                      checkpoint_dir=str(ck), resume=True, **FAST)
    assert _fingerprint(resumed) == _fingerprint(uninterrupted)
    assert resumed.fault_tolerance["resumed_from"] == interrupt_at


def test_parallel_interrupt_then_resume(tmp_path, workload, baseline, inject):
    """The pooled supervision loop honours the same interrupt contract."""
    ck = tmp_path / "ck-par"
    inject(interrupt_after=2)
    partial = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                      n_jobs=2, checkpoint_dir=str(ck), **FAST)
    assert partial.terminated_by == "signal"
    assert 0 < partial.parallelism["restarts_completed"] < RESTARTS

    inject()
    resumed = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                      n_jobs=2, checkpoint_dir=str(ck), resume=True, **FAST)
    assert _fingerprint(resumed) == _fingerprint(baseline)


def test_real_sigint_returns_best_so_far(tmp_path, workload, baseline):
    """A genuine SIGINT mid-run flips terminated_by to "signal" and the
    checkpoint supports a bit-identical resume.

    The timing of the signal is inherently racy, so the test accepts
    either outcome — interrupted or completed — but whichever happens
    must be well-formed and resumable.
    """
    ck = tmp_path / "ck-sig"
    # Absorb a late-arriving SIGINT (fired after proclus returned) so it
    # cannot take down the test process: the supervisor's one-shot guard
    # chains back to this harmless handler, not to the default raiser.
    previous = signal.signal(signal.SIGINT, lambda s, f: None)
    timer = threading.Timer(0.35, os.kill, args=(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        result = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                         checkpoint_dir=str(ck), **FAST)
    finally:
        timer.cancel()
        signal.signal(signal.SIGINT, previous)

    assert result.labels.shape == (workload.points.shape[0],)
    assert np.isfinite(result.objective)
    if result.terminated_by == "signal":
        assert result.fault_tolerance["terminated_by_signal"] is True
        resumed = proclus(workload.points, 3, 3, restarts=RESTARTS, seed=11,
                          checkpoint_dir=str(ck), resume=True, **FAST)
        assert _fingerprint(resumed) == _fingerprint(baseline)
    else:
        assert _fingerprint(result) == _fingerprint(baseline)


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

def test_cli_resume_mismatch_exits_4(tmp_path, workload, capsys):
    from repro.cli import main
    from repro.data import Dataset
    from repro.data.io import save_csv

    csv = tmp_path / "data.csv"
    save_csv(Dataset(points=workload.points), csv)
    ck = tmp_path / "ck-cli"
    args = ["cluster", str(csv), "-k", "3", "-l", "3", "--restarts", "2",
            "--seed", "1", "--checkpoint-dir", str(ck)]
    assert main(args) == 0
    # different seed -> different run -> CheckpointError -> exit code 4
    bad = ["cluster", str(csv), "-k", "3", "-l", "3", "--restarts", "2",
           "--seed", "2", "--checkpoint-dir", str(ck), "--resume"]
    assert main(bad) == 4
    assert "different run" in capsys.readouterr().err


def test_cli_signal_terminated_run_exits_130(tmp_path, workload, inject,
                                             capsys):
    from repro.cli import main
    from repro.data import Dataset
    from repro.data.io import save_csv

    csv = tmp_path / "data.csv"
    save_csv(Dataset(points=workload.points), csv)
    ck = tmp_path / "ck-130"
    inject(interrupt_after=1)
    code = main(["cluster", str(csv), "-k", "3", "-l", "3",
                 "--restarts", "3", "--seed", "1",
                 "--checkpoint-dir", str(ck)])
    assert code == 130
    assert "stop=signal" in capsys.readouterr().out
