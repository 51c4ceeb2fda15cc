"""Unit tests for the fault-tolerant run supervisor building blocks.

Process-fault end-to-end scenarios (killed/hung/corrupting workers,
interrupt + resume bit-identity) live in ``test_supervisor_chaos.py``;
this module covers the pieces in isolation: seed-state tokens, the
atomic checkpoint store, manifest validation, signal-guard mechanics,
shared-memory leak guards, the restart runner, pool teardown, parameter
validation, and diagnostics serialization.
"""

import copy
import json
import multiprocessing
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import proclus
from repro.core.serialization import load_result, save_result
from repro.data import generate
from repro.exceptions import CheckpointError, ParameterError
from repro.perf.parallel import SharedMatrix
from repro.rng import ensure_rng, spawn
from repro.robustness.faults import ProcessFaultSpec
from repro.robustness.supervisor import (
    RunCheckpoint,
    _run_restart,
    _supervised_worker,
    _terminate_pool,
    _valid_payload,
    run_fingerprint,
    seed_state_token,
    signal_guard,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.SanitizationWarning")

FAST = dict(max_bad_tries=3, max_iterations=40)


@pytest.fixture(scope="module")
def workload():
    return generate(300, 8, 3, cluster_dim_counts=[3, 3, 3],
                    outlier_fraction=0.05, seed=31)


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
# Seed-state tokens and run fingerprints
# ----------------------------------------------------------------------

class TestSeedStateToken:
    def test_identical_streams_share_a_token(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        assert seed_state_token(a) == seed_state_token(b)

    def test_advancing_the_stream_changes_the_token(self):
        g = np.random.default_rng(7)
        before = seed_state_token(g)
        g.random()
        assert seed_state_token(g) != before

    def test_spawned_children_get_distinct_tokens(self):
        children = spawn(ensure_rng(3), 4)
        tokens = {seed_state_token(c) for c in children}
        assert len(tokens) == 4


class TestRunFingerprint:
    def test_sensitive_to_parameters_and_seeds(self):
        kwargs = dict(k=3, l=3.0, metric="euclidean")
        base = run_fingerprint(kwargs, 4, ["a", "b"])
        assert run_fingerprint(dict(kwargs, k=4), 4, ["a", "b"]) != base
        assert run_fingerprint(kwargs, 5, ["a", "b"]) != base
        assert run_fingerprint(kwargs, 4, ["a", "c"]) != base
        assert run_fingerprint(dict(kwargs), 4, ["a", "b"]) == base

    def test_non_json_values_fingerprint_by_type(self):
        from repro.distance.lp import ManhattanDistance

        fp1 = run_fingerprint({"metric": ManhattanDistance()}, 2, ["t"])
        fp2 = run_fingerprint({"metric": ManhattanDistance()}, 2, ["t"])
        assert fp1 == fp2


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------

class TestRunCheckpoint:
    def _fit_result(self, workload):
        return proclus(workload.points, 3, 3, seed=5, **FAST)

    def test_record_then_resume_roundtrip(self, tmp_path, workload):
        children = spawn(ensure_rng(9), 3)
        kwargs = dict(k=3, l=3.0)
        ckpt = RunCheckpoint.open(tmp_path, children=children,
                                  fit_kwargs=kwargs, resume=False)
        result = self._fit_result(workload)
        ckpt.record(1, result, ["a note"], 0.25)

        resumed = RunCheckpoint.open(tmp_path, children=spawn(ensure_rng(9), 3),
                                     fit_kwargs=kwargs, resume=True)
        loaded = resumed.completed()
        assert set(loaded) == {1}
        got, notes, seconds = loaded[1]
        assert _fingerprint(got) == _fingerprint(result)
        assert notes == ["a note"]
        assert seconds == 0.25

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            RunCheckpoint.open(tmp_path / "empty",
                               children=spawn(ensure_rng(9), 2),
                               fit_kwargs={}, resume=True)

    def test_resume_with_unreadable_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            RunCheckpoint.open(tmp_path, children=spawn(ensure_rng(9), 2),
                               fit_kwargs={}, resume=True)

    def test_resume_of_a_different_run_raises(self, tmp_path):
        kwargs = dict(k=3, l=3.0)
        RunCheckpoint.open(tmp_path, children=spawn(ensure_rng(9), 2),
                           fit_kwargs=kwargs, resume=False)
        with pytest.raises(CheckpointError, match="different run"):
            RunCheckpoint.open(tmp_path, children=spawn(ensure_rng(10), 2),
                               fit_kwargs=kwargs, resume=True)
        with pytest.raises(CheckpointError, match="different run"):
            RunCheckpoint.open(tmp_path, children=spawn(ensure_rng(9), 2),
                               fit_kwargs=dict(k=4, l=3.0), resume=True)

    def test_corrupt_payload_is_discarded_not_raised(self, tmp_path, workload):
        children = spawn(ensure_rng(9), 2)
        kwargs = dict(k=3, l=3.0)
        ckpt = RunCheckpoint.open(tmp_path, children=children,
                                  fit_kwargs=kwargs, resume=False)
        ckpt.record(0, self._fit_result(workload), [], 0.1)
        (tmp_path / "restart_00000.npz").write_bytes(b"garbage")

        resumed = RunCheckpoint.open(tmp_path,
                                     children=spawn(ensure_rng(9), 2),
                                     fit_kwargs=kwargs, resume=True)
        assert resumed.completed() == {}
        assert resumed.discarded == 1

    def test_manifest_writes_are_atomic(self, tmp_path, workload):
        children = spawn(ensure_rng(9), 2)
        ckpt = RunCheckpoint.open(tmp_path, children=children,
                                  fit_kwargs={}, resume=False)
        ckpt.record(0, self._fit_result(workload), [], 0.1)
        # no temp droppings left behind; the manifest parses
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        json.loads((tmp_path / "manifest.json").read_text())


# ----------------------------------------------------------------------
# Signal guard
# ----------------------------------------------------------------------

class TestSignalGuard:
    def test_handlers_restored_after_block(self):
        before = signal.getsignal(signal.SIGINT)
        with signal_guard() as watch:
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before
        assert not watch.stop_requested

    def test_one_shot_restores_on_first_signal(self):
        before = signal.getsignal(signal.SIGINT)
        with signal_guard() as watch:
            handler = signal.getsignal(signal.SIGINT)
            handler(signal.SIGINT, None)
            assert watch.stop_requested and watch.signum == signal.SIGINT
            # the guard stood down immediately: a second signal would
            # take the previous (default) path
            assert signal.getsignal(signal.SIGINT) is before
        assert signal.getsignal(signal.SIGINT) is before

    def test_disabled_guard_touches_nothing(self):
        before = signal.getsignal(signal.SIGINT)
        with signal_guard(enabled=False) as watch:
            assert signal.getsignal(signal.SIGINT) is before
        assert not watch.stop_requested


# ----------------------------------------------------------------------
# Shared-memory leak guards
# ----------------------------------------------------------------------

class TestSharedMatrixGuards:
    def test_unlink_is_idempotent(self):
        plane = SharedMatrix.publish(np.eye(3))
        plane.unlink()
        plane.unlink()  # second call must be a no-op, not an error

    def test_finalizer_reclaims_unlinked_segment(self):
        plane = SharedMatrix.publish(np.eye(3))
        name = plane.descriptor["name"]
        assert plane._finalizer.alive
        plane._finalizer()  # simulate GC / interpreter exit
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_explicit_unlink_disarms_the_finalizer(self):
        plane = SharedMatrix.publish(np.eye(3))
        plane.unlink()
        assert not plane._finalizer.alive


# ----------------------------------------------------------------------
# The restart runner, driven in-process
# ----------------------------------------------------------------------

#: ``_fit`` keyword arguments as ``proclus()`` hands them to the runner.
FIT_KWARGS = dict(
    k=3, l=3, sample_factor=30, pool_factor=5, min_deviation=0.1,
    metric="euclidean", handle_outliers=True,
    fit_sample_size=None, exclude_dims=(), dtype="float64",
    **FAST,
)


class TestRestartRunner:
    """The pool worker is the serial runner plus attach/deadline/trace.

    Pool runs execute in child processes, so here the worker is called
    directly, on its own copy of the child seed (a pool worker receives
    a pickled snapshot, never the parent's generator).
    """

    @pytest.mark.parametrize("profile", [False, True])
    def test_worker_matches_serial_runner(self, workload, profile):
        from repro.perf.parallel import _ATTACHED

        child = spawn(ensure_rng(5), 3)[2]
        serial, serial_notes, _ = _run_restart(
            workload.points, copy.deepcopy(child), None, FIT_KWARGS, index=2)
        plane = SharedMatrix.publish(workload.points)
        try:
            payload = _supervised_worker(
                plane.descriptor, 2, copy.deepcopy(child), None, FIT_KWARGS,
                0, None, profile)
        finally:
            # drop the in-process attachment before unlinking the segment
            shm, _ = _ATTACHED.pop(str(plane.descriptor["name"]))
            shm.close()
            plane.unlink()

        assert _valid_payload(payload, 2)
        index, result, notes, secs = payload
        assert index == 2 and notes == serial_notes and secs > 0
        assert result.labels.tobytes() == serial.labels.tobytes()
        assert (result.medoid_indices.tobytes()
                == serial.medoid_indices.tobytes())
        assert result.dimensions == serial.dimensions
        assert result.iterative_objective == serial.iterative_objective
        if profile:
            restart_spans = [span for span in result.profile["spans"]
                             if span["name"] == "restart"]
            assert [span["attrs"]["index"] for span in restart_spans] == [2]
        else:
            assert result.profile is None


# ----------------------------------------------------------------------
# Pool teardown
# ----------------------------------------------------------------------

class TestTerminatePool:
    def test_kill_reaps_every_worker(self):
        pool = ProcessPoolExecutor(max_workers=2)
        pool.submit(time.sleep, 30)
        procs = list(pool._processes.values())
        assert procs
        _terminate_pool(pool, kill=True)
        assert not any(proc.is_alive() for proc in procs)
        live = {child.pid for child in multiprocessing.active_children()}
        assert not live & {proc.pid for proc in procs}


# ----------------------------------------------------------------------
# Parameter validation and spec contracts
# ----------------------------------------------------------------------

class TestValidation:
    def test_negative_max_retries_rejected(self, workload):
        with pytest.raises(ParameterError, match="max_retries"):
            proclus(workload.points, 3, 3, restarts=2, max_retries=-1,
                    seed=1, **FAST)

    def test_bad_restart_timeout_rejected(self, workload):
        with pytest.raises(ParameterError, match="restart_timeout_s"):
            proclus(workload.points, 3, 3, restarts=2,
                    restart_timeout_s=-2.0, seed=1, **FAST)

    def test_resume_requires_checkpoint_dir(self, workload):
        with pytest.raises(ParameterError, match="checkpoint_dir"):
            proclus(workload.points, 3, 3, restarts=2, resume=True,
                    seed=1, **FAST)

    def test_unknown_process_fault_kind_rejected(self):
        with pytest.raises(ParameterError, match="fault kind"):
            ProcessFaultSpec(kind="meltdown")

    def test_fault_spec_targets_index_and_attempts(self):
        spec = ProcessFaultSpec(kind="crash", index=2, times=2)
        assert spec.fires(2, 0) and spec.fires(2, 1)
        assert not spec.fires(2, 2)
        assert not spec.fires(1, 0)


class TestFingerprintCoverage:
    """What a checkpoint's run fingerprint covers, checked through proclus().

    Algorithm keywords change what a restart computes, so a changed one
    refuses the resume.  Execution settings only change how restarts
    are run, so a run may resume under other ones.
    """

    def _checkpointed(self, ck, workload):
        return proclus(workload.points, 3, 3, restarts=3, seed=13,
                       checkpoint_dir=str(ck), **FAST)

    @pytest.mark.parametrize("changed", [dict(max_bad_tries=4),
                                         dict(min_deviation=0.2)])
    def test_changed_algorithm_keyword_is_refused(self, tmp_path, workload,
                                                  changed):
        ck = tmp_path / "ck"
        self._checkpointed(ck, workload)
        with pytest.raises(CheckpointError):
            proclus(workload.points, 3, 3, restarts=3, seed=13,
                    checkpoint_dir=str(ck), resume=True,
                    **dict(FAST, **changed))

    @pytest.mark.parametrize("changed", [dict(n_jobs=2), dict(max_retries=0),
                                         dict(restart_timeout_s=60.0)])
    def test_changed_execution_setting_resumes_bit_identically(
            self, tmp_path, workload, changed):
        ck = tmp_path / "ck"
        uninterrupted = self._checkpointed(ck, workload)
        # a torn payload makes the resumed run recompute that restart
        (ck / "restart_00001.npz").write_bytes(b"\x00garbage")
        resumed = proclus(workload.points, 3, 3, restarts=3, seed=13,
                          checkpoint_dir=str(ck), resume=True,
                          **FAST, **changed)
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)
        assert resumed.objective_history == uninterrupted.objective_history
        assert resumed.fault_tolerance["checkpoint_discarded"] == 1
        assert resumed.fault_tolerance["resumed_from"] == 2


# ----------------------------------------------------------------------
# Diagnostics serialization
# ----------------------------------------------------------------------

class TestFaultToleranceDiagnostics:
    def test_survives_to_dict_and_save_load(self, tmp_path, workload):
        result = proclus(workload.points, 3, 3, restarts=2, seed=5,
                         checkpoint_dir=str(tmp_path / "ck"), **FAST)
        ft = result.fault_tolerance
        assert ft is not None
        assert ft["checkpoint_dir"] == str(tmp_path / "ck")
        assert result.to_dict()["fault_tolerance"] == ft
        json.dumps(result.to_dict())  # stays JSON-serializable

        path = save_result(result, tmp_path / "run.npz")
        assert load_result(path).fault_tolerance == ft

    def test_plain_fits_report_none(self, workload):
        result = proclus(workload.points, 3, 3, restarts=2, seed=5, **FAST)
        assert result.fault_tolerance is None
        assert result.to_dict()["fault_tolerance"] is None
