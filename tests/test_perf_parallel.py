"""Tests for the deterministic parallel execution layer (repro.perf.parallel).

The load-bearing property is *bit-identity*: for any ``n_jobs``, every
dispatcher — restart fan-out, experiment grids — must return exactly
what the serial code path returns.  Parallelism here buys wall-clock
time only, never a different answer.
"""

import numpy as np
import pytest

from repro import Proclus, proclus
from repro.core import parallel_report
from repro.core.serialization import load_result, save_result
from repro.data import generate
from repro.exceptions import ParameterError
from repro.perf.parallel import SharedMatrix, parallel_map, resolve_n_jobs

FAST = dict(max_bad_tries=4)


@pytest.fixture(scope="module")
def workload():
    return generate(600, 10, 3, cluster_dim_counts=[3, 3, 4],
                    outlier_fraction=0.05, seed=31)


def _fingerprint(result):
    return (result.labels.tolist(), result.medoid_indices.tolist(),
            result.dimensions, result.objective,
            result.iterative_objective, result.terminated_by)


class TestResolveNJobs:
    def test_serial(self):
        assert resolve_n_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_n_jobs(3) == 3

    def test_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_capped_by_tasks(self):
        assert resolve_n_jobs(8, n_tasks=3) == 3
        assert resolve_n_jobs(2, n_tasks=5) == 2

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "2", True, None])
    def test_invalid(self, bad):
        with pytest.raises(ParameterError, match="n_jobs"):
            resolve_n_jobs(bad)


class TestSharedMatrix:
    def test_publish_attach_roundtrip(self, rng):
        X = rng.normal(size=(40, 6))
        plane = SharedMatrix.publish(X)
        try:
            view = SharedMatrix.attach(plane.descriptor)
            assert np.array_equal(view, X)
            assert not view.flags.writeable
        finally:
            # drop the in-process attachment before unlinking the segment
            from repro.perf.parallel import _ATTACHED
            shm, _ = _ATTACHED.pop(str(plane.descriptor["name"]))
            shm.close()
            plane.unlink()

    def test_descriptor_is_plain_data(self, rng):
        plane = SharedMatrix.publish(rng.normal(size=(3, 3)))
        try:
            desc = plane.descriptor
            assert set(desc) == {"name", "shape", "dtype"}
            assert desc["shape"] == (3, 3)
        finally:
            plane.unlink()


class TestParallelMap:
    def test_serial_is_list_comprehension(self):
        assert parallel_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_threaded_preserves_order(self):
        items = list(range(20))
        assert parallel_map(lambda x: x + 1, items, n_jobs=4) == \
            [x + 1 for x in items]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError(f"boom {x}")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, [1, 2, 3], n_jobs=2)


class TestRestartBitIdentity:
    """proclus(n_jobs=2) == proclus(n_jobs=1), bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_across_seeds(self, workload, seed):
        serial = proclus(workload.points, 3, 3, seed=seed, restarts=3, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=seed, restarts=3,
                           n_jobs=2, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_across_metrics(self, workload, metric):
        serial = proclus(workload.points, 3, 3, seed=5, restarts=3,
                         metric=metric, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=5, restarts=3,
                           metric=metric, n_jobs=2, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_winner_cache_stats(self, workload):
        # the winner's cache counters cross the pool with its result
        serial = proclus(workload.points, 3, 3, seed=11, restarts=3, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=11, restarts=3,
                           n_jobs=2, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)
        assert parallel.cache_stats == serial.cache_stats

    def test_generous_deadline(self, workload):
        """A budget that never expires must not perturb anything."""
        serial = proclus(workload.points, 3, 3, seed=13, restarts=3,
                         time_budget_s=120.0, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=13, restarts=3,
                           time_budget_s=120.0, n_jobs=2, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_large_database_mode(self, workload):
        serial = proclus(workload.points, 3, 3, seed=17, restarts=3,
                         fit_sample_size=300, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=17, restarts=3,
                           fit_sample_size=300, n_jobs=2, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_all_cores_identical(self, workload):
        serial = proclus(workload.points, 3, 3, seed=23, restarts=4, **FAST)
        parallel = proclus(workload.points, 3, 3, seed=23, restarts=4,
                           n_jobs=-1, **FAST)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_estimator_forwards_n_jobs(self, workload):
        est = Proclus(k=3, l=3, seed=7, restarts=2, n_jobs=2, **FAST)
        est.fit(workload.points)
        ref = proclus(workload.points, 3, 3, seed=7, restarts=2, **FAST)
        assert _fingerprint(est.result_) == _fingerprint(ref)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_proclus_rejects_bad_n_jobs(self, workload, bad):
        with pytest.raises(ParameterError, match="n_jobs"):
            proclus(workload.points, 3, 3, seed=1, n_jobs=bad, **FAST)

    def test_config_validates_n_jobs(self, workload):
        from repro.core.config import ProclusConfig
        with pytest.raises(ParameterError, match="n_jobs"):
            ProclusConfig(k=3, l=3, n_jobs=0).validated(600, 10)


class TestDiagnostics:
    def test_serial_restart_diagnostics(self, workload):
        result = proclus(workload.points, 3, 3, seed=5, restarts=3, **FAST)
        p = result.parallelism
        assert p["n_jobs"] == 1 and p["n_workers"] == 1
        assert p["restarts_completed"] == 3
        assert len(p["restart_seconds"]) == 3
        assert all(s > 0 for s in p["restart_seconds"])
        assert p["wall_seconds"] > 0

    def test_parallel_restart_diagnostics(self, workload):
        result = proclus(workload.points, 3, 3, seed=5, restarts=3,
                         n_jobs=2, **FAST)
        p = result.parallelism
        assert p["n_jobs"] == 2 and p["n_workers"] == 2
        assert p["restarts_completed"] == 3
        assert len(p["restart_seconds"]) == 3

    def test_single_restart_has_no_parallelism(self, workload):
        result = proclus(workload.points, 3, 3, seed=5, **FAST)
        assert result.parallelism is None
        assert parallel_report(None) is None

    def test_parallel_report_math(self):
        report = parallel_report({
            "n_jobs": 2, "n_workers": 2, "restarts_completed": 3,
            "restart_seconds": [1.0, 1.0, None], "wall_seconds": 1.0,
        })
        assert report.busy_seconds == pytest.approx(2.0)
        assert report.speedup == pytest.approx(2.0)
        assert report.efficiency == pytest.approx(1.0)
        assert "2 worker(s)" in report.to_text()

    def test_serialization_roundtrip(self, workload, tmp_path):
        result = proclus(workload.points, 3, 3, seed=5, restarts=2, **FAST)
        path = save_result(result, tmp_path / "fit.npz")
        loaded = load_result(path)
        assert loaded.parallelism["restarts_completed"] == 2
        assert loaded.parallelism["n_workers"] == 1

    def test_to_dict_carries_parallelism(self, workload):
        result = proclus(workload.points, 3, 3, seed=5, restarts=2, **FAST)
        assert result.to_dict()["parallelism"]["restarts_completed"] == 2


class TestNotesIsolation:
    """Regression for the restart ``notes`` aliasing: children used to
    share the parent's list, so the winner carried losers' notes."""

    def test_winner_notes_only_appended_once(self, workload):
        dirty = workload.points.copy()
        dirty[::97, 0] = np.nan
        with pytest.warns(UserWarning):
            result = proclus(dirty, 3, 3, seed=5, restarts=3,
                             on_bad_values="drop", **FAST)
        # sanitization notes are parent-level and must appear exactly once,
        # not once per restart child
        for msg in set(result.warnings):
            assert result.warnings.count(msg) == 1

    def test_budget_note_appended_once(self, workload):
        with pytest.warns(UserWarning, match="time budget exhausted"):
            result = proclus(workload.points, 3, 3, seed=5, restarts=40,
                             max_bad_tries=10**6, max_iterations=10**6,
                             time_budget_s=0.05)
        budget_notes = [w for w in result.warnings
                        if "time budget exhausted" in w]
        assert len(budget_notes) == 1
