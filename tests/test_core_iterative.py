"""Unit tests for the iterative (hill-climbing) phase."""

import numpy as np
import pytest

from repro.core import run_iterative_phase
from repro.core.iterative import find_bad_medoids, replace_bad_medoids
from repro.data import generate
from repro.exceptions import ConvergenceWarning, ParameterError
from repro.rng import ensure_rng
from repro.robustness import Deadline


class TestFindBadMedoids:
    def test_smallest_cluster_always_bad(self):
        labels = np.array([0] * 50 + [1] * 49 + [2] * 48)
        bad = find_bad_medoids(labels, k=3, min_deviation=0.1)
        assert 2 in bad

    def test_below_threshold_bad(self):
        # N = 100, k = 4 -> threshold = 100/4 * 0.1 = 2.5
        labels = np.array([0] * 50 + [1] * 46 + [2] * 2 + [3] * 2)
        bad = find_bad_medoids(labels, k=4, min_deviation=0.1)
        assert set(bad) >= {2, 3}

    def test_balanced_clusters_one_bad(self):
        labels = np.repeat([0, 1, 2, 3], 25)
        bad = find_bad_medoids(labels, k=4, min_deviation=0.1)
        assert len(bad) == 1  # only the (tied) smallest

    def test_empty_cluster_bad(self):
        labels = np.array([0] * 50 + [1] * 50)
        bad = find_bad_medoids(labels, k=3, min_deviation=0.1)
        assert 2 in bad


class TestReplaceBadMedoids:
    def test_replaces_only_bad_positions(self):
        rng = ensure_rng(0)
        current = np.array([10, 20, 30])
        pool = np.arange(100)
        new = replace_bad_medoids(current, [1], pool, rng)
        assert new[0] == 10
        assert new[2] == 30
        assert new[1] != 20

    def test_no_duplicates(self):
        rng = ensure_rng(1)
        current = np.array([0, 1, 2, 3])
        pool = np.arange(10)
        for _ in range(20):
            new = replace_bad_medoids(current, [0, 2], pool, rng)
            assert len(set(new.tolist())) == 4

    def test_pool_exhausted_keeps_old(self):
        rng = ensure_rng(2)
        current = np.array([0, 1])
        pool = np.array([0, 1])  # nothing new available
        new = replace_bad_medoids(current, [0], pool, rng)
        assert np.array_equal(new, current)


class TestRunIterativePhase:
    @pytest.fixture
    def dataset(self):
        return generate(800, 10, 3, cluster_dim_counts=[4, 4, 4],
                        outlier_fraction=0.02, seed=31)

    def test_output_shapes(self, dataset):
        pool = np.arange(0, 800, 40)  # 20 candidates
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        assert out.medoid_indices.shape == (3,)
        assert len(out.dim_sets) == 3
        assert out.labels.shape == (800,)
        assert np.isfinite(out.objective)

    def test_objective_monotone_in_history(self, dataset):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        best = np.inf
        for rec in out.history:
            if rec.improved:
                assert rec.objective < best
                best = rec.objective

    def test_first_iteration_always_improves(self, dataset):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        assert out.history[0].improved
        assert out.n_improvements >= 1

    def test_termination_reason_set(self, dataset):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4,
                                  max_bad_tries=3, seed=5)
        assert out.terminated_by in {"no_improvement", "pool_exhausted",
                                     "max_iterations"}

    def test_max_iterations_cap(self, dataset):
        pool = np.arange(0, 800, 40)
        with pytest.warns(ConvergenceWarning, match="max_iterations=2"):
            out = run_iterative_phase(dataset.points, pool, k=3, l=4,
                                      max_iterations=2, max_bad_tries=50,
                                      seed=5)
        assert out.n_iterations <= 2
        assert out.terminated_by == "max_iterations"

    def test_no_warning_on_clean_convergence(self, dataset, recwarn):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        assert out.terminated_by != "max_iterations"
        assert not [w for w in recwarn.list
                    if issubclass(w.category, ConvergenceWarning)]

    def test_deadline_returns_best_so_far(self, dataset):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(
            dataset.points, pool, k=3, l=4, seed=5,
            max_bad_tries=10**6, max_iterations=10**6,
            deadline=Deadline.start(0.0),
        )
        assert out.terminated_by == "deadline"
        # the first iteration always completes, so the result is usable
        assert out.n_iterations >= 1
        assert len(out.dim_sets) == 3
        assert out.labels.shape == (800,)
        assert np.isfinite(out.objective)

    def test_unlimited_deadline_harmless(self, dataset):
        pool = np.arange(0, 800, 40)
        a = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=9)
        b = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=9,
                                deadline=Deadline.start(None))
        assert np.array_equal(a.medoid_indices, b.medoid_indices)
        assert a.objective == b.objective

    def test_dimension_budget_respected(self, dataset):
        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        assert sum(len(d) for d in out.dim_sets) == 12
        assert all(len(d) >= 2 for d in out.dim_sets)

    def test_pool_too_small_rejected(self, dataset):
        with pytest.raises(ParameterError, match="pool has"):
            run_iterative_phase(dataset.points, np.array([1, 2]), k=3, l=4)

    def test_deterministic(self, dataset):
        pool = np.arange(0, 800, 40)
        a = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=9)
        b = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=9)
        assert np.array_equal(a.medoid_indices, b.medoid_indices)
        assert a.objective == b.objective

    def test_history_bad_positions_belong_to_visited_vertex(self, dataset):
        # regression: non-improving records used to carry the *best*
        # vertex's stale bad positions instead of the visited vertex's
        # own.  Re-derive each record's clustering and check.
        from repro.core import assign_points, compute_localities, find_dimensions

        pool = np.arange(0, 800, 40)
        out = run_iterative_phase(dataset.points, pool, k=3, l=4, seed=5)
        non_improving = [rec for rec in out.history if not rec.improved]
        assert non_improving  # seed 5 visits rejected vertices
        for rec in out.history:
            current = np.asarray(rec.medoid_indices, dtype=np.intp)
            localities, _ = compute_localities(
                dataset.points, current, min_locality_size=2)
            dims = find_dimensions(dataset.points, current, 4,
                                   localities=localities)
            labels = assign_points(dataset.points, dataset.points[current],
                                   dims)
            expected = find_bad_medoids(labels, k=3, min_deviation=0.1)
            assert list(rec.bad_positions) == expected
