"""Precision-aware compute path: dtype threading, contracts, round-trips.

The working dtype (float64 default, float32 opt-in) is chosen once at
the public API boundary and preserved by every kernel downstream.  The
tests here pin the two halves of that contract:

* **float64 is bit-identical to the historical path** — running with
  ``dtype="float64"`` (or not passing ``dtype`` at all) produces the
  same bits with and without cache reuse, across serial/parallel
  restarts, and through checkpoint/resume;
* **float32 is deterministic within the dtype** — repeated runs, runs
  with and without cache reuse, parallel fan-outs, and resumed runs agree
  bit-for-bit, and the result round-trips through ``save_result`` /
  ``load_result`` without widening.

Plus the satellite regressions that rode along: the bincount-based
``find_bad_medoids``, the budget-honouring empty-cluster placeholder,
and ``segmental_columns``' up-front ``out`` validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Proclus, load_result, proclus, save_result
from repro.core.config import ProclusConfig
from repro.core.dimensions import find_dimensions_from_clusters
from repro.core.iterative import find_bad_medoids
from repro.data import generate
from repro.distance import (
    cross_distances,
    per_dimension_average_distance,
    segmental_distances_to_point,
)
from repro.dtypes import as_working, check_dtype, to_float64, working_dtype
from repro.exceptions import CheckpointError, ParameterError
from repro.metrics import adjusted_rand_index
from repro.obs import Tracer, use_tracer
from repro.perf.cache import IterativeCache
from repro.perf.kernels import segmental_columns
from repro.perf.parallel import SharedMatrix
from repro.robustness import guards
from repro.robustness.sanitize import sanitize
from repro.validation import check_array

from reference.no_reuse import fit_without_reuse

DS = generate(900, 12, 3, cluster_dim_counts=[5, 4, 6],
              outlier_fraction=0.05, seed=21)
K, L, SEED = 3, 4, 9


def fingerprint(result):
    return (
        result.labels.tobytes(),
        result.medoids.tobytes(),
        result.medoid_indices.tobytes(),
        tuple(sorted(result.dimensions.items())),
        result.objective,
        result.iterative_objective,
    )


# ----------------------------------------------------------------------
# the seam: check_dtype / as_working / to_float64
# ----------------------------------------------------------------------

class TestDtypeSeam:
    def test_check_dtype_defaults_to_float64(self):
        assert check_dtype(None) == "float64"

    @pytest.mark.parametrize("value", ["float32", np.float32,
                                       np.dtype(np.float32), "<f4"])
    def test_check_dtype_accepts_float32_spellings(self, value):
        assert check_dtype(value) == "float32"

    @pytest.mark.parametrize("value", ["float16", np.int32, "int64",
                                       complex, "not-a-dtype"])
    def test_check_dtype_rejects_non_working_dtypes(self, value):
        with pytest.raises(ParameterError):
            check_dtype(value)

    def test_as_working_preserves_float32_and_float64(self):
        for dt in (np.float32, np.float64):
            X = np.ones((3, 2), dtype=dt)
            assert as_working(X) is X  # no copy for a working dtype

    def test_as_working_coerces_everything_else_to_float64(self):
        assert as_working(np.ones(3, dtype=np.int32)).dtype == np.float64
        assert as_working([[1, 2]]).dtype == np.float64
        assert as_working(np.ones(3, dtype=np.float16)).dtype == np.float64

    def test_working_dtype_of_lists_is_float64(self):
        assert working_dtype([1.0, 2.0]) == np.float64

    def test_to_float64_is_the_explicit_upcast(self):
        out = to_float64(np.ones(3, dtype=np.float32))
        assert out.dtype == np.float64

    def test_check_array_preserves_working_dtype_by_default(self):
        X32 = np.ones((4, 2), dtype=np.float32)
        assert check_array(X32, name="X").dtype == np.float32
        assert check_array([[1, 2], [3, 4]], name="X").dtype == np.float64

    def test_check_array_explicit_dtype_converts(self):
        X32 = np.ones((4, 2), dtype=np.float32)
        assert check_array(X32, name="X",
                           dtype=np.float64).dtype == np.float64

    def test_sanitize_threads_the_dtype(self):
        X = np.ones((6, 3))
        X[0, 0] = np.nan
        cleaned, report = sanitize(X, on_bad_values="drop", warn=False,
                                   dtype="float32")
        assert cleaned.dtype == np.float32
        assert report.dropped_rows.size == 1

    def test_config_validates_dtype(self):
        cfg = ProclusConfig(k=3, l=3, dtype=np.float32)
        assert cfg.validated(100, 10).dtype == "float32"
        with pytest.raises(ParameterError):
            ProclusConfig(k=3, l=3, dtype="int8").validated(100, 10)


# ----------------------------------------------------------------------
# kernels compute natively in the working dtype
# ----------------------------------------------------------------------

class TestKernelDtypes:
    @pytest.fixture(params=[np.float32, np.float64])
    def X(self, request):
        rng = np.random.default_rng(4)
        return rng.normal(size=(50, 6)).astype(request.param)

    def test_segmental_columns_preserves_dtype(self, X):
        out = segmental_columns(X, X[:3], [(0, 1), (2, 3), (4, 5)])
        assert out.dtype == X.dtype

    def test_segmental_distances_to_point_preserves_dtype(self, X):
        out = segmental_distances_to_point(X, X[0], (1, 3))
        assert out.dtype == X.dtype

    def test_cross_and_pairwise_distances_preserve_dtype(self, X):
        assert cross_distances(X, X[:4]).dtype == X.dtype
        assert cross_distances(X[:8], X[:8]).dtype == X.dtype

    def test_ranking_statistics_always_accumulate_in_float64(self, X):
        # the Z-score ranking domain is float64 for any working dtype
        assert per_dimension_average_distance(X, X[0]).dtype == np.float64

    def test_chunked_segmental_matches_unchunked_bits(self, X, monkeypatch):
        dims = [(0, 2, 4), (1, 3), (0, 5)]
        full = segmental_columns(X, X[:3], dims)
        # blocks of 4 rows: two entries per selected column and row
        monkeypatch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES",
                            X.itemsize * 7 * 2 * 4)
        tight = segmental_columns(X, X[:3], dims)
        np.testing.assert_array_equal(full, tight)

    def test_float32_budget_fits_twice_the_rows(self):
        budget = 64_000
        assert (guards.row_block_size(10**6, 8, 8, 4,
                                      memory_budget_bytes=budget)
                == 2 * guards.row_block_size(10**6, 8, 8, 8,
                                             memory_budget_bytes=budget))

    def test_cache_holds_columns_in_the_working_dtype(self):
        X = np.random.default_rng(5).normal(size=(40, 4)).astype(np.float32)
        cache = IterativeCache()
        rows = np.array([0, 1])
        radii = np.full(2, cross_distances(X[:1], X[1:2])[0, 0])
        cols = cache.distance_columns(X, rows, "euclidean", deltas=radii,
                                      min_size=2)
        assert all(col.dtype == np.float32 for col in cols)
        seg = cache.segmental_matrix(X, np.array([0, 1]), [(0, 1), (2, 3)])
        assert all(col.dtype == np.float32 for col in seg)

    def test_shared_matrix_publishes_float32_without_widening(self):
        X = np.random.default_rng(6).normal(size=(5, 3)).astype(np.float32)
        plane = SharedMatrix.publish(X)
        try:
            view = SharedMatrix.attach(plane.descriptor)
            assert view.dtype == np.float32
            np.testing.assert_array_equal(np.asarray(view), X)
        finally:
            plane.unlink()


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------

class TestSatellites:
    def test_find_bad_medoids_matches_naive_count(self):
        rng = np.random.default_rng(11)
        for k in (2, 4, 7):
            labels = rng.integers(-1, k, size=500)
            naive = np.array([np.count_nonzero(labels == i)
                              for i in range(k)])
            expected = sorted(
                set(np.flatnonzero(
                    naive < (labels.size / k) * 0.3).tolist())
                | {int(np.argmin(naive))}
            )
            assert find_bad_medoids(labels, k, 0.3) == expected

    def test_find_bad_medoids_with_empty_cluster(self):
        labels = np.array([0, 0, 0, 2, 2])  # cluster 1 is empty
        assert 1 in find_bad_medoids(labels, 3, 0.1)

    def test_empty_cluster_placeholder_honours_nearest_two(self):
        # the segmental-kernel routing must pick the same nearest-2
        # members the historical unbudgeted |X - medoid| sum picked
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 5))
        labels = np.zeros(30, dtype=np.int64)
        labels[:15] = 1  # cluster 2 is empty
        medoid_indices = np.array([0, 20, 10])
        sets = find_dimensions_from_clusters(X, labels, medoid_indices, 3.0)
        assert len(sets) == 3 and all(len(s) >= 2 for s in sets)

    def test_empty_cluster_placeholder_matches_manhattan_order(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 4))
        m = 6
        dist = np.abs(X - X[m]).sum(axis=1)
        dist[m] = np.inf
        naive = np.argsort(dist, kind="stable")[:2]
        routed = segmental_distances_to_point(X, X[m], np.arange(4))
        routed[m] = np.inf
        assert np.array_equal(np.argsort(routed, kind="stable")[:2], naive)

    def test_segmental_columns_out_shape_is_validated(self):
        X = np.ones((10, 4))
        with pytest.raises(ParameterError, match="expected \\(10, 2\\)"):
            segmental_columns(X, X[:2], [(0,), (1,)],
                              out=np.empty((10, 3)))

    def test_segmental_columns_out_dtype_is_validated(self):
        X = np.ones((10, 4))
        with pytest.raises(ParameterError, match="working "):
            segmental_columns(X, X[:2], [(0,), (1,)],
                              out=np.empty((10, 2), dtype=np.float32))

    def test_segmental_columns_valid_out_is_filled_in_place(self):
        X = np.random.default_rng(9).normal(size=(10, 4))
        out = np.empty((10, 2))
        returned = segmental_columns(X, X[:2], [(0, 1), (2, 3)], out=out)
        assert returned is out
        np.testing.assert_array_equal(
            out, segmental_columns(X, X[:2], [(0, 1), (2, 3)]))


# ----------------------------------------------------------------------
# float64: bit-identical to the historical default path
# ----------------------------------------------------------------------

class TestFloat64BitIdentity:
    def test_explicit_float64_equals_default(self):
        a = proclus(DS.points, K, L, seed=SEED)
        b = proclus(DS.points, K, L, seed=SEED, dtype="float64")
        assert fingerprint(a) == fingerprint(b)
        assert a.medoids.dtype == np.float64

    def test_cache_toggle_is_bit_identical(self, monkeypatch):
        a = proclus(DS.points, K, L, seed=SEED, dtype="float64")
        fit_without_reuse(monkeypatch)
        b = proclus(DS.points, K, L, seed=SEED, dtype="float64")
        assert fingerprint(a) == fingerprint(b)
        assert b.cache_stats["distance"]["hits"] == 0

    def test_parallel_restarts_match_serial(self):
        a = proclus(DS.points, K, L, seed=SEED, dtype="float64", restarts=3)
        b = proclus(DS.points, K, L, seed=SEED, dtype="float64", restarts=3,
                    n_jobs=2)
        assert fingerprint(a) == fingerprint(b)

    def test_resume_is_bit_identical(self, tmp_path):
        straight = proclus(DS.points, K, L, seed=SEED, restarts=3,
                           dtype="float64")
        ckpt = str(tmp_path / "run64")
        proclus(DS.points, K, L, seed=SEED, restarts=3, dtype="float64",
                checkpoint_dir=ckpt)
        resumed = proclus(DS.points, K, L, seed=SEED, restarts=3,
                          dtype="float64", checkpoint_dir=ckpt, resume=True)
        assert fingerprint(straight) == fingerprint(resumed)


# ----------------------------------------------------------------------
# float32: deterministic within the dtype
# ----------------------------------------------------------------------

class TestFloat32Determinism:
    def test_repeated_runs_are_bit_identical(self):
        a = proclus(DS.points, K, L, seed=SEED, dtype="float32")
        b = proclus(DS.points, K, L, seed=SEED, dtype="float32")
        assert fingerprint(a) == fingerprint(b)
        assert a.medoids.dtype == np.float32

    def test_cache_toggle_is_bit_identical(self, monkeypatch):
        a = proclus(DS.points, K, L, seed=SEED, dtype="float32")
        fit_without_reuse(monkeypatch)
        b = proclus(DS.points, K, L, seed=SEED, dtype="float32")
        assert fingerprint(a) == fingerprint(b)
        assert b.cache_stats["distance"]["hits"] == 0

    def test_parallel_restarts_match_serial(self):
        a = proclus(DS.points, K, L, seed=SEED, dtype="float32", restarts=3)
        b = proclus(DS.points, K, L, seed=SEED, dtype="float32", restarts=3,
                    n_jobs=2)
        assert fingerprint(a) == fingerprint(b)

    def test_float32_input_is_not_silently_widened(self):
        result = proclus(DS.points.astype(np.float32), K, L, seed=SEED,
                         dtype="float32")
        assert result.medoids.dtype == np.float32

    def test_estimator_predict_joins_fitted_precision(self):
        est = Proclus(k=K, l=L, seed=SEED, dtype="float32").fit(DS.points)
        labels = est.predict(DS.points)  # float64 input, float32 fit
        assert labels.shape == (DS.points.shape[0],)

    def test_save_load_round_trips_float32(self, tmp_path):
        result = proclus(DS.points, K, L, seed=SEED, dtype="float32")
        path = save_result(result, tmp_path / "r32.npz")
        loaded = load_result(path)
        assert loaded.medoids.dtype == np.float32
        assert fingerprint(loaded)[:4] == fingerprint(result)[:4]

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        straight = proclus(DS.points, K, L, seed=SEED, restarts=3,
                           dtype="float32")
        ckpt = str(tmp_path / "run32")
        proclus(DS.points, K, L, seed=SEED, restarts=3, dtype="float32",
                checkpoint_dir=ckpt)
        resumed = proclus(DS.points, K, L, seed=SEED, restarts=3,
                          dtype="float32", checkpoint_dir=ckpt, resume=True)
        assert fingerprint(straight) == fingerprint(resumed)

    def test_checkpoint_refuses_the_other_precision(self, tmp_path):
        ckpt = str(tmp_path / "mixed")
        proclus(DS.points, K, L, seed=SEED, restarts=2, dtype="float32",
                checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError):
            proclus(DS.points, K, L, seed=SEED, restarts=2, dtype="float64",
                    checkpoint_dir=ckpt, resume=True)

    def test_profile_reports_fewer_bytes_moved(self):
        def bytes_counters(dtype):
            tracer = Tracer()
            with use_tracer(tracer):
                proclus(DS.points, K, L, seed=SEED, dtype=dtype,
                        profile=True)
            counters = tracer.profile()["counters"]
            return (counters.get("kernel.segmental_bytes", 0),
                    counters.get("kernel.distance_bytes", 0))

        seg64, dist64 = bytes_counters("float64")
        seg32, dist32 = bytes_counters("float32")
        assert seg64 > 0 and dist64 > 0
        assert seg32 * 2 <= seg64 * 1.05  # ~half the bytes per unit work
        assert dist32 < dist64


# ----------------------------------------------------------------------
# property: float32 and float64 agree on separated clusters
# ----------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_float32_labels_agree_with_float64_on_separated_clusters(seed):
    ds = generate(400, 10, 3, cluster_dim_counts=[4, 4, 5],
                  outlier_fraction=0.0, seed=seed)
    r64 = proclus(ds.points, 3, 4, seed=seed)
    r32 = proclus(ds.points, 3, 4, seed=seed, dtype="float32")
    assert adjusted_rand_index(r32.labels, r64.labels) >= 0.9
