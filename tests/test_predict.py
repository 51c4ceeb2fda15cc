"""The inference core: ``predict_points`` / ``ProclusResult.predict``.

The load-bearing contract is **fit/predict bit-identity**: running the
training matrix back through ``predict`` must reproduce
``result.labels`` exactly — across working dtypes, serial/parallel
fits, chunk sizes, and a save/load round-trip — because the predict
path *is* the refinement phase's assignment rule.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import predict as predict_module
from repro.core.predict import (DEFAULT_PREDICT_CHUNK, FittedModel,
                                PredictReport, normalize_dimension_sets,
                                predict_points)
from repro.core.proclus import proclus
from repro.core.refinement import spheres_of_influence
from repro.perf.kernels import segmental_columns
from repro.core.serialization import load_result, save_result
from repro.perf import kernels
from repro.exceptions import (BudgetExceededError, DataError, ParameterError)
from repro.obs import Tracer, use_tracer, validate_trace_lines
from repro.robustness.guards import Deadline


@pytest.fixture(scope="module")
def fitted(tiny_projected_dataset_module):
    ds = tiny_projected_dataset_module
    result = proclus(ds.points, 3, 4.0, seed=99)
    return ds, result


@pytest.fixture(scope="module")
def tiny_projected_dataset_module():
    from repro.data import generate
    return generate(600, 10, 3, cluster_dim_counts=[3, 3, 4],
                    outlier_fraction=0.05, seed=202)


# ---------------------------------------------------------------------------
# fit/predict bit-identity
# ---------------------------------------------------------------------------

class TestTrainingSetBitIdentity:
    def test_float64(self, fitted):
        ds, result = fitted
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_float32(self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, dtype="float32")
        assert result.medoids.dtype == np.float32
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_parallel_fit(self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, restarts=2, n_jobs=2)
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_save_load_round_trip(self, fitted, tmp_path):
        ds, result = fitted
        path = save_result(result, tmp_path / "model.npz")
        loaded = load_result(path)
        assert np.array_equal(loaded.predict(ds.points), result.labels)

    def test_no_outlier_fit_predicts_without_rule(
            self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, handle_outliers=False)
        labels = result.predict(ds.points, handle_outliers=False)
        assert np.array_equal(labels, result.labels)
        assert not (labels == -1).any()


class TestChunkInvariance:
    def test_chunk_size_never_changes_bits(self, fitted):
        ds, result = fitted
        reference = result.predict(ds.points)
        for chunk in (1, 7, 37, 599, 600, DEFAULT_PREDICT_CHUNK):
            assert np.array_equal(
                result.predict(ds.points, chunk_size=chunk), reference)

    def test_memory_budget_never_changes_bits(self, fitted):
        ds, result = fitted
        reference = result.predict(ds.points)
        assert np.array_equal(
            result.predict(ds.points, memory_budget_bytes=1 << 14), reference)

    def test_traced_equals_untraced(self, fitted):
        ds, result = fitted
        untraced = result.predict(ds.points)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = result.predict(ds.points)
        assert np.array_equal(traced, untraced)
        records = list(tracer.iter_records())
        assert any(r.get("name") == "predict" for r in records)
        counters = next(r["values"] for r in records
                        if r.get("type") == "counters")
        assert {"predict.points", "predict.outliers"} <= set(counters)
        assert counters["predict.points"] == ds.n_points


# ---------------------------------------------------------------------------
# sphere-of-influence semantics
# ---------------------------------------------------------------------------

class TestSphereOfInfluence:
    def _model(self):
        # two medoids 10 apart on dim 0; both clusters project onto {0}
        medoids = np.array([[0.0, 0.0], [10.0, 0.0]])
        return medoids, [(0,), (0,)]

    def test_point_inside_sphere_is_assigned(self):
        medoids, dims = self._model()
        report = predict_points(np.array([[1.0, 50.0]]), medoids, dims)
        assert report.labels.tolist() == [0]

    def test_point_outside_every_sphere_is_outlier(self):
        medoids, dims = self._model()
        # 25 from medoid 0 and 15 from medoid 1 on dim 0: both exceed
        # the sphere radius of 10 -> outlier, strict `>` rule
        report = predict_points(np.array([[25.0, 0.0]]), medoids, dims)
        assert report.labels.tolist() == [-1]
        assert report.n_outliers == 1

    def test_point_exactly_on_sphere_is_kept(self):
        medoids, dims = self._model()
        # distance to medoid 1 is exactly 10 == sphere: strict > keeps it
        report = predict_points(np.array([[20.0, 0.0]]), medoids, dims)
        assert report.labels.tolist() == [1]

    def test_single_medoid_rejects_nothing(self):
        report = predict_points(np.array([[1e6, 1e6]]),
                                np.zeros((1, 2)), [(0, 1)])
        assert report.labels.tolist() == [0]
        assert np.isinf(report.spheres).all()

    def test_handle_outliers_false_always_assigns(self):
        medoids, dims = self._model()
        report = predict_points(np.array([[1e6, 0.0]]), medoids, dims,
                                handle_outliers=False)
        assert report.labels.tolist() == [1]

    def test_precomputed_spheres_match_recomputed(self, fitted):
        ds, result = fitted
        dims = normalize_dimension_sets(result.dimensions,
                                        result.k, ds.points.shape[1])
        model = FittedModel.build(result.medoids, result.dimensions)
        assert model.dim_sets == tuple(dims)
        assert np.array_equal(model.spheres,
                              spheres_of_influence(result.medoids, dims))
        a = predict_points(ds.points, result.medoids, result.dimensions)
        b = model.predict(ds.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.spheres, b.spheres)

    def test_segmental_distance_is_per_cluster_subspace(self):
        # medoid 0 looks at dim 0 only, medoid 1 at dim 1 only: a point
        # near the origin on dim 0 but far on dim 1 must pick cluster 0
        medoids = np.array([[0.0, 0.0], [0.0, 0.0]])
        report = predict_points(np.array([[0.5, 9.0]]), medoids,
                                [(0,), (1,)], handle_outliers=False)
        assert report.labels.tolist() == [0]


# ---------------------------------------------------------------------------
# validation and policies
# ---------------------------------------------------------------------------

class TestValidation:
    def test_wrong_dimensionality_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="expects d=10"):
            result.predict(np.zeros((3, 4)))

    def test_non_numeric_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError):
            result.predict([["a", "b"]])

    def test_empty_batch_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="empty"):
            result.predict(np.zeros((0, 10)))

    def test_3d_batch_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="2-dimensional"):
            result.predict(np.zeros((2, 3, 10)))

    def test_oversized_batch_rejected(self, fitted):
        ds, result = fitted
        with pytest.raises(ParameterError, match="at most 10"):
            result.predict_report(ds.points, max_points=10)

    def test_single_point_accepted_as_row(self, fitted):
        ds, result = fitted
        labels = result.predict(ds.points[0])
        assert labels.shape == (1,)
        assert labels[0] == result.labels[0]

    def test_nan_raises_by_default(self, fitted):
        ds, result = fitted
        bad = ds.points[:5].copy()
        bad[2, 3] = np.nan
        with pytest.raises(ParameterError, match="NaN"):
            result.predict(bad)

    def test_nan_policy_drop_labels_row_outlier(self, fitted):
        ds, result = fitted
        bad = ds.points[:5].copy()
        bad[2, 3] = np.nan
        report = result.predict_report(bad, on_bad_values="drop")
        assert report.labels.shape == (5,)
        assert report.labels[2] == -1
        keep = [0, 1, 3, 4]
        assert np.array_equal(report.labels[keep], result.labels[:5][keep])
        assert report.warnings

    def test_all_rows_dropped_is_all_outliers_not_error(self, fitted):
        _, result = fitted
        batch = np.full((3, 10), np.nan)
        report = result.predict_report(batch, on_bad_values="drop")
        assert report.labels.tolist() == [-1, -1, -1]
        assert report.n_outliers == 3

    def test_nan_policy_impute_assigns_every_row(self, fitted):
        ds, result = fitted
        bad = ds.points[:20].copy()
        bad[2, 3] = np.inf
        report = result.predict_report(bad, on_bad_values="impute_median")
        assert report.labels.shape == (20,)
        assert report.sanitization is not None

    def test_missing_cluster_id_rejected(self):
        with pytest.raises(ParameterError, match="missing cluster id"):
            normalize_dimension_sets({0: [0]}, 2, 3)

    def test_empty_dimension_set_rejected(self):
        with pytest.raises(ParameterError, match="empty dimension set"):
            normalize_dimension_sets([[0], []], 2, 3)

    def test_out_of_range_dimension_rejected(self):
        with pytest.raises(ParameterError, match="outside"):
            normalize_dimension_sets([[0], [7]], 2, 3)

    def test_bad_medoids_rejected(self):
        with pytest.raises(DataError):
            predict_points(np.zeros((2, 2)),
                           np.array([[np.nan, 0.0]]), [(0,)])

    def test_infinite_spheres_accepted(self, fitted):
        ds, result = fitted
        model = dataclasses.replace(
            FittedModel.build(result.medoids, result.dimensions),
            spheres=np.full(result.k, np.inf))
        report = model.predict(ds.points)
        # an infinite sphere rejects nothing
        assert report.n_outliers == 0
        assert np.array_equal(
            report.labels, result.predict(ds.points, handle_outliers=False))

    @pytest.mark.parametrize("batch", [
        np.zeros((3, 10), dtype=np.complex128),
        np.ones((2, 10), dtype=np.complex64),
        [[np.complex128(1j)] + [0.0] * 9],
        [[1 + 2j] + [0.0] * 9],
    ])
    def test_complex_batch_rejected(self, fitted, batch):
        _, result = fitted
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning first
            with pytest.raises(ParameterError):
                result.predict(batch)


class TestDeadline:
    def test_expired_deadline_discards_batch(self, fitted):
        ds, result = fitted
        deadline = Deadline.start(0.0)
        with pytest.raises(BudgetExceededError):
            result.predict(ds.points, deadline=deadline, chunk_size=10)

    def test_unlimited_deadline_is_fine(self, fitted):
        ds, result = fitted
        labels = result.predict(ds.points, deadline=Deadline.start(None))
        assert np.array_equal(labels, result.labels)

    def test_expiry_before_the_bad_block_is_a_deadline_error(self, fitted):
        # finiteness is checked block by block, after each deadline poll
        ds, result = fitted
        bad = ds.points.copy()
        bad[-1, 0] = np.nan
        with pytest.raises(BudgetExceededError):
            result.predict(bad, deadline=Deadline.start(0.0), chunk_size=10)


class TestReportShape:
    def test_to_dict_is_json_wire_shape(self, fitted):
        ds, result = fitted
        payload = result.predict_report(ds.points[:4]).to_dict()
        assert set(payload) == {"labels", "n_points", "n_outliers",
                                "warnings"}
        assert payload["n_points"] == 4
        assert all(isinstance(v, int) for v in payload["labels"])

    def test_return_distances(self, fitted):
        ds, result = fitted
        report = result.predict_report(ds.points[:8], return_distances=True)
        assert report.distances is not None
        assert report.distances.shape == (8, result.k)
        assert isinstance(report, PredictReport)

    def test_labels_are_int64(self, fitted):
        ds, result = fitted
        assert result.predict(ds.points[:4]).dtype == np.int64

    def test_trace_records_validate(self, fitted, tmp_path):
        ds, result = fitted
        tracer = Tracer()
        with use_tracer(tracer):
            result.predict(ds.points[:16])
        path = tracer.write_jsonl(tmp_path / "predict.jsonl")
        with open(path, encoding="utf-8") as fh:
            validate_trace_lines(fh)


# ---------------------------------------------------------------------------
# the blocked predict loop against the whole-matrix formulation
# ---------------------------------------------------------------------------

def whole_matrix_predict(X, medoids, dim_sets, spheres, handle_outliers):
    """The formulation the blocked loop replaced: the whole ``(N, k)``
    matrix first, then the nearest-medoid scan and the outlier mask over
    it (``np.argmin`` and ``np.all``, which ``nearest_medoid`` and
    ``detect_outliers`` are tested equal to)."""
    dist = segmental_columns(X, medoids, dim_sets)
    labels = np.argmin(dist, axis=1)
    if handle_outliers:
        labels[np.all(dist > spheres[None, :], axis=1)] = -1
    return labels, dist


@st.composite
def blocked_cases(draw):
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # small integers: exact ties between medoids and points on spheres
    X = rng.integers(-4, 5, size=(n, d)).astype(dtype)
    medoids = rng.integers(-4, 5, size=(k, d)).astype(dtype)
    dim_sets = [tuple(sorted(int(j) for j in rng.choice(
        d, draw(st.integers(1, d)), replace=False))) for _ in range(k)]
    chunk = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    budget = draw(st.sampled_from([None, 64, 1000]))
    return X, medoids, dim_sets, chunk, budget


class TestBlockedMatchesWholeMatrix:
    @given(blocked_cases(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_oracle(self, case, handle_outliers,
                                     return_distances):
        X, medoids, dim_sets, chunk, budget = case
        spheres = spheres_of_influence(medoids, dim_sets)
        expected, expected_dist = whole_matrix_predict(
            X, medoids, dim_sets, spheres, handle_outliers)
        report = predict_points(X, medoids, dim_sets,
                                handle_outliers=handle_outliers,
                                chunk_size=chunk, memory_budget_bytes=budget,
                                return_distances=return_distances)
        assert report.labels.dtype == np.int64
        assert np.array_equal(report.labels, expected)
        assert report.n_outliers == int(np.count_nonzero(expected == -1))
        if return_distances:
            assert report.distances.dtype == X.dtype
            assert np.array_equal(report.distances, expected_dist)
        else:
            assert report.distances is None

    def test_one_kernel_call_per_equal_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(1000, 6))
        medoids = X[[3, 500, 900]]
        dim_sets = [(0, 1), (2, 3, 4), (5,)]
        rows = []

        def spy(block, *args, **kwargs):
            rows.append(block.shape[0])
            return segmental_columns(block, *args, **kwargs)

        monkeypatch.setattr(predict_module, "segmental_columns", spy)
        predict_points(X, medoids, dim_sets, chunk_size=300)
        # 1000 rows under a 300-row cap: four equal blocks, not 3 + tail
        assert rows == [250, 250, 250, 250]

    @pytest.mark.parametrize("where", ["last_block", "unused_dimension"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_value_raises_without_labels(self, where, bad):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(1000, 4))
        medoids = X[[0, 1]]
        dim_sets = [(0,), (1,)]  # no medoid uses dimensions 2 and 3
        if where == "last_block":
            X[-1, 0] = bad
        else:
            X[500, 3] = bad
        with pytest.raises(ParameterError, match="NaN or infinite"):
            predict_points(X, medoids, dim_sets, chunk_size=100)

    def test_peak_memory_below_the_whole_matrix(self):
        n, d, k = 100_000, 10, 5
        rng = np.random.default_rng(3)
        X = rng.normal(size=(n, d))
        medoids = X[:k].copy()
        dim_sets = [(0, 1, 2), (3, 4), (5, 6, 7), (8, 9), (1, 4, 9)]
        whole_matrix_bytes = n * k * X.dtype.itemsize
        tracemalloc.start()
        try:
            predict_points(X, medoids, dim_sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_matrix_bytes, (peak, whole_matrix_bytes)


# ---------------------------------------------------------------------------
# the segmental layout is built once per predict call
# ---------------------------------------------------------------------------

def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a spy; returns its list of calls."""
    real = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestLayoutBuiltOnce:
    def test_layout_built_once_per_predict_call(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(1000, 6))
        medoids = X[[3, 500, 900]]
        dim_sets = [(0, 1), (2, 3, 4), (5,)]
        blocks = _counting(monkeypatch, predict_module, "segmental_columns")
        layouts = _counting(monkeypatch, kernels, "build_dims_layout")
        predict_points(X, medoids, dim_sets, chunk_size=100)
        assert len(blocks) == 10
        assert len(layouts) == 1

    def test_mismatched_layout_raises(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 6))
        dim_sets = [(0, 1), (2, 3, 4), (5,)]
        layout = kernels.segmental_layout(X[[3, 20, 40]], dim_sets)
        with pytest.raises(ParameterError, match="layout"):
            segmental_columns(X, X[[3, 20]], dim_sets[:2], layout=layout)
        with pytest.raises(ParameterError, match="layout"):
            segmental_columns(X.astype(np.float32), X[[3, 20, 40]],
                              dim_sets, layout=layout)
        np.testing.assert_array_equal(
            segmental_columns(X, X[[3, 20, 40]], dim_sets, layout=layout),
            segmental_columns(X, X[[3, 20, 40]], dim_sets))
