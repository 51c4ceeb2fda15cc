"""Unit tests for dataset CSV/NPZ round-trips."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import (Dataset, generate, load_csv, load_npz, save_csv,
                        save_npz)
from repro.exceptions import DataError, ParameterError


@pytest.fixture
def dataset():
    return generate(50, 6, 2, cluster_dim_counts=[3, 2], seed=42, name="io-test")


class TestCsv:
    def test_round_trip_points_exact(self, dataset, tmp_path):
        path = save_csv(dataset, tmp_path / "ds.csv")
        loaded = load_csv(path)
        assert np.array_equal(loaded.points, dataset.points)

    def test_round_trip_labels(self, dataset, tmp_path):
        loaded = load_csv(save_csv(dataset, tmp_path / "ds.csv"))
        assert np.array_equal(loaded.labels, dataset.labels)

    def test_round_trip_dims_and_name(self, dataset, tmp_path):
        loaded = load_csv(save_csv(dataset, tmp_path / "ds.csv"))
        assert loaded.cluster_dimensions == dataset.cluster_dimensions
        assert loaded.name == "io-test"

    def test_unlabelled_round_trip(self, dataset, tmp_path):
        blind = dataset.without_ground_truth()
        loaded = load_csv(save_csv(blind, tmp_path / "blind.csv"))
        assert loaded.labels is None
        assert np.array_equal(loaded.points, blind.points)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# name: nothing\nx0,x1\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)


_FMAX = float(np.finfo(np.float64).max)
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                _FMAX, -_FMAX]


@st.composite
def _datasets(draw):
    """A 1-3 x 1-3 dataset, labelled or not, finite or not."""
    nonfinite = draw(st.booleans())
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # NaN is drawn only as float("nan"): save_csv writes repr(), which
    # keeps neither a NaN's sign nor its payload
    special = _EDGE_FLOATS + ([float("nan"), float("inf"), float("-inf")]
                              if nonfinite else [])
    cell = st.one_of(st.sampled_from(special),
                     st.floats(allow_nan=False, allow_infinity=nonfinite))
    points = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)),
                      dtype=np.float64).reshape(n, d)
    labels = None
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(
            st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
            dtype=np.int64)
    return Dataset(points=points, labels=labels, allow_nonfinite=nonfinite)


class TestCsvRoundTripBitExact:
    @given(dataset=_datasets())
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_then_load_is_bit_exact(self, dataset, tmp_path):
        loaded = load_csv(save_csv(dataset, tmp_path / "ds.csv"),
                          allow_nonfinite=True)
        assert loaded.points.dtype == np.float64
        assert loaded.points.tobytes() == dataset.points.tobytes()
        if dataset.labels is None:
            assert loaded.labels is None
        else:
            assert loaded.labels.dtype == np.int64
            assert np.array_equal(loaded.labels, dataset.labels)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_and_comment_lines_between_rows(self, tmp_path, newline):
        lines = ["# name: hand", "", "x0,x1,label", "1.5,-0.0,0", "",
                 "# a comment", "1e-320, nan ,-1", ""]
        p = tmp_path / "hand.csv"
        p.write_bytes(newline.join(lines).encode())
        loaded = load_csv(p, allow_nonfinite=True)
        expected = np.array([[1.5, -0.0], [1e-320, np.nan]])
        assert loaded.points.tobytes() == expected.tobytes()
        assert loaded.labels.tolist() == [0, -1]
        assert loaded.name == "hand"

    def test_one_row_unlabelled(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x0,x1,x2\n1,2,3\n")
        loaded = load_csv(p)
        assert loaded.labels is None
        assert loaded.points.tolist() == [[1.0, 2.0, 3.0]]

    def test_preamble_keys_only_before_the_header(self, tmp_path):
        p = tmp_path / "late.csv"
        p.write_text("x0,label\n# name: late\n"
                     '# cluster_dims: {"0": [0]}\n1,0\n')
        loaded = load_csv(p)
        assert loaded.name == "late"  # the file stem, not the comment
        assert loaded.cluster_dimensions is None
        assert loaded.points.tolist() == [[1.0]]

    @pytest.mark.parametrize("text", ["x0,x1,label\r\n",
                                      "x0,x1\n\n# only comments\n",
                                      "# name: no header\n", ""])
    def test_no_data_rows_is_a_data_error(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)


class TestCsvTypedErrors:
    @pytest.mark.parametrize("body, match", [
        ("x0,x1\n1,a\n", "could not convert string 'a' to float64 at row 0"),
        ("x0,label\n1,2.5\n", "could not convert string '2.5' to int64"),
        ("x0,x1\n1,2\n3\n", "requires 2 columns but 1 were found"),
        ("x0,x1\n1,2,3\n", "requires 2 columns but 3 were found"),
        ("# cluster_dims: {\nx0\n1\n", "malformed CSV"),
    ], ids=["bad-cell", "non-integer-label", "short-row", "long-row",
            "bad-cluster-dims"])
    def test_malformed_body(self, tmp_path, body, match):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError, match=match) as info:
            load_csv(p)
        assert str(p) in str(info.value)

    def test_cluster_dims_not_a_mapping(self, tmp_path):
        p = tmp_path / "dims.csv"
        p.write_text("# cluster_dims: [1, 2]\nx0,x1\n1,2\n")
        with pytest.raises(DataError, match="must map cluster ids"):
            load_csv(p)

    def test_unreadable_paths(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*missing.csv"):
            load_csv(tmp_path / "missing.csv")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path)

    @pytest.mark.parametrize("call", [
        lambda ds: load_csv(None), lambda ds: load_npz(3),
        lambda ds: save_csv(ds, None), lambda ds: save_npz(ds, b"x.npz"),
    ], ids=["load_csv", "load_npz", "save_csv", "save_npz"])
    def test_non_path_arguments(self, dataset, call):
        with pytest.raises(ParameterError, match="must be a path"):
            call(dataset)


class TestNpz:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_npz(dataset, path)
        loaded = load_npz(path)
        assert np.array_equal(loaded.points, dataset.points)
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.cluster_dimensions == dataset.cluster_dimensions
        assert loaded.name == "io-test"

    def test_unlabelled(self, dataset, tmp_path):
        path = tmp_path / "blind.npz"
        save_npz(dataset.without_ground_truth(), path)
        assert load_npz(path).labels is None


class TestNpzTypedErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*missing.npz"):
            load_npz(tmp_path / "missing.npz")

    @pytest.mark.parametrize("write", [
        lambda p: p.write_text("x0,x1\n1,2\n"),
        lambda p: p.write_bytes(pickle.dumps({"points": [[1.0, 2.0]]})),
    ], ids=["text", "pickle"])
    def test_not_an_npz_archive(self, tmp_path, write):
        p = tmp_path / "bad.npz"
        write(p)
        with pytest.raises(DataError, match="as an .npz dataset"):
            load_npz(p)

    def test_single_npy_array(self, tmp_path):
        p = tmp_path / "one.npy"
        np.save(p, np.eye(3))
        with pytest.raises(DataError, match="as an .npz dataset"):
            load_npz(p)

    def test_archive_without_points(self, tmp_path):
        p = tmp_path / "nopoints.npz"
        np.savez(p, labels=np.zeros(3, dtype=np.int64))
        with pytest.raises(DataError, match="no 'points' array"):
            load_npz(p)

    def test_malformed_cluster_dims_json(self, tmp_path):
        p = tmp_path / "dims.npz"
        np.savez(p, points=np.eye(3), cluster_dims_json=np.asarray("{"))
        with pytest.raises(DataError, match="as an .npz dataset"):
            load_npz(p)
