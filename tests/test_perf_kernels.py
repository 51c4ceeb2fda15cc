"""Oracle tests for the segmental kernel and its column-major consumers.

:func:`reference_segmental_columns` is the kernel's earlier formulation:
one gather of every medoid's dimensions and ``np.add.reduceat`` over the
segments.  The production kernel sums each medoid's rows in reduceat's
order instead of gathering, and must match the reference bit for bit in
both working dtypes — across the pairwise-summation boundaries (7/8/9
terms, 128/129/130 terms), row chunking, ``out=`` memory orders and
non-contiguous inputs.  The consumers of its column-major matrices,
:func:`nearest_medoid` and :func:`detect_outliers`, take a matrix as
its columns (``dist.T``) or the cache's list of columns, and are
checked against the row-wise ``np.argmin`` and ``np.all`` they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.refinement import detect_outliers
from repro.perf.kernels import (nearest_medoid, row_block_size,
                                segmental_columns)
from repro.robustness import guards

DTYPES = st.sampled_from([np.float32, np.float64])
# pairwise summation switches strategy at 8 and at 128 terms; the first
# segment term is added separately, so |D_i| = m + 1 sums m terms
BOUNDARY_SIZES = [1, 2, 7, 8, 9, 10, 16, 17, 127, 128, 129, 130, 131,
                  137, 255, 256, 257, 258, 300]


def reference_segmental_columns(X, medoids, dim_sets):
    """Gather + ``np.add.reduceat``: the formulation the kernel replaced."""
    counts = np.array([len(d) for d in dim_sets], dtype=np.intp)
    flat = np.concatenate([np.asarray(d, dtype=np.intp) for d in dim_sets])
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    owner = np.repeat(np.arange(counts.size), counts)
    diffs = np.abs(X[:, flat] - medoids[owner, flat])
    out = np.add.reduceat(diffs, starts, axis=1)
    out /= counts
    return out


def _workload(seed, dtype, n, d, sizes):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=d)
    X = (rng.normal(size=(n, d)) * scale).astype(dtype)
    dim_sets = [tuple(int(j) for j in rng.choice(d, size, replace=False))
                for size in sizes]
    medoids = (rng.normal(size=(len(sizes), d)) * scale).astype(dtype)
    return X, medoids, dim_sets


@st.composite
def workloads(draw, max_d=24):
    d = draw(st.integers(1, max_d))
    sizes = draw(st.lists(st.integers(1, d), min_size=1, max_size=6))
    return _workload(draw(st.integers(0, 2**32 - 1)), draw(DTYPES),
                     draw(st.integers(1, 70)), d, sizes)


class TestMatchesReduceat:
    @given(workloads())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_reference(self, workload):
        X, medoids, dim_sets = workload
        out = segmental_columns(X, medoids, dim_sets)
        assert out.dtype == X.dtype
        assert np.array_equal(
            out, reference_segmental_columns(X, medoids, dim_sets))

    @given(st.integers(0, 2**32 - 1), DTYPES,
           st.lists(st.sampled_from(BOUNDARY_SIZES), min_size=1,
                    max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_summation_boundaries(self, seed, dtype, sizes):
        # d = 300 reaches the halving path (more than 128 summed terms)
        X, medoids, dim_sets = _workload(seed, dtype, 23, 300, sizes)
        assert np.array_equal(
            segmental_columns(X, medoids, dim_sets),
            reference_segmental_columns(X, medoids, dim_sets))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_size_from_1_to_d(self, dtype):
        d = 140
        X, medoids, dim_sets = _workload(7, dtype, 9, d, range(1, d + 1))
        assert np.array_equal(
            segmental_columns(X, medoids, dim_sets),
            reference_segmental_columns(X, medoids, dim_sets))

    @given(workloads(), st.sampled_from([1, 64, 700, 5000]))
    @settings(max_examples=60, deadline=None)
    def test_chunked_equals_unchunked(self, workload, budget):
        X, medoids, dim_sets = workload
        full = segmental_columns(X, medoids, dim_sets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(guards, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
            chunked = segmental_columns(X, medoids, dim_sets)
        assert np.array_equal(full, chunked)

    def test_many_row_blocks_equal_reference(self):
        # more rows than one cache-sized row block holds
        X, medoids, dim_sets = _workload(3, np.float64, 20_011, 20,
                                         [5, 1, 9, 20, 3])
        assert np.array_equal(
            segmental_columns(X, medoids, dim_sets),
            reference_segmental_columns(X, medoids, dim_sets))


class TestRowBlockSize:
    @given(st.integers(1, 10**6), st.integers(1, 100), st.integers(1, 600),
           st.sampled_from([4, 8]),
           st.sampled_from([None, 1, 100, 10_000, 1 << 20]),
           st.one_of(st.none(), st.integers(1, 20_000)))
    @settings(max_examples=300, deadline=None)
    def test_a_block_is_one_kernel_block(self, n, d, n_selected, itemsize,
                                         budget, cap):
        step = row_block_size(n, d, n_selected, itemsize,
                              memory_budget_bytes=budget, cap=cap)
        assert 1 <= step <= n
        if cap is not None:
            assert step <= cap
        # equal blocks: the last one falls short of the others by fewer
        # rows than there are blocks
        n_blocks = -(-n // step)
        assert n - (n_blocks - 1) * step > step - n_blocks
        # a block handed to segmental_columns is walked as one block
        assert row_block_size(step, d, n_selected, itemsize,
                              memory_budget_bytes=budget) == step


class TestLayoutAndOut:
    @pytest.fixture
    def workload(self):
        return _workload(11, np.float64, 57, 12, [3, 1, 8, 12, 9])

    def test_result_is_column_major(self, workload):
        X, medoids, dim_sets = workload
        out = segmental_columns(X, medoids, dim_sets)
        assert out.shape == (X.shape[0], len(dim_sets))
        assert out.flags.f_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_in_either_order_is_filled(self, workload, order):
        X, medoids, dim_sets = workload
        out = np.empty((X.shape[0], len(dim_sets)), dtype=X.dtype,
                       order=order)
        returned = segmental_columns(X, medoids, dim_sets, out=out)
        assert returned is out
        assert np.array_equal(
            out, reference_segmental_columns(X, medoids, dim_sets))

    @pytest.mark.parametrize("view", [
        lambda A: A[::3],            # strided rows
        lambda A: A[5:40],           # row slice
        lambda A: A[:, 2:],          # column slice
        lambda A: A[::2, ::-1],      # strided rows, reversed columns
        np.asfortranarray,
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, view, dtype):
        base, medoids, _ = _workload(5, dtype, 90, 16, [1, 1, 1])
        X = view(base)
        medoids = medoids[:, :X.shape[1]]
        dim_sets = [(0, 3, 7, 12), (1, 2, 4, 5, 6, 8, 9, 10, 11), (12, 0)]
        assert np.array_equal(
            segmental_columns(X, medoids, dim_sets),
            reference_segmental_columns(X, medoids, dim_sets))

    def test_empty_batch(self, workload):
        X, medoids, dim_sets = workload
        out = segmental_columns(X[:0], medoids, dim_sets)
        assert out.shape == (0, len(dim_sets))


# exact ties, including -0.0 against 0.0, which compare equal
TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 3.5])


class TestNearestMedoid:
    @given(st.integers(1, 40), st.integers(1, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_argmin_on_ties(self, n, k, data):
        dist = data.draw(arrays(np.float64, (n, k), elements=TIE_VALUES))
        expected = np.argmin(dist, axis=1)
        for columns in (np.ascontiguousarray(dist).T,
                        np.asfortranarray(dist).T, list(dist.T.copy())):
            labels = nearest_medoid(columns)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, expected)

    def test_more_medoids_than_a_byte_holds(self):
        # k > 256 keeps its running labels in uint16
        rng = np.random.default_rng(4)
        dist = rng.integers(0, 50, size=(400, 300)).astype(np.float64)
        labels = nearest_medoid(dist.T)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.argmin(dist, axis=1))
        assert labels.max() > 255

    def test_signed_zero_keeps_first_index(self):
        dist = np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]])
        assert nearest_medoid(dist.T).tolist() == [0, 0, 1]
        assert nearest_medoid(dist.T).tolist() == np.argmin(dist, 1).tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmin_on_kernel_output(self, dtype):
        X, medoids, dim_sets = _workload(2, dtype, 500, 10, [2, 3, 2, 4])
        dist = segmental_columns(np.round(X), np.round(medoids), dim_sets)
        assert np.array_equal(nearest_medoid(dist.T), np.argmin(dist, axis=1))


class TestDetectOutliers:
    @given(st.integers(1, 40), st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_wise_all(self, n, k, data):
        spheres = data.draw(arrays(
            np.float64, k,
            elements=st.sampled_from([0.0, 1.0, 2.0, np.inf])))
        dist = data.draw(arrays(np.float64, (n, k), elements=TIE_VALUES))
        expected = np.all(dist > spheres[None, :], axis=1)
        for columns in (np.ascontiguousarray(dist).T,
                        np.asfortranarray(dist).T, list(dist.T.copy())):
            mask = detect_outliers(columns, spheres)
            assert mask.dtype == bool
            assert np.array_equal(mask, expected)
