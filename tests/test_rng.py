"""Unit tests for repro.rng."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.rng import ensure_rng, spawn


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_reproducible(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 10**9, 10)
        b = ensure_rng(2).integers(0, 10**9, 10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_rejects_strings(self):
        with pytest.raises(ParameterError, match="seed must be"):
            ensure_rng("42")


class TestSpawn:
    def test_count(self):
        children = spawn(ensure_rng(0), 4)
        assert len(children) == 4

    def test_children_independent(self):
        a, b = spawn(ensure_rng(0), 2)
        assert not np.array_equal(a.integers(0, 10**9, 20),
                                  b.integers(0, 10**9, 20))

    def test_deterministic_given_seed(self):
        c1 = spawn(ensure_rng(7), 2)
        c2 = spawn(ensure_rng(7), 2)
        assert np.array_equal(c1[0].integers(0, 10**9, 5),
                              c2[0].integers(0, 10**9, 5))

    def test_zero_children(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)
