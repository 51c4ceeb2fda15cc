"""Deterministic random-number plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument
that may be ``None`` (fresh entropy), an ``int``, or an existing
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalises the three
forms.  :func:`spawn` derives independent child generators so that, e.g.,
the PROCLUS initialization and iterative phases consume decoupled
streams — inserting extra draws in one phase does not perturb the other,
which keeps regression tests stable across refactors.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .validation import check_positive_int, check_seed

__all__ = ["ensure_rng", "spawn", "SeedLike"]

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    ``None`` gives fresh OS entropy; an ``int >= 0`` gives a
    reproducible generator; an existing generator is passed through
    unchanged (shared, not copied — callers who need isolation should
    use :func:`spawn`).  Any other value (a bool, a negative int, a
    string, ...) raises :class:`~repro.exceptions.ParameterError`.
    """
    seed = check_seed(seed)
    if seed is None:
        # the one sanctioned fresh-entropy point in the library
        return np.random.default_rng()  # repr: noqa RPR001
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Uses the generator's underlying ``SeedSequence`` machinery when
    available, falling back to integer reseeding otherwise.
    """
    n = check_positive_int(n, name="n", minimum=0)
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is not None:
        return [np.random.default_rng(s) for s in seed_seq.spawn(n)]
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]
