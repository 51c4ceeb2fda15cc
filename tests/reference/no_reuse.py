"""An :class:`~repro.perf.cache.IterativeCache` that reuses nothing.

The hill climb always computes through a cache.  What it would do
without reuse is the same fused pass with every store emptied at the
start of each vertex: a new medoid's distance column, locality and
statistics row still come from one read of ``|X - m|``, but nothing
survives into the next vertex.  Tests compare the shared cache against
this fake to show that reuse never changes a bit.
"""

import importlib

from repro.perf.cache import IterativeCache


class NoReuseCache(IterativeCache):
    """Empties every store at the start of each hill-climb vertex.

    A vertex starts with :meth:`distance_columns` (its localities), so
    the stores are cleared there; a vertex still shares its own
    products between its steps.
    """

    def distance_columns(self, X, medoid_indices, metric, **kwargs):
        for store in self._stores:
            store.clear()
        return super().distance_columns(X, medoid_indices, metric, **kwargs)


def fit_without_reuse(monkeypatch):
    """Make every in-process fit build a :class:`NoReuseCache`.

    A fit builds its cache in :mod:`repro.core.proclus`; serial restarts
    run in-process, pool workers do not.
    """
    monkeypatch.setattr(importlib.import_module("repro.core.proclus"),
                        "IterativeCache", NoReuseCache)
