"""Declared determinism contracts the lint rules check code against.

These tables are the *specification* side of the static analysis: the
rules in :mod:`repro.analysis.rules` verify that the implementation
still matches what is declared here.  Changing cached-kernel inputs or
worker signatures therefore forces a matching edit in this file, which
is exactly the point — the contract change becomes visible in review
instead of silently skewing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "CacheKeyContract",
    "CACHE_KEY_CONTRACTS",
    "SHAREABLE_TYPE_NAMES",
    "DETERMINISM_SCOPED_DIRS",
    "PUBLIC_API_FILES",
    "ALLOWED_NP_RANDOM_ATTRS",
    "WALL_CLOCK_CALLS",
    "DURATION_CLOCK_CALLS",
    "MUTATING_CALLS",
    "ARRAY_MUTATING_METHODS",
    "DECLARED_OUT_PARAMS",
    "PURITY_GLOBAL_ALLOWLIST",
    "SHARED_PUBLISH_METHODS",
]


@dataclass(frozen=True)
class CacheKeyContract:
    """What fully determines one cached product.

    ``store`` is the attribute holding the LRU store inside the cache
    class; ``key_names`` are the identifiers (parameters or locals
    derived from them) that must all flow into every ``get``/``put``
    key built for that store inside the contracted method.  RPR003
    flags a method whose keys omit any of them — an under-keyed cache
    returns stale values when the omitted quantity changes, which
    breaks bit-identity with recomputing them.
    """

    store: str
    key_names: Tuple[str, ...]


#: class name -> method name -> contract.  Keyed per method because the
#: same determining quantity appears under different local names (the
#: scalar ``delta`` in the locality path, the vector ``deltas`` in the
#: batched statistics path).
CACHE_KEY_CONTRACTS: Dict[str, Dict[str, CacheKeyContract]] = {
    "IterativeCache": {
        # d(X, X[row]) depends on the medoid row and the metric.
        "distance_columns": CacheKeyContract(
            store="_distance", key_names=("row", "metric")),
        # A segmental column depends on the medoid row and its dim set.
        "segmental_matrix": CacheKeyContract(
            store="_segmental", key_names=("row", "dims")),
        # Locality membership depends on the medoid row, its radius,
        # the fallback floor, and the metric: read (and selected on a
        # miss) per vertex, and stored by a new medoid's pass.
        "localities": CacheKeyContract(
            store="_locality",
            key_names=("row", "deltas", "min_size", "metric")),
        "_store_locality": CacheKeyContract(
            store="_locality",
            key_names=("row", "delta", "min_size", "metric")),
        # X_{i,.} rows are determined by the same quantities as the
        # locality that produced them.
        "dimension_stats": CacheKeyContract(
            store="_stats",
            key_names=("row", "deltas", "min_size", "metric")),
        # A new medoid's row, filled by its blocked |X - m| pass.
        "_store_new_medoid": CacheKeyContract(
            store="_stats",
            key_names=("row", "delta", "min_size", "metric")),
    },
}

#: Annotation roots RPR005 accepts on process-pool worker parameters.
#: Everything here pickles by value (no open handles, no closures) and
#: round-trips losslessly through ``multiprocessing``'s spawn path.
SHAREABLE_TYPE_NAMES: FrozenSet[str] = frozenset({
    # builtins
    "int", "float", "str", "bool", "bytes", "complex", "None", "object",
    "dict", "list", "tuple", "set", "frozenset",
    # typing aliases of the same
    "Dict", "List", "Tuple", "Set", "FrozenSet", "Optional", "Union",
    "Sequence", "Mapping", "Iterable", "Any",
    # numpy values (arrays and Generators pickle by state); "random" is
    # the module path component in ``np.random.Generator`` annotations
    "np", "numpy", "random", "ndarray", "Generator", "SeedLike",
    # frozen value dataclasses shipped to supervised fan-out workers /
    # serve chaos harnesses (repro.robustness.faults: plain scalars only)
    "ProcessFaultSpec", "ServeFaultSpec",
})

#: Directories whose files RPR002 guards: the numeric core, where a
#: wall-clock read or unordered-set iteration feeding a result value
#: breaks serial/parallel and cache hit/miss bit-identity — plus the
#: serving layer, whose labels must be bit-identical to the fit path
#: (all serve timing goes through ``repro.obs.clock`` / ``Deadline``).
DETERMINISM_SCOPED_DIRS: Tuple[str, ...] = ("core", "perf", "distance",
                                            "serve")

#: File basenames RPR004 treats as public API surface in addition to
#: any file under a ``core`` directory.
PUBLIC_API_FILES: Tuple[str, ...] = ("cli.py", "__init__.py")

#: ``numpy.random`` attributes that are *not* legacy global-state RNG:
#: constructing seeded generator machinery is the sanctioned pattern.
ALLOWED_NP_RANDOM_ATTRS: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
})

#: Calls RPR002 flags inside the determinism-scoped directories: values
#: read from these can reach results or branches and make a run
#: irreproducible.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "datetime.datetime.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

# --- interprocedural purity & escape contracts (RPR007 / RPR008) -----

#: Qualified call names known to mutate specific *positional* arguments
#: (0-indexed).  The dataflow pass treats every other unresolvable call
#: as pure in its arguments — a documented precision choice that keeps
#: findings actionable — so the in-place numpy surface must be named
#: here explicitly.
MUTATING_CALLS: Dict[str, Tuple[int, ...]] = {
    "numpy.copyto": (0,),
    "numpy.put": (0,),
    "numpy.put_along_axis": (0,),
    "numpy.place": (0,),
    "numpy.putmask": (0,),
    "numpy.fill_diagonal": (0,),
    "numpy.random.shuffle": (0,),
    # ufunc.at (numpy.add.at, numpy.maximum.at, ...) is recognised
    # generically by the effects pass; listed entries take precedence.
}

#: Method names that mutate their receiver in place when the receiver's
#: type is unknown to the symbol table (ndarray and the stdlib
#: containers).  ``x.sort()`` on a parameter makes the function impure
#: in that argument.
ARRAY_MUTATING_METHODS: FrozenSet[str] = frozenset({
    # ndarray
    "sort", "fill", "partition", "put", "itemset", "resize", "setfield",
    # list / dict / set — mutating a container argument is equally impure
    "append", "extend", "insert", "remove", "clear", "update",
    "setdefault", "popitem", "add", "discard", "move_to_end",
})

#: Sanctioned explicit-output parameters: writing through these does
#: not convict the function (the write is its documented contract), but
#: an argument a *caller* passes into one is still recorded as mutated
#: at the call site.  Keys are ``name`` / ``Class.method`` suffixes.
DECLARED_OUT_PARAMS: Dict[str, Tuple[str, ...]] = {
    # the vectorised segmental kernel writes the caller's buffer by
    # design; cached call sites never pass ``out`` (test-enforced via
    # RPR007: a cached call site passing ``out`` would convict)
    "segmental_columns": ("out",),
    # sums the kernel's own (|D_i|, rows) scratch block in place
    "_sum_rows_like_reduceat": ("rows",),
}

#: Mutable module globals cached kernels may read (RPR007).  Entries
#: are bare names (any module) or dotted ``module.name`` suffixes.
#: ``ALL_CAPS`` module constants are exempt by convention and need no
#: entry.  Every entry is a reviewed statement that the global cannot
#: skew a cached value:
PURITY_GLOBAL_ALLOWLIST: FrozenSet[str] = frozenset({
    # the observability seam: kernels read the installed tracer to
    # emit counters.  Tracing is proven side-effect-free on results by
    # the bit-identity suite (traced == untraced), and the default is
    # the module-level NullTracer.
    "repro.obs.tracer._current_tracer",
})

#: Classes whose named method publishes a buffer into shared memory
#: (RPR008): the method must write-protect the shared view before
#: returning, and call sites must never mutate the published source
#: array afterwards.
SHARED_PUBLISH_METHODS: Dict[str, str] = {
    "SharedMatrix": "publish",
}

#: Duration clocks RPR002 also flags in the scoped directories — not
#: because durations break bit-identity (they never feed result values),
#: but to funnel every timing read through the single sanctioned seam
#: ``repro.obs.clock.monotonic_s``, where the observability layer owns
#: it.  Code outside the scoped dirs (robustness/, experiments/, the
#: tracer itself) may use these freely.
DURATION_CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
})
