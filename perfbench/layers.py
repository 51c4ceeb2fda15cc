"""Outside-in layer tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary:
a traced operation patches the program's public functions at every
module that imported them, records one span per call, and puts the
original functions back when the operation ends.  Nothing inside the
program changes; its own spans and counters (``profile=True``, the
server's ``--trace-file``) are read, never extended.

Spans stay in memory and are written out as JSON Lines when the run
ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanLog:
    """In-memory span recorder with import-site function patching."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the block, nested under the open span."""
        record = {"id": len(self.records),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start_s": time.perf_counter(),
                  "end_s": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn: Callable[..., Any],
                 name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap(self, fn: Callable[..., Any], name: str,
             modules: Optional[List[str]] = None) -> int:
        """Patch ``fn`` wherever a loaded ``repro`` module holds it.

        ``modules`` limits the patch to those module names.  Returns
        the number of import sites patched (0 means the layer's
        boundary moved and the trace would silently miss it).
        """
        wrapper = self._wrapper(fn, name)
        attr = fn.__name__
        sites = 0
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if modules is not None and mod_name not in modules:
                continue
            if getattr(module, attr, None) is fn:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapper)
                sites += 1
        return sites

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def _names_of_ancestors(self, record: Dict[str, Any]) -> Iterator[str]:
        parent = record["parent"]
        while parent is not None:
            ancestor = self.records[parent]
            yield ancestor["name"]
            parent = ancestor["parent"]

    def calls(self, name: str) -> int:
        """Number of spans called ``name``, nested ones included."""
        return sum(1 for r in self.records if r["name"] == name)

    def total_s(self, name: str) -> float:
        """Seconds under ``name``, not counting a span nested in itself."""
        return sum(r["end_s"] - r["start_s"] for r in self.records
                   if r["name"] == name
                   and name not in self._names_of_ancestors(r))

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus the children's."""
        child_s: Dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_s[r["parent"]] = (child_s.get(r["parent"], 0.0)
                                        + r["end_s"] - r["start_s"])
        out: Dict[str, float] = {}
        for r in self.records:
            own = r["end_s"] - r["start_s"] - child_s.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write_jsonl(self, path: Path) -> Path:
        """Write every span, then a self-time summary line."""
        with path.open("w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(dict(r, dur_s=r["end_s"] - r["start_s"]))
                         + "\n")
            fh.write(json.dumps({"self_s": self.self_seconds()}) + "\n")
        return path


@contextmanager
def fit_layers(log: SpanLog) -> Iterator[None]:
    """Patch the fit pipeline's layer boundaries for one traced fit."""
    from repro import validation
    from repro.core import (assignment, dimensions, initialization,
                            iterative, objective, refinement)
    from repro.perf import kernels

    try:
        for fn, name, where in (
            (dimensions.compute_localities, "step.localities",
             ["repro.core.iterative"]),
            (dimensions.find_dimensions, "step.find_dimensions",
             ["repro.core.iterative"]),
            (assignment.assign_points, "step.assign",
             ["repro.core.iterative"]),
            (objective.evaluate_clusters, "step.evaluate",
             ["repro.core.iterative"]),
            (initialization.initialize_medoid_pool, "init",
             ["repro.core.proclus"]),
            (iterative.run_iterative_phase, "iterative",
             ["repro.core.proclus"]),
            (refinement.refine_clusters, "refine", ["repro.core.proclus"]),
            (kernels.segmental_columns, "kernel.segmental", None),
            (validation.check_array, "validate", None),
        ):
            if log.wrap(fn, name, where) == 0:
                raise RuntimeError(f"no import site of {fn.__name__} found "
                                   f"for layer {name}")
        yield
    finally:
        log.restore()


@contextmanager
def predict_layers(log: SpanLog) -> Iterator[None]:
    """Patch the predict path's layer boundaries for one traced predict."""
    from repro import validation
    from repro.core import refinement
    from repro.perf import kernels

    try:
        for fn, name, where in (
            (kernels.segmental_columns, "predict.kernel",
             ["repro.core.predict"]),
            (refinement.detect_outliers, "predict.outliers",
             ["repro.core.predict"]),
            (validation.check_array, "validate", None),
        ):
            if log.wrap(fn, name, where) == 0:
                raise RuntimeError(f"no import site of {fn.__name__} found "
                                   f"for layer {name}")
        yield
    finally:
        log.restore()
