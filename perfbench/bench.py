"""Workloads, output checks and metrics of the PROCLUS benchmark.

Two workloads split the program's layers between them, so that a
change to one layer moves the numbers of one workload and predicts no
change on the other:

``fit_fig7``
    Repeated ``repro.proclus()`` fits on the paper's Figure-7 shape
    (N = 50,000, d = 20, five clusters of 5 dimensions, 5% outliers,
    k = l = 5), float64 and the defaults.  The hill climb does ~95% of
    the work; predict and serving do none.
``predict_bulk``
    ``ProclusResult.predict`` on 200,000 held-out rows per operation,
    with a model fitted and saved on the ``fit_fig7`` matrix.  The
    segmental kernel, the outlier test and query coercion do the work.
    Its traced run also sends fixed 64-row batches through
    ``repro.serve.PredictClient`` to ``proclus serve`` subprocesses, so
    that the serving layers are measured too.

Both share one Figure-7 draw; the ``--seed`` the benchmark is given
picks where in a fixed cycle of fit seeds the fits start, the served
model's seed and where the served batches start.  The program receives only the generated arrays.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.serialization import load_result_with_fingerprint, save_result
from repro.data import generate
from repro.data.dataset import Dataset
from repro.data.io import load_csv, save_csv
from repro.exceptions import ReproError
from repro.metrics import adjusted_rand_index
from repro.obs import Tracer, use_tracer
from repro.serve import PredictClient

from layers import SpanLog, fit_layers, predict_layers

K = 5
L = 5
#: Figure-7 generator settings shared by every workload.
N_DIMS = 20
CLUSTER_DIMS = [5] * K
OUTLIER_FRACTION = 0.05
#: Generator seed of the one Figure-7 draw every run uses.  The workload
#: seed picks where the fits start in their seed cycle, the served
#: model's seed and the order of the served batches.  Drawing the matrix from the workload seed too
#: moved the median fit time by +-10% between draws, on top of the
#: fit seeds' own spread.
DATA_SEED = 0
#: Each timed figure of set-up is the median of this many repetitions.
SETUP_REPEATS = 15
#: The model predict_bulk loads is the first of up to
#: this many fits whose training labels reach ``MODEL_MIN_ARI`` against
#: the generator's truth (else the best of them).  A single fit lands
#: in a poor local optimum for about one seed in four, which would make
#: these workloads' ``ari`` a draw on the fit seed rather than a check
#: on predict; the fit's own quality is ``fit_fig7``'s ``ari``.
MODEL_FITS = 4
MODEL_MIN_ARI = 0.95
#: ``fit_fig7`` cycles through this many fixed fit seeds and times only
#: whole cycles; the workload seed picks where in the cycle a run
#: starts.  One fit takes 0.7-2.6 s on the Figure-7 matrix depending on
#: its seed (21-71 iterations), so with fresh fit seeds for every run
#: the median fit time of ten runs of the same code spread 0.14-0.26
#: (interquartile distance over median).  With whole cycles every run
#: times the same fits.  The count is odd, so the median fit falls
#: inside the middle seed's group of repeats rather than on the edge
#: between two groups, where a single slow fit would move it.
FIT_SEED_CYCLE = 5
PREPARE_TIMEOUT_S = 600.0
#: Exit status of ``prepare.py`` when an output check fails.
PREPARE_CHECK_FAILED = 3
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


#: Rows per served request.
SERVE_ROWS = 64


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``SMOKE`` exists for the benchmark's own tests."""

    n_train: int
    n_query: int


FULL = Scale(n_train=50_000, n_query=200_000)
SMOKE = Scale(n_train=3_000, n_query=6_000)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Run:
    """One invocation: workload seed, timed seconds and where to write."""

    seed: int
    seconds: float
    scale: Scale
    work: Path
    """Scratch directory of this run, deleted when it ends."""
    out: Path
    """Directory for the traces a traced run leaves behind."""
    src: Path
    """The program's ``src`` directory, for the server subprocess."""


@dataclass
class Outcome:
    """What one run of a workload measured."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    notes: Dict[str, Any]


# -- inputs --------------------------------------------------------------


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one use of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def fit_seed(seed: int, i: int) -> int:
    """Seed of fit ``i`` of a run with workload seed ``seed``."""
    return derive_seed(DATA_SEED, 1, (seed + i) % FIT_SEED_CYCLE)


def make_data(scale: Scale) -> Tuple[Dataset, np.ndarray, np.ndarray]:
    """The Figure-7 training set and its held-out queries.

    One generator draw supplies both, so queries come from the same
    clusters as the training rows; rows arrive shuffled.
    """
    pool = generate(scale.n_train + scale.n_query, N_DIMS, K,
                    cluster_dim_counts=CLUSTER_DIMS,
                    outlier_fraction=OUTLIER_FRACTION, seed=DATA_SEED)
    n = scale.n_train
    train = Dataset(points=pool.points[:n], labels=pool.labels[:n],
                    cluster_dimensions=pool.cluster_dimensions,
                    name="fig7")
    return train, pool.points[n:], pool.labels[n:]


def prepare(workload: str, seed: int, scale: Scale, work: Path) -> None:
    """Write one run's inputs into ``work``; runs in a process of its own.

    Generating the data, parsing CSV and fitting the served model peak
    higher than the measured work, so they stay out of the measuring
    process and its ``peak_rss_mb``.  For ``fit_fig7`` this process
    also times the set-up, reading the training CSV.
    """
    train, queries, query_truth = make_data(scale)
    np.save(work / "train.npy", train.points)
    np.save(work / "train_truth.npy", train.labels)
    if workload == "fit_fig7":
        csv = save_csv(train, work / "train.csv")
        load_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            loaded = load_csv(csv)
            load_s.append(time.perf_counter() - t0)
        check_same_labels(loaded.labels, train.labels,
                          "load_csv ground truth")
        if not np.array_equal(loaded.points, train.points):
            raise CheckFailed("load_csv did not reproduce the training "
                              "matrix")
        (work / "load_csv_s.json").write_text(json.dumps(load_s))
        return
    np.save(work / "queries.npy", queries)
    np.save(work / "query_truth.npy", query_truth)
    candidates = []
    for attempt in range(MODEL_FITS):
        result = repro.proclus(train.points, K, L,
                               seed=derive_seed(seed, 2, attempt))
        check_fit(result, train.n_points)
        quality = adjusted_rand_index(result.labels, train.labels)
        candidates.append((quality, -attempt, result))
        if quality >= MODEL_MIN_ARI:
            break
    save_result(max(candidates, key=lambda c: c[:2])[2],
                work / "model.npz")


def prepare_in_child(run: Run, workload: str) -> None:
    """Run :func:`prepare` in a fresh interpreter (``prepare.py``)."""
    cmd = [sys.executable, str(Path(__file__).with_name("prepare.py")),
           workload, str(run.seed), str(run.work)]
    if run.scale == SMOKE:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(run.src)),
                          stderr=subprocess.PIPE, text=True,
                          timeout=PREPARE_TIMEOUT_S)
    if proc.returncode == PREPARE_CHECK_FAILED:
        raise CheckFailed(proc.stderr.strip().splitlines()[-1])
    if proc.returncode != 0:
        raise RuntimeError(f"preparing inputs failed:\n{proc.stderr}")


# -- output checks -------------------------------------------------------


def check_fit(result: Any, n_points: int, k: int = K, l: int = L) -> None:
    """Labels in {-1..k-1}, every |D_i| >= 2 and sum |D_i| = k*l."""
    labels = np.asarray(result.labels)
    if labels.shape != (n_points,):
        raise CheckFailed(f"fit returned {labels.shape} labels for "
                          f"{n_points} points")
    if labels.min() < -1 or labels.max() > k - 1:
        raise CheckFailed(f"fit labels outside [-1, {k - 1}]: "
                          f"[{labels.min()}, {labels.max()}]")
    sizes = [len(result.dimensions[i]) for i in range(k)]
    if min(sizes) < 2 or sum(sizes) != k * l:
        raise CheckFailed(f"dimension-set sizes {sizes} break |D_i| >= 2 "
                          f"or sum = {k * l}")


def check_same_labels(got: Any, want: Any, what: str) -> None:
    """Fail unless two label vectors are equal element for element."""
    got_arr, want_arr = np.asarray(got), np.asarray(want)
    if got_arr.shape != want_arr.shape or not np.array_equal(got_arr,
                                                             want_arr):
        diff = (int(np.count_nonzero(got_arr != want_arr))
                if got_arr.shape == want_arr.shape else "shape")
        raise CheckFailed(f"{what}: labels differ ({diff})")


# -- measurement helpers -------------------------------------------------


def tail(samples: List[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank ``percentile`` of ``samples``, and how many lie
    beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(seconds: float, op: Callable[[int], None],
               multiple: int = 1) -> int:
    """Run ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed
    and the number of calls is a multiple of ``multiple``."""
    start = time.perf_counter()
    i = 0
    while i == 0 or i % multiple or time.perf_counter() - start < seconds:
        op(i)
        i += 1
    return i


#: Every end-to-end metric with its unit; each workload reports them all.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "ari": "index",
}


#: ``tail_ms`` percentile of each workload: the highest of p50, p90,
#: p99 and p99.9 with at least ten samples beyond it in a 40 s run on
#: a 2-vCPU Xeon VM (25-40 fits, 550-800 bulk predicts).
#: It is fixed, so that a faster program, fitting more operations into
#: a run, does not move the tail to a higher percentile.  A fit is too
#: slow for a tail above the median.
TAIL_PERCENTILE = {"fit_fig7": 50.0, "predict_bulk": 90.0}


def end_to_end(workload: str, latencies_s: List[float], rows_per_op: int,
               failed: int, peak_rss_mb: float, setup_s: float, ari: float,
               notes: Dict[str, Any]) -> Outcome:
    """The end-to-end metrics of an untraced run."""
    percentile = TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(latencies_s, percentile)
    attempted = len(latencies_s)
    notes["tail_ms"] = {"percentile": percentile, "samples": attempted,
                        "beyond": beyond}
    values = {
        "setup_s": setup_s,
        "p50_ms": statistics.median(latencies_s) * 1e3,
        "tail_ms": tail_s * 1e3,
        "rows_per_s": rows_per_op * attempted / sum(latencies_s),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
        "ari": ari,
    }
    return Outcome({name: (values[name], unit)
                    for name, unit in END_TO_END_UNITS.items()},
                   attempted, failed, notes)


# -- per-layer metrics of the traced run ---------------------------------

#: Every per-layer metric with its unit.  A traced run reports them all;
#: layers its workload does not exercise read 0.  Per-operation figures
#: are means over the traced operations (one fit, one bulk predict, or
#: one served request).
LAYER_UNITS: Dict[str, str] = {
    "io.load_csv_s": "s",
    "validate.calls": "count",
    "validate.s": "s",
    "init.s": "s",
    "iterative.s": "s",
    "iterative.vertices": "count",
    "iterative.improvements": "count",
    "iterative.useful_frac": "fraction",
    **{f"step.{step}_{kind}": unit
       for step in ("localities", "find_dimensions", "assign", "evaluate")
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "refine.s": "s",
    "refine.outliers": "count",
    **{f"cache.{store}.{field}": unit
       for store in ("distance", "segmental", "locality", "stats")
       for field, unit in (("hits", "count"), ("misses", "count"),
                           ("evictions", "count"), ("hit_rate", "fraction"))},
    "cache.bytes": "bytes",
    "kernel.segmental_rows": "count",
    "kernel.segmental_bytes": "bytes",
    "kernel.distance_rows": "count",
    "kernel.distance_bytes": "bytes",
    "kernel.segmental_s": "s",
    "predict.s": "s",
    "predict.kernel_s": "s",
    "predict.outliers_s": "s",
    "predict.other_s": "s",
    "predict.outlier_frac": "fraction",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "client.overhead_ms": "ms",
    "client.request_bytes": "bytes",
    "client.response_bytes": "bytes",
    "server.request_ms": "ms",
    "server.kernel_ms": "ms",
    "server.http_json_ms": "ms",
    "server.ready_s": "s",
    "server.retries": "count",
    "server.shed": "count",
    "server.breaker_rejections": "count",
    "server.deadline_exceeded": "count",
    "server.read_timeouts": "count",
    "server.internal_errors": "count",
    "trace.overhead_frac": "fraction",
}

KERNEL_COUNTERS = ("segmental_rows", "segmental_bytes", "distance_rows",
                   "distance_bytes")


def paired_overhead(plain_s: List[float], traced_s: List[float]) -> float:
    """Median over pairs of traced/untraced time, minus one."""
    return statistics.median(t / p for p, t in zip(plain_s, traced_s)) - 1.0


def traced_outcome(run: Run, workload: str, values: Dict[str, float],
                   attempted: int, log: SpanLog,
                   notes: Dict[str, Any]) -> Outcome:
    """Attach units, and write the benchmark-side spans out."""
    unknown = set(values) - set(LAYER_UNITS)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in LAYER_UNITS.items()}
    notes["trace"] = str(log.write_jsonl(
        run.out / f"trace-{workload}-{run.seed}.jsonl"))
    return Outcome(metrics, attempted, 0, notes)


def alternating(i: int) -> Tuple[bool, bool]:
    """Which of a pair runs first: untraced on even i, traced on odd."""
    return (False, True) if i % 2 == 0 else (True, False)


# -- fit_fig7 ------------------------------------------------------------


def fit_fig7(run: Run, traced: bool) -> Outcome:
    prepare_in_child(run, "fit_fig7")
    X = np.load(run.work / "train.npy")
    truth = np.load(run.work / "train_truth.npy")
    setup_s = statistics.median(
        json.loads((run.work / "load_csv_s.json").read_text()))
    if traced:
        return _fit_fig7_traced(run, X, setup_s)

    latencies: List[float] = []
    aris: List[float] = []
    failed = 0

    def op(i: int) -> None:
        nonlocal failed
        t0 = time.perf_counter()
        try:
            result = repro.proclus(X, K, L, seed=fit_seed(run.seed, i))
        except ReproError:
            failed += 1
            latencies.append(time.perf_counter() - t0)
            return
        latencies.append(time.perf_counter() - t0)
        check_fit(result, X.shape[0])
        aris.append(adjusted_rand_index(result.labels, truth))

    timed_loop(run.seconds, op, FIT_SEED_CYCLE)
    return end_to_end("fit_fig7", latencies, X.shape[0], failed,
                      own_peak_rss_mb(), setup_s,
                      statistics.fmean(aris or [0.0]),
                      {"fits": len(latencies)})


def _fit_fig7_traced(run: Run, X: np.ndarray, load_csv_s: float) -> Outcome:
    """Pairs of an untraced and a traced fit with the same seed."""
    log = SpanLog()
    plain_s: List[float] = []
    traced_s: List[float] = []
    results: List[Any] = []

    def op(i: int) -> None:
        seed = fit_seed(run.seed, i)
        fits: Dict[bool, Any] = {}
        for traced in alternating(i):
            t0 = time.perf_counter()
            if traced:
                with fit_layers(log):
                    fits[traced] = repro.proclus(X, K, L, seed=seed,
                                                 profile=True)
                traced_s.append(time.perf_counter() - t0)
            else:
                fits[traced] = repro.proclus(X, K, L, seed=seed)
                plain_s.append(time.perf_counter() - t0)
        check_fit(fits[True], X.shape[0])
        check_same_labels(fits[True].labels, fits[False].labels,
                          "traced fit against untraced fit")
        results.append(fits[True])

    n = timed_loop(run.seconds, op, FIT_SEED_CYCLE)
    counters = [r.profile["counters"] for r in results]
    vertices = sum(r.n_iterations for r in results)
    improvements = sum(r.n_improvements for r in results)
    values = {
        "io.load_csv_s": load_csv_s,
        "validate.calls": log.calls("validate") / n,
        "validate.s": log.total_s("validate") / n,
        "init.s": log.total_s("init") / n,
        "iterative.s": log.total_s("iterative") / n,
        "iterative.vertices": vertices / n,
        "iterative.improvements": improvements / n,
        "iterative.useful_frac": improvements / vertices,
        "refine.s": log.total_s("refine") / n,
        "refine.outliers": sum(c.get("refinement.outliers_marked", 0)
                               for c in counters) / n,
        "cache.bytes": sum(r.cache_stats["memory"]["bytes"]
                           for r in results) / n,
        "kernel.segmental_s": log.total_s("kernel.segmental") / n,
        "trace.overhead_frac": paired_overhead(plain_s, traced_s),
    }
    for step in ("localities", "find_dimensions", "assign", "evaluate"):
        values[f"step.{step}_s"] = log.total_s(f"step.{step}") / n
        values[f"step.{step}_calls"] = log.calls(f"step.{step}") / n
    for store in ("distance", "segmental", "locality", "stats"):
        stats = [r.cache_stats[store] for r in results]
        hits = sum(s["hits"] for s in stats)
        lookups = hits + sum(s["misses"] for s in stats)
        values[f"cache.{store}.hits"] = hits / n
        values[f"cache.{store}.misses"] = (lookups - hits) / n
        values[f"cache.{store}.evictions"] = sum(s["evictions"]
                                                 for s in stats) / n
        values[f"cache.{store}.hit_rate"] = hits / lookups if lookups else 0.0
    for name in KERNEL_COUNTERS:
        values[f"kernel.{name}"] = sum(c.get(f"kernel.{name}", 0)
                                       for c in counters) / n
    return traced_outcome(run, "fit_fig7", values, 2 * n, log,
                          {"fit_pairs": n})


# -- predict_bulk --------------------------------------------------------


def save_and_load(result: Any, path: Path) -> Tuple[Any, float, float]:
    """Save then reload a model; returns it with both timings."""
    t0 = time.perf_counter()
    save_result(result, path)
    t1 = time.perf_counter()
    loaded, _ = load_result_with_fingerprint(path)
    return loaded, t1 - t0, time.perf_counter() - t1


def predict_bulk(run: Run, traced: bool) -> Outcome:
    prepare_in_child(run, "predict_bulk")
    train = np.load(run.work / "train.npy")
    queries = np.load(run.work / "queries.npy")
    fitted = repro.load_result(run.work / "model.npz")
    rounds = [save_and_load(fitted, run.work / "saved.npz")
              for _ in range(SETUP_REPEATS)]
    model = rounds[-1][0]
    check_same_labels(model.predict(train), fitted.labels,
                      "predict(X_train) on the saved and reloaded model")
    expected = model.predict(queries)
    if traced:
        return _predict_bulk_traced(run, model, queries, expected, rounds)

    latencies: List[float] = []
    failed = 0

    def op(i: int) -> None:
        nonlocal failed
        t0 = time.perf_counter()
        try:
            labels = model.predict(queries)
        except ReproError:
            failed += 1
            latencies.append(time.perf_counter() - t0)
            return
        latencies.append(time.perf_counter() - t0)
        check_same_labels(labels, expected, "repeated bulk predict")

    timed_loop(run.seconds, op)
    return end_to_end("predict_bulk", latencies, queries.shape[0], failed,
                      own_peak_rss_mb(),
                      statistics.median(s + ld for _, s, ld in rounds),
                      adjusted_rand_index(
                          expected, np.load(run.work / "query_truth.npy")),
                      {"predicts": len(latencies)})


def _predict_bulk_traced(run: Run, model: Any, queries: np.ndarray,
                         expected: np.ndarray,
                         rounds: List[Tuple[Any, float, float]]) -> Outcome:
    """Pairs of an untraced and a traced predict on the same batch for
    half the run, then the serving path's pairs (:func:`serve_pairs`)
    for the other half, so that one listed workload's trace covers
    every layer from the predict kernel out to the HTTP client."""
    log = SpanLog()
    tracer = Tracer()
    plain_s: List[float] = []
    traced_s: List[float] = []

    def op(i: int) -> None:
        for traced in alternating(i):
            t0 = time.perf_counter()
            if traced:
                with use_tracer(tracer), predict_layers(log), \
                        log.span("predict"):
                    labels = model.predict(queries)
                traced_s.append(time.perf_counter() - t0)
            else:
                labels = model.predict(queries)
                plain_s.append(time.perf_counter() - t0)
            check_same_labels(labels, expected,
                              "traced bulk predict" if traced
                              else "untraced bulk predict")
        tracer.spans.clear()  # the counters are what this run reads
        tracer.events.clear()

    n = timed_loop(run.seconds / 2, op)
    counters = tracer.counters.as_dict()
    predict_s = log.total_s("predict") / n
    kernel_s = log.total_s("predict.kernel") / n
    outliers_s = log.total_s("predict.outliers") / n
    values = {
        "validate.calls": log.calls("validate") / n,
        "validate.s": log.total_s("validate") / n,
        "predict.s": predict_s,
        "predict.kernel_s": kernel_s,
        "predict.outliers_s": outliers_s,
        "predict.other_s": predict_s - kernel_s - outliers_s,
        "predict.outlier_frac": (counters.get("predict.outliers", 0)
                                 / counters["predict.points"]),
        "kernel.segmental_s": kernel_s,
        "serialize.save_s": statistics.median(r[1] for r in rounds),
        "serialize.load_s": statistics.median(r[2] for r in rounds),
        "trace.overhead_frac": paired_overhead(plain_s, traced_s),
    }
    for name in KERNEL_COUNTERS:
        values[f"kernel.{name}"] = counters.get(f"kernel.{name}", 0) / n
    serve_values, requests, notes = serve_pairs(
        run, log, model, run.work / "saved.npz",
        *served_batches(run, queries), run.seconds / 2)
    notes["serve_overhead_frac"] = serve_values.pop("trace.overhead_frac")
    values.update(serve_values)
    notes["predict_pairs"] = n
    return traced_outcome(run, "predict_bulk", values, 2 * (n + requests),
                          log, notes)


# -- serving, for predict_bulk's traced run ------------------------------


class Server:
    """A ``proclus serve --port 0`` subprocess on a saved model."""

    def __init__(self, model: Path, src: Path,
                 trace_file: Optional[Path] = None) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", str(model),
               "--port", "0"]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        env = dict(os.environ, PYTHONPATH=str(src))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.ready_polls = 0
        try:
            self.client = PredictClient(
                port=self._read_port(t0 + SERVER_START_TIMEOUT_S), seed=0)
            while True:
                self.ready_polls += 1
                if self.client.ready():
                    break
                if time.perf_counter() > t0 + SERVER_START_TIMEOUT_S:
                    raise RuntimeError("server never became ready")
                time.sleep(0.002)
            self.ready_s = time.perf_counter() - t0
        except BaseException:
            self.kill()
            raise

    def _read_port(self, deadline: float) -> int:
        stdout = self.proc.stdout
        assert stdout is not None
        readable, _, _ = select.select(
            [stdout], [], [], max(0.0, deadline - time.perf_counter()))
        banner = stdout.readline().strip() if readable else ""
        if not banner.startswith("listening on http://"):
            raise RuntimeError(f"server did not start: {banner!r}")
        return int(banner.rsplit(":", 1)[1].rstrip("/"))

    def stop(self) -> None:
        """SIGTERM drain; the server must exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain after SIGTERM")
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited {code} after SIGTERM")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def served_batches(run: Run, queries: np.ndarray
                   ) -> Tuple[List[np.ndarray], int]:
    """The fixed-size request batches, and the one the seed starts at."""
    batches = [queries[i:i + SERVE_ROWS]
               for i in range(0, queries.shape[0] - SERVE_ROWS + 1,
                              SERVE_ROWS)]
    return batches, derive_seed(run.seed, 3) % len(batches)


def local_labels(model: Any, batch: np.ndarray) -> np.ndarray:
    """In-process reference for one served batch."""
    return repro.predict_points(batch, model.medoids, model.dimensions).labels


def serve_pairs(run: Run, log: SpanLog, model: Any, model_path: Path,
                batches: List[np.ndarray], first: int, seconds: float
                ) -> Tuple[Dict[str, float], int, Dict[str, Any]]:
    """Per-layer figures of the serving path.

    An untraced and a ``--trace-file`` server are sent the same batch
    in alternating order; the client's bytes are counted at the socket.
    Returns the values, the number of pairs, and notes.
    """
    trace_file = run.out / f"server-trace-{run.seed}.jsonl"
    servers = {False: Server(model_path, run.src)}
    try:
        servers[True] = Server(model_path, run.src, trace_file=trace_file)
    except BaseException:
        servers[False].kill()
        raise
    sent: List[int] = []
    received: List[int] = []
    send, read = http.client.HTTPConnection.send, http.client.HTTPResponse.read

    def counting_send(conn: Any, data: Any) -> None:
        sent[-1] += len(data)
        send(conn, data)

    def counting_read(resp: Any, amt: Optional[int] = None) -> bytes:
        data = read(resp, amt)
        received[-1] += len(data)
        return data

    latency_s: Dict[bool, List[float]] = {False: [], True: []}
    try:
        def op(i: int) -> None:
            batch = batches[(first + i) % len(batches)]
            labels = {}
            for traced in alternating(i):
                if traced:
                    sent.append(0)
                    received.append(0)
                    log.patch(http.client.HTTPConnection, "send",
                              counting_send)
                    log.patch(http.client.HTTPResponse, "read", counting_read)
                span = (log.span("client.predict") if traced
                        else contextlib.nullcontext())
                t0 = time.perf_counter()
                try:
                    with span:
                        labels[traced] = servers[traced].client.predict(
                            batch)["labels"]
                finally:
                    log.restore()
                latency_s[traced].append(time.perf_counter() - t0)
            check_same_labels(labels[True], labels[False],
                              "traced server against untraced server")
            check_same_labels(labels[False], local_labels(model, batch),
                              "served batch against in-process "
                              "predict_points")

        n = timed_loop(seconds, op)
        counters = {t: s.client.stats()["counters"]
                    for t, s in servers.items()}
    finally:
        for server in servers.values():
            server.stop()

    requests, kernels = _server_spans(trace_file)
    if len(requests) != n:
        raise CheckFailed(f"server traced {len(requests)} predict requests; "
                          f"the client sent {n}")
    values = {
        "client.overhead_ms": 1e3 * statistics.median(
            c - r for c, r in zip(latency_s[True], requests)),
        "client.request_bytes": statistics.median(sent),
        "client.response_bytes": statistics.median(received),
        "server.request_ms": 1e3 * statistics.median(requests),
        "server.kernel_ms": 1e3 * statistics.median(kernels),
        "server.http_json_ms": 1e3 * statistics.median(
            r - k for r, k in zip(requests, kernels)),
        "server.ready_s": servers[True].ready_s,
        # every request a server saw, less the ones the client made:
        # readiness polls, predicts, and the /stats call itself
        "server.retries": sum(
            counters[t].get("requests", 0)
            - (servers[t].ready_polls + n + 1) for t in servers),
        "trace.overhead_frac": paired_overhead(latency_s[False],
                                               latency_s[True]),
    }
    for name in ("shed", "breaker_rejections", "deadline_exceeded",
                 "read_timeouts", "internal_errors"):
        values[f"server.{name}"] = sum(c.get(name, 0)
                                       for c in counters.values())
    return values, n, {"request_pairs": n, "server_trace": str(trace_file)}


def _server_spans(trace_file: Path) -> Tuple[List[float], List[float]]:
    """Durations of the server's POST /predict spans, in arrival order,
    and of the ``predict`` kernel span inside each."""
    spans = []
    with trace_file.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("type") == "span":
                spans.append(record)
    kernel_of = {s["parent"]: s["dur_s"] for s in spans
                 if s["name"] == "predict"}
    requests = sorted((s for s in spans if s["name"] == "serve.request"
                       and s["attrs"].get("method") == "POST"
                       and s["attrs"].get("path") == "/predict"),
                      key=lambda s: s["start_s"])
    return ([s["dur_s"] for s in requests],
            [kernel_of.get(s["id"], 0.0) for s in requests])


WORKLOADS: Dict[str, Callable[[Run, bool], Outcome]] = {
    "fit_fig7": fit_fig7,
    "predict_bulk": predict_bulk,
}
