"""Command-line interface: ``python -m repro`` or the ``proclus`` script.

Subcommands
-----------
``generate``
    Draw a synthetic dataset (paper section 4.1, or a named domain
    workload via ``--workload``) and write it to CSV.
``cluster`` (alias ``run``)
    Run PROCLUS on a CSV dataset and print the result summary.
    ``--profile`` adds a structured profile report, ``--trace-file``
    writes the span/event trace as JSONL, ``--log-level`` turns on the
    stdlib-logging bridge (see ``docs/observability.md``).
``sweep``
    Sweep ``l`` (and optionally ``k``) on a CSV dataset to pick
    parameters, per the paper's section-4.3 advice.
``clique``
    Run the CLIQUE baseline on a CSV dataset and print its summary.
``experiment``
    Run a registered paper experiment (``table1`` .. ``table5``,
    ``fig7`` .. ``fig9``, ablations) and print its report.
``serve``
    Start the hardened query server on a saved model (``cluster
    --save-model``): per-request deadlines, 429 load shedding, a
    per-model circuit breaker, and SIGTERM graceful drain (see
    ``docs/serving.md``).
``predict``
    Assign the points of a CSV dataset to a saved model locally (no
    server) and print/write the labels.
``lint``
    Run the determinism & contract lint gate (rules RPR001-RPR009)
    over source trees; exits nonzero on any finding.
``list``
    List available experiments.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from . import experiments  # noqa: F401 - populates the registry
from .baselines.clique import Clique
from .core.proclus import proclus
from .data.io import load_csv, save_csv
from .data.synthetic import generate
from .exceptions import (CheckpointError, ParameterError, ReproError,
                         SanitizationWarning)
from .experiments.registry import get_experiment, list_experiments
from .metrics.confusion import confusion_matrix
from .metrics.external import adjusted_rand_index

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the CLI."""
    parser = argparse.ArgumentParser(
        prog="proclus",
        description="PROCLUS (SIGMOD 1999) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("output", help="CSV file to write")
    g.add_argument("--workload", default=None,
                   choices=["collaborative-filtering", "segmentation",
                            "sensors"],
                   help="named domain workload instead of the generic "
                        "section-4.1 generator")
    g.add_argument("--n-points", type=int, default=10_000)
    g.add_argument("--n-dims", type=int, default=20)
    g.add_argument("--n-clusters", type=int, default=5)
    g.add_argument("--cluster-dims", type=int, nargs="*", default=None,
                   help="exact dimensionality per cluster, e.g. 7 7 7 7 7")
    g.add_argument("--outlier-fraction", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=None)

    c = sub.add_parser("cluster", aliases=["run"],
                       help="run PROCLUS on a CSV dataset")
    c.add_argument("input", help="CSV file (from `generate` or compatible)")
    c.add_argument("-k", type=int, required=True, help="number of clusters")
    c.add_argument("-l", type=float, required=True,
                   help="average cluster dimensionality")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--min-deviation", type=float, default=0.1)
    c.add_argument("--no-outliers", action="store_true",
                   help="skip outlier detection in the refinement phase")
    c.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; on expiry the best-so-far "
                        "clustering is returned (terminated_by=deadline)")
    c.add_argument("--restarts", type=int, default=1,
                   help="run the whole pipeline this many times with "
                        "independent seeds and keep the best run "
                        "(paper section 4.3; default 1)")
    c.add_argument("--n-jobs", type=int, default=1,
                   help="worker count for the parallel execution layer: "
                        "1 = serial (default), N >= 2 fans restarts out "
                        "over N processes, -1 = all cores; results are "
                        "bit-identical for any value")
    c.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per restart for crashed/hung "
                        "workers in the multi-restart fan-out; retries "
                        "replay the identical seed stream (default 2)")
    c.add_argument("--restart-timeout-s", type=float, default=None,
                   metavar="SECONDS",
                   help="treat a restart as hung after this many "
                        "seconds and replace its worker (default: off)")
    c.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist each completed restart atomically under "
                        "DIR; an interrupted run (exit code 130) can be "
                        "resumed with --resume")
    c.add_argument("--resume", action="store_true",
                   help="resume a checkpointed run from --checkpoint-dir; "
                        "the result is bit-identical to an uninterrupted "
                        "run")
    c.add_argument("--on-bad-values", default="drop",
                   choices=["raise", "drop", "impute_median", "clip"],
                   help="policy for NaN/inf cells in the input "
                        "(default: drop the affected rows)")
    c.add_argument("--no-sanitize", action="store_true",
                   help="feed the CSV to PROCLUS verbatim: no bad-value "
                        "handling, no degradation ladder (degenerate "
                        "input raises)")
    c.add_argument("--dtype", default="float64",
                   choices=["float64", "float32"],
                   help="working dtype of the compute path: float64 "
                        "(default, the bit-exact reference path) or "
                        "float32 (half the memory bandwidth per kernel; "
                        "deterministic within the dtype)")
    c.add_argument("--profile", action="store_true",
                   help="trace the run (phase spans, counters) and print "
                        "a profile report after the summary; results are "
                        "bit-identical with and without tracing")
    c.add_argument("--trace-file", default=None, metavar="PATH",
                   help="write the structured trace as JSON Lines to "
                        "PATH (implies --profile); validate with "
                        "`python -m repro.obs PATH`")
    c.add_argument("--log-level", default=None, metavar="LEVEL",
                   choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                   help="emit tracer phases/events through stdlib "
                        "logging at this level to stderr")
    c.add_argument("--save-model", default=None, metavar="PATH",
                   help="save the fitted result atomically (temp file + "
                        "rename, sha256-fingerprinted) for `serve` / "
                        "`predict`")

    s = sub.add_parser("sweep", help="sweep l (and k) to pick parameters")
    s.add_argument("input")
    s.add_argument("-k", type=int, required=True,
                   help="cluster count used during the l sweep")
    s.add_argument("--l-values", type=float, nargs="+", required=True)
    s.add_argument("--k-values", type=int, nargs="*", default=None,
                   help="optionally sweep k afterwards at the chosen l")
    s.add_argument("--seed", type=int, default=None)

    q = sub.add_parser("clique", help="run the CLIQUE baseline on a CSV dataset")
    q.add_argument("input")
    q.add_argument("--xi", type=int, default=10)
    q.add_argument("--tau-percent", type=float, default=0.5,
                   help="density threshold in percent of N (paper convention)")
    q.add_argument("--max-dim", type=int, default=None)
    q.add_argument("--target-dim", type=int, default=None)
    q.add_argument("--mdl-prune", action="store_true")

    o = sub.add_parser("orclus", help="run the ORCLUS extension "
                                      "(oriented subspaces)")
    o.add_argument("input")
    o.add_argument("-k", type=int, required=True)
    o.add_argument("-l", type=int, required=True,
                   help="subspace dimensionality per cluster")
    o.add_argument("--seed", type=int, default=None)
    o.add_argument("--outlier-factor", type=float, default=None)

    st = sub.add_parser("stability", help="cross-seed stability analysis "
                                          "of PROCLUS on a dataset")
    st.add_argument("input")
    st.add_argument("-k", type=int, required=True)
    st.add_argument("-l", type=float, required=True)
    st.add_argument("--n-runs", type=int, default=5)
    st.add_argument("--seed", type=int, default=None)

    e = sub.add_parser("experiment", help="run a registered paper experiment")
    e.add_argument("name", help="experiment name (see `list`)")
    e.add_argument("--n-points", type=int, default=None,
                   help="override workload size (paper scale: 100000)")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--n-jobs", type=int, default=None,
                   help="run the experiment's config grid concurrently "
                        "(experiments that accept n_jobs only; timings "
                        "of concurrent configs share the machine)")

    sv = sub.add_parser(
        "serve",
        help="serve predict queries from a saved model over HTTP",
        description="Hardened query server: per-request wall-clock "
                    "deadlines threaded into the predict kernel, bounded "
                    "admission with 429 shedding, a per-model circuit "
                    "breaker, /healthz + /readyz probes, hot reload, and "
                    "SIGINT/SIGTERM graceful drain (second signal "
                    "hard-exits 130).  See docs/serving.md.",
    )
    sv.add_argument("model", help="saved result (`cluster --save-model`)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8437,
                    help="TCP port (0 picks a free one; default 8437)")
    sv.add_argument("--max-points", type=int, default=100_000,
                    help="largest query batch accepted (default 100000)")
    sv.add_argument("--deadline-s", type=float, default=10.0,
                    help="default per-request wall-clock budget when the "
                         "client sends no X-Deadline-S header")
    sv.add_argument("--max-deadline-s", type=float, default=60.0,
                    help="cap on client-requested deadlines")
    sv.add_argument("--max-concurrency", type=int, default=4,
                    help="predict batches allowed in the kernel at once")
    sv.add_argument("--max-queue", type=int, default=16,
                    help="requests allowed to wait for a slot before "
                         "shedding with 429")
    sv.add_argument("--breaker-threshold", type=int, default=5,
                    help="consecutive kernel failures that open the "
                         "circuit breaker")
    sv.add_argument("--breaker-reset-s", type=float, default=30.0,
                    help="seconds the breaker stays open before a "
                         "half-open probe")
    sv.add_argument("--drain-s", type=float, default=10.0,
                    help="budget for in-flight requests to finish after "
                         "the first SIGINT/SIGTERM")
    sv.add_argument("--on-bad-values", default="raise",
                    choices=["raise", "drop", "impute_median", "clip"],
                    help="default NaN/inf policy for query batches "
                         "(default: raise -> HTTP 400)")
    sv.add_argument("--chunk-size", type=int, default=None,
                    help="predict kernel row-chunk override")
    sv.add_argument("--memory-budget-mb", type=float, default=None,
                    help="kernel scratch budget per batch, in MiB")
    sv.add_argument("--trace-file", default=None, metavar="PATH",
                    help="write the serve.* span/counter trace as JSON "
                         "Lines to PATH on shutdown")

    p = sub.add_parser(
        "predict",
        help="assign CSV points to a saved model locally",
        description="Runs the inference core directly (no server): "
                    "Manhattan segmental distance to each medoid over "
                    "its cluster's dimension set, sphere-of-influence "
                    "outlier flagging.  predict on the training CSV "
                    "reproduces the fitted labels bit-identically.",
    )
    p.add_argument("model", help="saved result (`cluster --save-model`)")
    p.add_argument("input", help="CSV file of query points")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write one label per line to PATH (default: "
                        "print a summary only)")
    p.add_argument("--on-bad-values", default="raise",
                   choices=["raise", "drop", "impute_median", "clip"],
                   help="NaN/inf policy for the query points "
                        "(default: raise)")
    p.add_argument("--no-outliers", action="store_true",
                   help="skip the sphere-of-influence outlier rule; "
                        "every point gets its nearest medoid's label")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="kernel row-chunk override")
    p.add_argument("--deadline-s", type=float, default=None,
                   help="wall-clock budget for the whole batch")

    ln = sub.add_parser(
        "lint",
        help="determinism & contract lint (RPR001-RPR009)",
        description="Static analysis of the library's determinism "
                    "contracts: seeded-Generator threading, wall-clock "
                    "hygiene, cache-key completeness, API typing, "
                    "multiprocessing picklability, and working-dtype "
                    "preservation. Exit code 0 means every contract "
                    "holds.",
    )
    from .analysis.cli import add_lint_arguments
    add_lint_arguments(ln)

    sub.add_parser("list", help="list available experiments")
    return parser


def _cmd_generate(args) -> int:
    if args.workload is None:
        ds = generate(
            args.n_points, args.n_dims, args.n_clusters,
            cluster_dim_counts=args.cluster_dims,
            outlier_fraction=args.outlier_fraction,
            seed=args.seed,
        )
    else:
        from .data.workloads import (
            collaborative_filtering_workload,
            customer_segmentation_workload,
            sensor_fleet_workload,
        )
        makers = {
            "collaborative-filtering": lambda: collaborative_filtering_workload(
                seed=args.seed),
            "segmentation": lambda: customer_segmentation_workload(
                seed=args.seed),
            "sensors": lambda: sensor_fleet_workload(
                args.n_points, seed=args.seed),
        }
        ds = makers[args.workload]()
    path = save_csv(ds, args.output)
    print(f"wrote {ds.n_points} x {ds.n_dims} points "
          f"({ds.n_clusters} clusters, {ds.n_outliers} outliers) to {path}")
    return 0


def _cmd_sweep(args) -> int:
    from .core.tuning import sweep_k, sweep_l
    ds = load_csv(args.input)
    l_sweep = sweep_l(ds.points, args.k, args.l_values, seed=args.seed)
    print(l_sweep.to_text())
    picked_l = l_sweep.knee_value()
    print(f"-> picked l = {picked_l:g} (largest value on the plateau)")
    if args.k_values:
        k_sweep = sweep_k(ds.points, args.k_values, picked_l, seed=args.seed)
        print()
        print(k_sweep.to_text())
        print(f"-> picked k = {int(k_sweep.knee_value())}")
    return 0


def _cmd_cluster(args) -> int:
    from contextlib import ExitStack

    from .obs import (Tracer, configure_logging, format_profile, get_logger,
                      use_tracer)

    sanitize = not args.no_sanitize
    tracing = bool(args.profile or args.trace_file or args.log_level)
    logger = None
    if args.log_level is not None:
        configure_logging(args.log_level)
        logger = get_logger("cli")
    ds = load_csv(args.input, allow_nonfinite=sanitize)
    tracer = Tracer(logger=logger) if tracing else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        with warnings.catch_warnings():
            # the summary below prints result.warnings; no need to emit twice
            warnings.simplefilter("ignore", SanitizationWarning)
            result = proclus(
                ds.points, args.k, args.l,
                min_deviation=args.min_deviation,
                handle_outliers=not args.no_outliers,
                on_bad_values=args.on_bad_values if sanitize else "raise",
                auto_degrade=sanitize,
                time_budget_s=args.time_budget,
                restarts=args.restarts,
                n_jobs=args.n_jobs,
                max_retries=args.max_retries,
                restart_timeout_s=args.restart_timeout_s,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                profile=tracing,
                dtype=args.dtype,
                seed=args.seed,
            )
    if tracer is not None and args.trace_file:
        path = tracer.write_jsonl(args.trace_file)
        print(f"trace written to {path}")
    if args.save_model is not None:
        from .core.serialization import result_fingerprint, save_result
        model_path = save_result(result, args.save_model)
        print(f"model saved to {model_path} "
              f"(fingerprint {result_fingerprint(model_path)[:12]})")
    print(result.summary())
    if args.profile and result.profile is not None:
        print()
        print(format_profile(result.profile))
    if ds.has_ground_truth:
        print()
        print(confusion_matrix(result.labels, ds.labels).to_table())
        print(f"\nadjusted Rand index = "
              f"{adjusted_rand_index(result.labels, ds.labels):.3f}")
    if result.terminated_by == "signal":
        # POSIX convention for interrupted commands (128 + SIGINT);
        # the partial result above is still valid and checkpointed
        return 130
    return 0


def _cmd_clique(args) -> int:
    ds = load_csv(args.input)
    clique = Clique(
        xi=args.xi, tau=args.tau_percent / 100.0,
        max_dimensionality=args.max_dim,
        target_dimensionality=args.target_dim,
        prune_subspaces=args.mdl_prune,
    ).fit(ds.points)
    print(clique.result.summary())
    return 0


def _cmd_orclus(args) -> int:
    from .extensions import orclus
    ds = load_csv(args.input)
    result = orclus(ds.points, args.k, args.l, seed=args.seed,
                    outlier_factor=args.outlier_factor)
    sizes = ", ".join(f"{cid}:{n}" for cid, n in result.cluster_sizes().items())
    print(f"ORCLUS: k={result.k}, subspace dim "
          f"{result.subspace_dimensionality()}, energy={result.energy:.3f}")
    print(f"cluster sizes {{{sizes}}}, outliers={result.n_outliers}")
    if ds.has_ground_truth:
        print(f"adjusted Rand index = "
              f"{adjusted_rand_index(result.labels, ds.labels):.3f}")
    return 0


def _cmd_stability(args) -> int:
    from .core.proclus import proclus as _proclus
    from .metrics import stability_report
    ds = load_csv(args.input)

    def fit(X, seed):
        return _proclus(X, args.k, args.l, seed=seed)

    print(stability_report(fit, ds.points, n_runs=args.n_runs,
                           seed=args.seed).to_text())
    return 0


def _cmd_experiment(args) -> int:
    import inspect

    runner = get_experiment(args.name)
    kwargs = {}
    if args.n_points is not None:
        kwargs["n_points"] = args.n_points
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.n_jobs is not None:
        if "n_jobs" not in inspect.signature(runner).parameters:
            raise ParameterError(
                f"experiment {args.name!r} does not support --n-jobs"
            )
        kwargs["n_jobs"] = args.n_jobs
    report = runner(**kwargs)
    print(report.to_text())
    return 0


def _cmd_serve(args) -> int:
    from contextlib import ExitStack

    from .obs import Tracer, use_tracer
    from .serve import ProclusServer, ServerConfig

    budget = args.memory_budget_mb
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_points=args.max_points,
        default_deadline_s=args.deadline_s,
        max_deadline_s=args.max_deadline_s,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        drain_s=args.drain_s,
        on_bad_values=args.on_bad_values,
        chunk_size=args.chunk_size,
        memory_budget_bytes=None if budget is None else int(budget * 2**20),
    )
    tracer = Tracer() if args.trace_file else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        server = ProclusServer(config, model_path=args.model)
        code = server.run()
    if tracer is not None and args.trace_file:
        path = tracer.write_jsonl(args.trace_file)
        print(f"trace written to {path}")
    return code


def _cmd_predict(args) -> int:
    from .core.serialization import load_result
    from .robustness.guards import Deadline

    result = load_result(args.model)
    ds = load_csv(args.input, allow_nonfinite=args.on_bad_values != "raise")
    report = result.predict_report(
        ds.points,
        handle_outliers=not args.no_outliers,
        on_bad_values=args.on_bad_values,
        chunk_size=args.chunk_size,
        deadline=Deadline.start(args.deadline_s),
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(f"{label}\n" for label in report.labels)
        print(f"labels written to {args.output}")
    print(f"predicted {report.n_points} points with k={result.k} model "
          f"({result.medoids.dtype}): {report.n_outliers} outliers")
    for message in report.warnings:
        print(f"note: {message}")
    if ds.has_ground_truth and report.n_points == ds.n_points:
        print(f"adjusted Rand index = "
              f"{adjusted_rand_index(report.labels, ds.labels):.3f}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis.cli import run_lint
    return run_lint(args)


def _cmd_list(args) -> int:
    for name, desc in list_experiments():
        print(f"{name:<16} {desc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "run": _cmd_cluster,
        "sweep": _cmd_sweep,
        "clique": _cmd_clique,
        "orclus": _cmd_orclus,
        "stability": _cmd_stability,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "predict": _cmd_predict,
        "lint": _cmd_lint,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except CheckpointError as exc:
        # distinct code so wrappers can tell "fix your --resume flags"
        # from ordinary usage errors (see docs/robustness.md)
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
