"""Tests for the structured observability layer (repro.obs).

Covers the tracer/counters machinery, the JSONL schema validator, the
profile report plumbing through ``proclus`` and serialization, the CLI
flags, and — most importantly — the contract that tracing must not
perturb results: runs with tracing on are bit-identical to runs with
tracing off, across metric/parallel/restart configurations.
"""

import json
import logging

import numpy as np
import pytest

from repro import Tracer, get_tracer, proclus, use_tracer
from repro.cli import main as cli_main
from repro.core.serialization import load_result, save_result
from repro.data import generate
from repro.exceptions import DataError, ParameterError
from repro.obs import (
    NullTracer,
    TRACE_SCHEMA_VERSION,
    configure_logging,
    format_profile,
    get_logger,
    maybe_trace,
    monotonic_s,
    set_tracer,
    validate_trace_file,
    validate_trace_lines,
)


@pytest.fixture
def small_dataset():
    return generate(400, 8, 2, cluster_dim_counts=[3, 4],
                    outlier_fraction=0.05, seed=91)


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.phase("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.kind == "phase" and outer.kind == "span"
        assert inner.end_s >= inner.start_s

    def test_events_anchor_to_open_span(self):
        tracer = Tracer()
        tracer.event("orphan")
        with tracer.span("s"):
            tracer.event("tick", i=3)
        assert tracer.events[0].span_id is None
        assert tracer.events[1].span_id == tracer.spans[0].span_id
        assert tracer.events[1].attrs == {"i": 3}

    def test_counters_accumulate_and_unwrap_numpy(self):
        tracer = Tracer()
        tracer.count("rows", np.int64(5))
        tracer.count("rows", 2)
        tracer.count("other")
        assert tracer.counters.as_dict() == {"other": 1, "rows": 7}
        assert type(tracer.counters.get("rows")) is int

    def test_phase_seconds_sums_by_name(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.phase("iterative"):
                pass
        with tracer.span("not_a_phase"):
            pass
        seconds = tracer.phase_seconds()
        assert set(seconds) == {"iterative"}
        assert seconds["iterative"] >= 0.0

    def test_span_set_merges_exit_attrs(self):
        tracer = Tracer()
        with tracer.phase("p", k=2) as span:
            span.set(iterations=7)
        assert tracer.spans[0].attrs == {"k": 2, "iterations": 7}

    def test_max_records_cap_drops_and_reports(self):
        tracer = Tracer(max_records=3)
        for i in range(6):
            tracer.event("e", i=i)
        assert len(tracer.events) == 3
        assert tracer.profile()["dropped"] == 3

    def test_attrs_are_json_safe(self):
        tracer = Tracer()
        with tracer.span("s", arr=np.array([1, 2]), t=(1, 2), obj=object()):
            pass
        json.dumps(tracer.spans[0].as_dict())

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.event("e")
        tracer.count("c")
        tracer.clear()
        assert not tracer.spans and not tracer.events
        assert tracer.counters.as_dict() == {}

    def test_logger_mirrors_phases_at_info(self, caplog):
        logger = logging.getLogger("repro.test-obs")
        tracer = Tracer(logger=logger)
        with caplog.at_level(logging.INFO, logger="repro.test-obs"):
            with tracer.phase("iterative"):
                pass
        assert any("iterative" in r.message for r in caplog.records)


class TestCurrentTracer:
    def test_default_is_null_and_nestable(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer) and not tracer.enabled
        with tracer.phase("p") as span:
            span.set(anything=1)  # no-op, must not raise
        assert tracer.profile() is None

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert not get_tracer().enabled

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(previous)
        assert not get_tracer().enabled

    def test_maybe_trace_false_is_passthrough(self):
        with maybe_trace(False) as tracer:
            assert tracer is get_tracer()
            assert not tracer.enabled

    def test_maybe_trace_true_installs_fresh_tracer(self):
        with maybe_trace(True) as tracer:
            assert tracer.enabled and get_tracer() is tracer
        assert not get_tracer().enabled

    def test_maybe_trace_defers_to_ambient_tracer(self):
        ambient = Tracer()
        with use_tracer(ambient):
            with maybe_trace(True) as tracer:
                assert tracer is ambient

    def test_monotonic_seam_advances(self):
        t0 = monotonic_s()
        assert monotonic_s() >= t0


# ----------------------------------------------------------------------
# JSONL schema
# ----------------------------------------------------------------------

class TestTraceSchema:
    def _trace_lines(self):
        tracer = Tracer()
        with tracer.span("restarts"):
            with tracer.phase("iterative"):
                tracer.event("iteration", iteration=0)
        tracer.count("kernel.rows", 10)
        return [json.dumps(r, sort_keys=True) for r in tracer.iter_records()]

    def test_valid_trace_passes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(self._trace_lines()) + "\n")
        assert validate_trace_file(path) == 5

    def test_write_jsonl_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.phase("p"):
            tracer.event("e")
        tracer.count("c", 2)
        path = tracer.write_jsonl(tmp_path / "t.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == TRACE_SCHEMA_VERSION
        assert records[-1] == {"type": "counters", "values": {"c": 2}}

    def test_clean_trace_has_no_errors(self):
        assert validate_trace_lines(self._trace_lines()) == []

    def test_empty_trace_rejected(self):
        assert validate_trace_lines([]) == ["trace is empty"]

    def test_missing_meta_header_rejected(self):
        errors = validate_trace_lines(self._trace_lines()[1:])
        assert any("meta header" in e for e in errors)

    def test_garbage_json_rejected(self):
        lines = self._trace_lines()
        lines[1] = "{not json"
        errors = validate_trace_lines(lines)
        assert any("not valid JSON" in e for e in errors)

    def test_span_with_negative_duration_rejected(self):
        lines = self._trace_lines()
        record = json.loads(lines[1])
        assert record["type"] == "span"
        record["end_s"] = record["start_s"] - 1.0
        lines[1] = json.dumps(record)
        errors = validate_trace_lines(lines)
        assert any("ends before it starts" in e for e in errors)

    def test_schema_version_mismatch_rejected(self):
        lines = self._trace_lines()
        meta = json.loads(lines[0])
        meta["schema"] = TRACE_SCHEMA_VERSION + 1
        lines[0] = json.dumps(meta)
        errors = validate_trace_lines(lines)
        assert any("schema version" in e for e in errors)

    def test_validate_file_raises_with_problem_preview(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        with pytest.raises(DataError, match="violates the trace schema"):
            validate_trace_file(bad)


# ----------------------------------------------------------------------
# Logging bridge
# ----------------------------------------------------------------------

class TestLogBridge:
    def test_unknown_level_rejected(self):
        with pytest.raises(ParameterError, match="log level"):
            configure_logging("LOUD")

    def test_configure_is_idempotent(self):
        logger = logging.getLogger("repro")
        before = len(logger.handlers)
        configure_logging("INFO")
        configure_logging("DEBUG")
        added = len(logger.handlers) - before
        assert added <= 1
        for handler in logger.handlers[before:]:
            logger.removeHandler(handler)

    def test_get_logger_namespaced(self):
        assert get_logger("cli").name == "repro.cli"
        assert get_logger().name == "repro"


# ----------------------------------------------------------------------
# Profile plumbing + the bit-identity contract
# ----------------------------------------------------------------------

class TestProfilePlumbing:
    def test_profile_off_by_default(self, small_dataset):
        result = proclus(small_dataset.points, 2, 3, seed=4)
        assert result.profile is None
        assert result.to_dict()["profile"] is None

    def test_profile_report_contents(self, small_dataset):
        result = proclus(small_dataset.points, 2, 3, seed=4, profile=True)
        profile = result.profile
        assert profile["schema"] == TRACE_SCHEMA_VERSION
        assert {"initialization", "iterative",
                "refinement"} <= set(profile["phase_seconds"])
        counters = profile["counters"]
        assert counters["kernel.segmental_rows"] > 0
        assert counters["kernel.distance_rows"] > 0
        assert profile["n_spans"] > 0 and profile["n_events"] > 0
        json.dumps(profile)  # JSON-safe by construction

    def test_cache_counters_present_when_caching(self, small_dataset):
        result = proclus(small_dataset.points, 2, 3, seed=4, profile=True)
        counters = result.profile["counters"]
        assert counters["cache.segmental_served"] > 0

    def test_profile_survives_to_dict_and_save_load(self, small_dataset,
                                                    tmp_path):
        result = proclus(small_dataset.points, 2, 3, seed=4, profile=True)
        assert result.to_dict()["profile"]["counters"] == \
            result.profile["counters"]
        path = save_result(result, tmp_path / "res.npz")
        loaded = load_result(path)
        assert loaded.profile == json.loads(json.dumps(result.profile))

    def test_parallel_restarts_nest_winner_profile(self, small_dataset):
        result = proclus(small_dataset.points, 2, 3, seed=4, restarts=3,
                         n_jobs=2, profile=True)
        winner = result.profile["winner"]
        assert {"initialization", "iterative",
                "refinement"} <= set(winner["phase_seconds"])

    def test_format_profile_renders(self, small_dataset):
        result = proclus(small_dataset.points, 2, 3, seed=4, restarts=2,
                         n_jobs=2, profile=True)
        text = format_profile(result.profile)
        assert "phase seconds" in text
        assert "counters" in text
        assert "winner" in text

    def test_ambient_tracer_collects_without_profile_flag(self, small_dataset):
        tracer = Tracer()
        with use_tracer(tracer):
            result = proclus(small_dataset.points, 2, 3, seed=4)
        assert result.profile is not None
        assert tracer.counters.get("kernel.segmental_rows") > 0


class TestTracingBitIdentity:
    """Tracing must never perturb results — the layer's core contract."""

    CONFIGS = [
        dict(),
        dict(metric="manhattan"),
        dict(restarts=3),
        dict(restarts=3, n_jobs=2),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: ",".join(f"{k}={v}" for k, v
                                                    in c.items()) or "plain")
    def test_traced_equals_untraced(self, small_dataset, config):
        X = small_dataset.points
        for seed in (0, 17):
            plain = proclus(X, 2, 3, seed=seed, **config)
            traced = proclus(X, 2, 3, seed=seed, profile=True, **config)
            assert np.array_equal(plain.labels, traced.labels)
            assert np.array_equal(plain.medoid_indices,
                                  traced.medoid_indices)
            assert plain.dimensions == traced.dimensions
            assert plain.objective == traced.objective
            assert plain.iterative_objective == traced.iterative_objective
            assert plain.objective_history == traced.objective_history


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------

class TestCliObservability:
    @pytest.fixture
    def csv_path(self, tmp_path):
        out = tmp_path / "data.csv"
        assert cli_main(["generate", str(out), "--n-points", "300",
                         "--n-dims", "8", "--n-clusters", "2",
                         "--seed", "3"]) == 0
        return out

    def test_run_alias_matches_cluster(self, csv_path, capsys):
        assert cli_main(["run", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5"]) == 0
        run_out = capsys.readouterr().out
        assert cli_main(["cluster", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5"]) == 0
        assert capsys.readouterr().out == run_out

    def test_profile_flag_prints_report(self, csv_path, capsys):
        assert cli_main(["run", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase seconds" in out
        assert "kernel.segmental_rows" in out

    def test_trace_file_written_and_valid(self, csv_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli_main(["run", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5", "--trace-file", str(trace)]) == 0
        assert validate_trace_file(trace) > 0
        assert str(trace) in capsys.readouterr().out

    def test_trace_module_validator_cli(self, csv_path, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main
        trace = tmp_path / "trace.jsonl"
        cli_main(["run", str(csv_path), "-k", "2", "-l", "3", "--seed", "5",
                  "--trace-file", str(trace)])
        capsys.readouterr()
        assert obs_main([str(trace)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert obs_main([str(bad)]) == 1

    def test_log_level_emits_phase_lines(self, csv_path, capsys):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            assert cli_main(["run", str(csv_path), "-k", "2", "-l", "3",
                             "--seed", "5", "--log-level", "INFO"]) == 0
            err = capsys.readouterr().err
            assert "phase iterative" in err
        finally:
            for handler in list(logger.handlers):
                if handler not in before:
                    logger.removeHandler(handler)

    def test_profile_results_match_unprofiled(self, csv_path, capsys):
        assert cli_main(["cluster", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5"]) == 0
        plain = capsys.readouterr().out
        assert cli_main(["cluster", str(csv_path), "-k", "2", "-l", "3",
                         "--seed", "5", "--profile"]) == 0
        profiled = capsys.readouterr().out
        # the summary section must be identical; profile is additive
        assert plain.splitlines()[0] in profiled
        for line in plain.splitlines():
            if line.startswith("  cluster"):
                assert line in profiled
