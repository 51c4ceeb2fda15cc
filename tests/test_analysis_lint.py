"""Tests for the determinism & contract lint engine (repro.analysis).

Covers: one seeded-violation fixture per rule RPR001-RPR009 (the
interprocedural rules get whole fixture *packages*), clean-file
negatives, ``# repr: noqa`` suppression and staleness, JSON output
schema with 1-indexed columns, CLI exit codes, bit-stable output, and
the self-check that the repository's own source tree is finding-free
(the gate CI enforces).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    CACHE_KEY_CONTRACTS,
    format_json,
    lint_file,
    lint_paths,
    lint_source,
    rule_ids,
)
from repro.analysis.engine import DEFAULT_EXCLUDE_DIRS, iter_python_files
from repro.cli import main as cli_main
from repro.exceptions import ParameterError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint_fixtures"


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# per-rule fixtures: seeded violations must be found
# ----------------------------------------------------------------------

def test_rpr001_flags_every_global_rng_flavour():
    findings = lint_file(FIXTURES / "rpr001_global_rng.py",
                         select=["RPR001"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 4
    assert "numpy.random.seed" in messages
    assert "numpy.random.rand" in messages
    assert "random.shuffle" in messages
    assert "without a seed" in messages
    assert all(f.rule == "RPR001" and f.severity == "error"
               for f in findings)


def test_rpr002_flags_wall_clock_and_set_iteration_in_core_scope():
    findings = lint_file(FIXTURES / "core" / "rpr002_wallclock.py",
                         select=["RPR002"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 6
    assert "time.time" in messages
    assert "os.urandom" in messages
    assert messages.count("unordered set") == 2
    # raw duration clocks are funnelled through the repro.obs.clock seam
    assert messages.count("raw duration clock") == 2
    assert "time.perf_counter" in messages


def test_rpr002_is_scoped_to_core_perf_distance():
    # identical source outside core/perf/distance is not in scope
    src = (FIXTURES / "core" / "rpr002_wallclock.py").read_text()
    assert lint_source(src, "somewhere/else/module.py",
                       select=["RPR002"]) == []


def test_rpr003_flags_under_keyed_and_undeclared_store_access():
    findings = lint_file(FIXTURES / "rpr003_under_keyed.py",
                         select=["RPR003"])
    assert len(findings) == 2
    under_keyed, undeclared = sorted(findings, key=lambda f: f.line)
    assert "without determining quantity metric" in under_keyed.message
    assert "declares no key contract" in undeclared.message


def test_rpr004_flags_annotations_and_builtin_raise():
    findings = lint_file(FIXTURES / "core" / "rpr004_api.py",
                         select=["RPR004"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3
    assert "unannotated parameter(s): data" in messages
    assert "no return annotation" in messages
    assert "raises builtin ValueError" in messages
    # the private helper is exempt
    assert "_private_helper" not in messages


def test_rpr004_covers_rng():
    # every seed in the library passes through rng.ensure_rng
    src = "def ensure_rng(seed: int) -> int:\n    raise TypeError(seed)\n"
    findings = lint_source(src, "repro/rng.py", select=["RPR004"])
    assert [f.message for f in findings] == [
        "ensure_rng raises builtin TypeError instead of a repro.exceptions "
        "type"]


def test_rpr004_covers_extensions():
    # the ORCLUS extension is public API next to proclus()
    src = ("def orclus(X, k: int) -> int:\n    raise ValueError(k)\n\n"
           "class Orclus:\n"
           "    def fit(self, X) -> 'Orclus':\n        return self\n")
    findings = lint_source(src, "repro/extensions/orclus.py",
                           select=["RPR004"])
    assert [f.message for f in findings] == [
        "public function orclus has unannotated parameter(s): X",
        "orclus raises builtin ValueError instead of a repro.exceptions "
        "type",
        "public function Orclus.fit has unannotated parameter(s): X"]


def test_rpr004_covers_data():
    # the dataset readers are where file input enters the library
    src = ("def load_csv(path):\n    raise ValueError(path)\n\n"
           "def _helper(x):\n    raise ValueError(x)\n")
    findings = lint_source(src, "repro/data/io.py", select=["RPR004"])
    assert [f.message for f in findings] == [
        "public function load_csv has unannotated parameter(s): path",
        "public function load_csv has no return annotation",
        "load_csv raises builtin ValueError instead of a repro.exceptions "
        "type"]


def test_rpr006_flags_every_float64_coercion_flavour():
    findings = lint_file(FIXTURES / "core" / "rpr006_dtype.py",
                         select=["RPR006"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 5
    assert "asarray" in messages
    assert "array" in messages
    assert "ascontiguousarray" in messages
    assert ".astype(float64)" in messages
    assert all(f.rule == "RPR006" and f.severity == "error"
               for f in findings)
    # the legal patterns block contributes nothing
    assert all(f.line <= 12 for f in findings)


def test_rpr006_is_scoped_to_core_perf_distance():
    src = (FIXTURES / "core" / "rpr006_dtype.py").read_text()
    assert lint_source(src, "somewhere/else/module.py",
                       select=["RPR006"]) == []


def test_rpr006_ignores_buffer_creation_and_accumulator_dtypes():
    src = ("import numpy as np\n"
           "def f(X):\n"
           "    buf = np.zeros(3, dtype=np.float64)\n"
           "    acc = X.sum(axis=0, dtype=np.float64)\n"
           "    return buf, acc\n")
    assert lint_source(src, "repro/core/mod.py", select=["RPR006"]) == []


def test_rpr006_resolves_import_aliases():
    src = ("import numpy\n"
           "def f(X):\n"
           "    return numpy.asarray(X, dtype=numpy.float64)\n")
    findings = lint_source(src, "repro/distance/mod.py", select=["RPR006"])
    assert len(findings) == 1
    assert findings[0].rule == "RPR006"


def test_rpr005_flags_lambda_nested_and_undeclared_worker_types():
    findings = lint_file(FIXTURES / "rpr005_pool.py", select=["RPR005"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 4
    assert "lambda" in messages
    assert "nested function 'helper'" in messages
    assert "'x' is not annotated" in messages
    assert "undeclared type name(s): Socket" in messages


def test_rpr007_convicts_impure_cached_producers_interprocedurally():
    report = lint_paths([FIXTURES / "rpr007_pkg"], select=["RPR007"])
    findings = report.findings
    assert len(findings) == 4
    assert all(f.rule == "RPR007" and f.severity == "error"
               for f in findings)
    assert all(f.path.endswith("cache.py") for f in findings)
    by_line = {f.line: f for f in findings}
    # direct producer reading mutable module state
    assert "counted_distance" in by_line[30].message
    assert "reads module global(s)" in by_line[30].message
    assert "_call_log" in by_line[30].message
    # producer mutating its array argument
    assert "scale_rows" in by_line[36].message
    assert "mutates parameter(s) X" in by_line[36].message
    # impurity reached only through the call graph
    assert "chained_distance" in by_line[42].message
    assert "(transitively)" in by_line[42].message
    # cached call site feeding a declared out-param buffer
    assert "segmental_columns" in by_line[53].message
    assert "out parameter 'out'" in by_line[53].message
    # the pure producer contributes nothing
    assert not any("pure_distance" in f.message for f in findings)


def test_rpr008_flags_unfrozen_publish_and_post_publish_mutation():
    report = lint_paths([FIXTURES / "rpr008_pkg"], select=["RPR008"])
    findings = report.findings
    assert len(findings) == 4
    assert all(f.rule == "RPR008" for f in findings)
    messages = "\n".join(f.message for f in findings)
    assert "never write-protects the view" in messages
    assert "mutated afterwards (via subscript assignment)" in messages
    assert "mutated afterwards (via augmented assignment)" in messages
    # the alias write is attributed to the view name, not the source
    assert "'Y' was published" in messages
    assert "mutates its 'X' parameter (transitively)" in messages
    # pre-publish writes and name rebinding stay legal
    assert not any(f.line >= 33 for f in findings
                   if f.path.endswith("fanout.py"))


def test_rpr009_flags_stale_directives_and_keeps_live_ones():
    findings = lint_file(FIXTURES / "rpr009_stale.py", select=["RPR009"])
    assert [(f.line, f.col) for f in findings] == [(11, 19), (15, 15)]
    assert "'# repr: noqa RPR001'" in findings[0].message
    assert "'# repr: noqa'" in findings[1].message
    # the live directive on line 7 is not reported, and the RPR001 it
    # suppresses stays suppressed under a full-registry run
    full = lint_file(FIXTURES / "rpr009_stale.py")
    assert rules_of(full) == {"RPR009"}
    assert all(f.line in (11, 15) for f in full)


def test_rpr009_findings_cannot_be_self_suppressed():
    src = ("def f(x):\n"
           "    return x  # repr: noqa\n")
    findings = lint_source(src, "mod.py")
    assert rules_of(findings) == {"RPR009"}


# ----------------------------------------------------------------------
# negatives: clean files, suppression, thread pools
# ----------------------------------------------------------------------

def test_clean_core_fixture_has_no_findings():
    assert lint_file(FIXTURES / "core" / "clean_core.py") == []


def test_noqa_suppresses_named_rule():
    assert lint_file(FIXTURES / "rpr001_noqa.py") == []


def test_noqa_without_ids_suppresses_everything_on_the_line():
    src = ("import numpy as np\n"
           "def f():\n"
           "    return np.random.rand(3)  # repr: noqa\n")
    assert lint_source(src, "mod.py") == []


def test_noqa_for_a_different_rule_does_not_suppress():
    src = ("import numpy as np\n"
           "def f():\n"
           "    return np.random.rand(3)  # repr: noqa RPR005\n")
    findings = lint_source(src, "mod.py")
    # RPR001 still fires, and the mistargeted directive is itself stale
    assert rules_of(findings) == {"RPR001", "RPR009"}
    assert rules_of(lint_source(src, "mod.py", select=["RPR001"])) == \
        {"RPR001"}


def test_thread_pool_lambdas_are_exempt_from_rpr005():
    src = ("from concurrent.futures import ThreadPoolExecutor\n"
           "def run(items):\n"
           "    with ThreadPoolExecutor() as pool:\n"
           "        return list(pool.map(lambda x: x + 1, items))\n")
    assert lint_source(src, "mod.py", select=["RPR005"]) == []


def test_local_variable_named_random_is_not_flagged():
    src = ("def f(random):\n"
           "    return random.choice([1, 2])\n")
    assert lint_source(src, "mod.py", select=["RPR001"]) == []


def test_seeded_generator_construction_is_legal():
    src = ("import numpy as np\n"
           "def f(seed: int) -> np.ndarray:\n"
           "    rng = np.random.default_rng(seed)\n"
           "    return rng.random(3)\n")
    assert lint_source(src, "mod.py", select=["RPR001"]) == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------

def test_fixture_directory_is_excluded_from_directory_walks():
    assert "lint_fixtures" in DEFAULT_EXCLUDE_DIRS
    walked = list(iter_python_files([FIXTURES.parent.parent]))
    assert all("lint_fixtures" not in p.parts for p in walked)


def test_unknown_rule_id_raises_parameter_error():
    with pytest.raises(ParameterError, match="unknown rule id"):
        lint_source("x = 1\n", "mod.py", select=["RPR999"])


def test_syntax_error_fails_the_gate():
    with pytest.raises(ParameterError, match="invalid Python syntax"):
        lint_source("def broken(:\n", "mod.py")


def test_registry_lists_all_nine_rules():
    assert rule_ids() == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                          "RPR006", "RPR007", "RPR008", "RPR009"]
    assert len(ALL_RULES) == 9


def test_select_accepts_comma_separated_rule_lists():
    findings = lint_file(FIXTURES / "rpr009_stale.py",
                         select=["RPR001,RPR009"])
    assert rules_of(findings) == {"RPR009"}
    # mixed comma/space chunks normalise identically
    same = lint_file(FIXTURES / "rpr009_stale.py",
                     select=["rpr001", "RPR009"])
    assert findings == same


def test_select_with_unknown_id_in_comma_list_raises():
    with pytest.raises(ParameterError, match="unknown rule id"):
        lint_source("x = 1\n", "mod.py", select=["RPR001,RPR042"])


def test_select_with_only_separators_raises():
    with pytest.raises(ParameterError, match="names no rule ids"):
        lint_source("x = 1\n", "mod.py", select=[" , "])


def test_contract_table_matches_real_cache_methods():
    import repro.perf.cache as cache_mod

    for method in CACHE_KEY_CONTRACTS["IterativeCache"]:
        assert hasattr(cache_mod.IterativeCache, method)


# ----------------------------------------------------------------------
# JSON schema + CLI
# ----------------------------------------------------------------------

def test_json_output_schema():
    report = lint_paths([FIXTURES / "rpr001_global_rng.py"])
    payload = json.loads(format_json(report))
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"RPR001": 4}
    assert len(payload["findings"]) == 4
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "severity", "path", "line", "col",
                                "message", "hint"}
        assert finding["rule"] == "RPR001"
        assert finding["severity"] == "error"
        assert isinstance(finding["col"], int)
        assert finding["path"].endswith("rpr001_global_rng.py")
    # columns are exact 1-indexed offsets of the offending expression,
    # stable enough for editors to jump to
    coords = [(f["line"], f["col"]) for f in payload["findings"]]
    assert coords == [(9, 5), (10, 12), (11, 5), (12, 11)]


def test_noqa_directive_columns_point_at_the_hash():
    findings = lint_file(FIXTURES / "rpr009_stale.py", select=["RPR009"])
    src_lines = (FIXTURES / "rpr009_stale.py").read_text().splitlines()
    for f in findings:
        assert src_lines[f.line - 1][f.col - 1] == "#"


def test_lint_output_is_bit_stable_across_runs():
    first = format_json(lint_paths([FIXTURES], select=None))
    second = format_json(lint_paths([FIXTURES], select=None))
    assert first == second


def test_cli_lint_exits_nonzero_on_findings(capsys):
    code = cli_main(["lint", str(FIXTURES / "rpr001_global_rng.py"),
                     "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RPR001": 4}


def test_cli_lint_select_restricts_rules(capsys):
    code = cli_main(["lint", str(FIXTURES / "core" / "rpr002_wallclock.py"),
                     "--select", "RPR002", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["counts"]) == {"RPR002"}


def test_cli_lint_select_accepts_comma_lists(capsys):
    code = cli_main(["lint", str(FIXTURES / "rpr009_stale.py"),
                     "--select", "RPR001,RPR009", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["counts"]) == {"RPR009"}


def test_cli_lint_unknown_rule_is_a_usage_error(capsys):
    code = cli_main(["lint", str(FIXTURES), "--select", "RPR042"])
    assert code == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_lint_unknown_rule_in_comma_list_is_a_usage_error(capsys):
    code = cli_main(["lint", str(FIXTURES), "--select", "RPR001,RPR042"])
    assert code == 2
    assert "unknown rule id" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the gate itself: the repository must be clean
# ----------------------------------------------------------------------

def test_repo_src_tree_is_finding_free():
    report = lint_paths([REPO_ROOT / "src"])
    assert report.files_checked > 80
    assert report.findings == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in report.findings
    )


def test_cli_self_check_src_and_tests_exit_zero(capsys):
    code = cli_main(["lint", str(REPO_ROOT / "src"),
                     str(REPO_ROOT / "tests")])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out
