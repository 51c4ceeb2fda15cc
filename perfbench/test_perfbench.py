"""The benchmark's own tests, at smoke size.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import bench  # noqa: E402


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT,
                  seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_keeps_to_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert WORKLOADS == ["fit_fig7", "predict_bulk"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 runs per workload, each with up to 20 s of set-up and
    # up to 10 s past run_seconds to finish fit_fig7's seed cycle,
    # must end within 3420 s
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 30) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    result = last_json(run_benchmark(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload,exercised", [
    ("fit_fig7", ["io.load_csv_s", "validate.calls", "init.s",
                  "iterative.s", "iterative.vertices", "step.localities_s",
                  "step.find_dimensions_s", "step.assign_s",
                  "step.evaluate_s", "refine.s", "cache.distance.hits",
                  "cache.bytes", "kernel.segmental_rows",
                  "kernel.distance_bytes", "kernel.segmental_s"]),
    ("predict_bulk", ["validate.calls", "predict.s", "predict.kernel_s",
                      "predict.outliers_s", "predict.other_s",
                      "kernel.segmental_rows", "serialize.save_s",
                      "serialize.load_s", "client.overhead_ms",
                      "client.request_bytes", "client.response_bytes",
                      "server.request_ms", "server.kernel_ms",
                      "server.http_json_ms", "server.ready_s"]),
])
def test_traced_run_prints_every_layer_metric(workload: str,
                                              exercised: list) -> None:
    result = last_json(run_benchmark(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    for name in exercised:
        assert values[name] > 0, name
    for name in ("server.retries", "server.shed", "server.internal_errors"):
        assert values[name] == 0, name


def test_wrong_labels_fail_the_checks() -> None:
    train, _, _ = bench.make_data(bench.Scale(n_train=600, n_query=10))
    result = bench.repro.proclus(train.points, bench.K, bench.L, seed=5)
    bench.check_fit(result, 600)
    bench.check_same_labels(result.labels.copy(), result.labels, "same")

    wrong = result.labels.copy()
    wrong[0] = (wrong[0] + 1) % bench.K
    with pytest.raises(bench.CheckFailed):
        bench.check_same_labels(wrong, result.labels, "one label moved")
    with pytest.raises(bench.CheckFailed):
        bench.check_same_labels(result.labels[:-1], result.labels, "short")

    result.labels[0] = bench.K
    with pytest.raises(bench.CheckFailed):
        bench.check_fit(result, 600)
    result.labels[0] = 0
    result.dimensions[0] = result.dimensions[0][:1]
    with pytest.raises(bench.CheckFailed):
        bench.check_fit(result, 600)


def test_tail_is_a_nearest_rank_percentile() -> None:
    samples = [float(i) for i in range(100, 0, -1)]
    assert bench.tail(samples, 90.0) == (90.0, 10)
    assert bench.tail(samples, 99.0) == (99.0, 1)
    assert bench.tail(samples[:3], 50.0) == (99.0, 1)


def test_checkout_without_the_program_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("fit_fig7", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())
