"""Tests of the benchmark itself (not of ``repro``).

    python3 -m pytest perfbench/tests -q              # all, ~1 min
    python3 -m pytest perfbench/tests -q -m "not slow" # rules only
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END_UNITS, METRIC_NAME, PRIMARY, SECONDARY, BenchError,
    LoopResult, Op, closed_loop, end_to_end_metrics, p90)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def result_line(out: subprocess.CompletedProcess) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- the p90 rule -----------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    n = common.min_samples_for_p90()
    assert n == 100
    samples = [float(i) for i in range(1, n + 1)]
    value = p90(samples)
    assert sum(1 for s in samples if s > value) == common.MIN_BEYOND_P90
    with pytest.raises(BenchError):
        p90(samples[:-1])


def test_loop_runs_on_until_p90_is_reportable():
    ticks = iter(range(10_000))
    rounds = ([Op(PRIMARY if i % 2 else SECONDARY, f"{r}/{i}",
                  lambda: next(ticks)) for i in range(20)]
              for r in range(1_000))
    loop = closed_loop(rounds, seconds=0.0, min_primary=100,
                       min_secondary=10)
    assert len(loop.samples[PRIMARY]) == 100
    assert loop.rounds == 10
    p90([s * 1e3 for s in loop.best(PRIMARY)])


# -- one op class per latency metric ----------------------------------------

def test_latency_metrics_never_mix_op_classes():
    loop = LoopResult()
    loop.samples[PRIMARY] = {str(i): [0.001] for i in range(100)}
    loop.samples[SECONDARY] = {str(i): [0.1] for i in range(100)}
    metrics = end_to_end_metrics(1.0, 1.0, loop, 1, 1.0)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.0)
    assert metrics["op_p90_ms"]["value"] == pytest.approx(1.0)
    assert metrics["aux_trim_mean_ms"]["value"] == pytest.approx(100.0)


def test_closed_loop_files_each_op_under_its_own_class():
    ops = [Op(PRIMARY, "p", lambda: "p"), Op(SECONDARY, "s", lambda: "s"),
           Op(PRIMARY, "bad", lambda: 1 / 0)]
    loop = closed_loop(iter([ops]), seconds=0.0, min_primary=1,
                       min_secondary=0)
    assert len(loop.samples[PRIMARY]) == 1
    assert len(loop.samples[SECONDARY]) == 1
    assert [label for label, _ in loop.errors] == ["bad"]
    assert loop.attempted == 3


def test_each_input_counts_once_at_its_fastest_run():
    loop = LoopResult()
    loop.samples[PRIMARY] = {"a": [0.003, 0.001, 0.002], "b": [0.005]}
    assert sorted(loop.best(PRIMARY)) == [0.001, 0.005]


def test_secondary_mean_drops_the_extreme_tenths():
    loop = LoopResult()
    loop.samples[PRIMARY] = {str(i): [0.001] for i in range(100)}
    loop.samples[SECONDARY] = {str(i): [0.010] for i in range(18)}
    loop.samples[SECONDARY].update({"fast": [0.0], "slow": [10.0]})
    metrics = end_to_end_metrics(1.0, 1.0, loop, 1, 1.0)
    assert metrics["aux_trim_mean_ms"]["value"] == pytest.approx(10.0)


def test_throughput_is_taken_at_each_inputs_fastest_run():
    loop = LoopResult()
    loop.samples[PRIMARY] = {str(i): [0.002, 0.001] for i in range(100)}
    loop.samples[SECONDARY] = {"s": [0.4, 0.1]}
    metrics = end_to_end_metrics(1.0, 1.0, loop, 1, 1.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(101 / 0.2)


def test_started_rounds_are_finished():
    rounds = ([Op(PRIMARY, str(i), lambda: None) for i in range(150)]
              for _ in range(5))
    loop = closed_loop(rounds, seconds=0.0, min_primary=100,
                       min_secondary=0)
    assert loop.rounds == 1
    assert loop.attempted == 150


# -- names and the contract of BENCHMARK.json --------------------------------

def test_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert all(METRIC_NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        END_TO_END_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(LAYER_MAP["moves"]) == {m["name"] for m in SPEC["per_layer"]}
    for target in LAYER_MAP["moves"].values():
        workload, metric = target.split("/")
        assert workload in WORKLOADS + ["*"]
        assert metric in END_TO_END_UNITS or metric == "failed"
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


# -- whole runs ---------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_all_end_to_end_metrics(workload):
    """A short run on a seed other than the default: exit 0, every check
    green, all eight metrics with their units."""
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr[-3000:]
    result = result_line(out)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= common.min_samples_for_p90()
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.slow
def test_traced_run_reports_every_layer_metric():
    out = run_bench("--workload", "execute", "--seed", "3", "--seconds", "2",
                    "--trace", "1")
    assert out.returncode == 0, out.stderr[-3000:]
    result = result_line(out)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.slow
def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "paper-grid", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
