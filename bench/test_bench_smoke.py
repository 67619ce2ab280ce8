"""Smoke test of the benchmark itself; not part of tier-1.

Run it explicitly (``testpaths`` keeps pytest away otherwise)::

    python -m pytest bench/test_bench_smoke.py

Every workload runs small (``--scale 0.4 --seconds 2``) through the
same command line the contract's driver uses, in its own interpreter.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, runner
from bench.common import GateError
from bench.compare import verdict
from bench.spec import load_spec

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_run(workload: str, trace: int, seed: int = 12, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "-m", "bench", "run",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "2",
            "--scale", "0.4",
            "--trace", str(trace),
        ],  # fmt: skip
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, seed: int = 12) -> dict:
    """The result object of one clean run (each run happens once)."""
    done = bench_run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    parsed = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True
    assert parsed["attempted"] >= 1 and parsed["failed"] == 0
    return parsed


def test_names_are_well_formed():
    names = list(SPEC.workloads)
    names += [m.name for m in SPEC.end_to_end + SPEC.per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m.name for m in SPEC.end_to_end}


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    assert list(metrics) == [m.name for m in SPEC.end_to_end]
    for metric in SPEC.end_to_end:
        assert metrics[metric.name]["unit"] == metric.unit
        assert metrics[metric.name]["value"] > 0, metric.name
    # A second seed makes different inputs and still runs clean.
    result(workload, 0, seed=13)


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)["metrics"]
    assert list(metrics) == [m.name for m in SPEC.per_layer]
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["trace.coverage"] >= 0.90
    if workload in ("monitor_overlap", "serve_reads"):
        # The bypass workloads really bypass.
        assert value["checkpoint.count"] == 0
        assert value["checkpoint.share"] == 0
        assert value["mrt.records"] == 0
    else:
        assert value["checkpoint.count"] > 0
    if workload == "serve_reads":
        assert value["snapshot.renders"] == 1
        assert value["windows.close_s"] == 0
    if workload.startswith("monitor"):
        assert value["monitor.residual_s"] != 0
        assert value["http.bytes_out"] == 0


def test_every_layer_metric_has_a_producer():
    """No name in the contract is silently always zero."""
    seen: set[str] = set()
    for workload in SPEC.workloads:
        metrics = result(workload, 1)["metrics"]
        seen |= {name for name, e in metrics.items() if e["value"]}
    assert seen == {m.name for m in SPEC.per_layer}


def test_gate_failure_exits_nonzero(monkeypatch, capsys):
    def broken(name, **kwargs):
        raise GateError("pictures differ")

    monkeypatch.setattr(runner, "_dispatch", broken)
    args = argparse.Namespace(
        workload="serve_reads", seed=1, seconds=1.0, scale=1.0,
        trace=0, details=None,
    )  # fmt: skip
    assert runner.run_one(args) == 1
    captured = capsys.readouterr()
    assert "pictures differ" in captured.err
    assert "correct" not in captured.out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench",
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = bench_run("serve_reads", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _row(values, better="lower", bound=0.10, metric="m"):
    ordered = sorted(values)
    middle = ordered[len(ordered) // 2]
    return {
        "metric": metric, "better": better, "bound": bound,
        "values": values, "median": middle,
        "q1": ordered[len(ordered) // 4],
        "q3": ordered[(3 * len(ordered)) // 4],
    }  # fmt: skip


def test_compare_verdicts():
    steady = _row([100, 101, 102, 103, 104])
    assert verdict(steady, _row([101, 102, 103, 104, 105]))[0] == "ok"
    assert verdict(steady, _row([120, 121, 122, 123, 124]))[0] == "regressed"
    noisy = _row([80, 90, 100, 115, 130])
    assert verdict(steady, noisy)[0] == "unresolved"
    # Wide spread, but every run beats every baseline run.
    assert verdict(noisy, _row([50, 55, 60, 70, 75]))[0] == "ok"
    higher = _row([100, 101, 102, 103, 104], better="higher")
    slower = _row([80, 81, 82, 83, 84], better="higher")
    assert verdict(higher, slower)[0] == "regressed"
