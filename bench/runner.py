"""``bench run``: one workload in this process, or all in fresh ones.

``run_one`` is what the contract's command reaches: it measures one
workload once and prints the result object as its last line.
``run_all`` is the human's command: it starts ``run_one`` in a new
interpreter per run (clean heap, clean ``ru_maxrss``), several seeds
per workload plus one traced run, and turns the result objects into
provenance-stamped rows under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from bench import ROOT
from bench.common import GateError, Outcome
from bench.spec import Spec, emit, load_spec

#: Bump when the row layout of ``e2e.json`` / ``layers.json`` changes.
SCHEMA_VERSION = 1

#: Scratch space for archives and checkpoints, inside the checkout
#: (the benchmark may write nowhere else) and gitignored.
WORK_ROOT = ROOT / ".bench_work"


def _dispatch(name: str, **kwargs) -> Outcome:
    # Imported here so `bench compare` and a bare checkout without
    # src/ never import the program.
    from bench import monitor, serve

    if name in monitor.WORKLOADS:
        return monitor.run(name, **kwargs)
    if name in serve.WORKLOADS:
        return serve.run(name, **kwargs)
    raise SystemExit(f"bench: unknown workload {name!r}")


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in spec.workloads:
        print(
            f"bench: unknown workload {args.workload!r};"
            f" expected one of {', '.join(spec.workloads)}",
            file=sys.stderr,
        )
        return 2
    seconds = args.seconds if args.seconds else float(spec.run_seconds)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        outcome = _dispatch(
            args.workload,
            seed=args.seed,
            seconds=seconds,
            scale=args.scale,
            trace=bool(args.trace),
            workdir=workdir,
        )
    except GateError as error:
        print(f"bench: correctness gate failed: {error}", file=sys.stderr)
        return 1
    except Exception:  # the boundary: report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = spec.per_layer if args.trace else spec.end_to_end
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": emit(metrics, outcome.values),
    }
    if args.details:
        details = Path(args.details)
        if outcome.tracer is not None:
            outcome.tracer.write(
                details, workload=args.workload, **outcome.details
            )
        else:
            details.write_text(
                json.dumps(outcome.details) + "\n", encoding="utf-8"
            )
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


# -- all workloads, fresh interpreters ----------------------------------


def provenance(args: argparse.Namespace, seconds: float) -> dict:
    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ("git", *command),
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    commit = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"):
        commit += "-dirty"
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "seed": args.seed,
        "scale": args.scale,
        "seconds": seconds,
        "repeats": args.repeats,
    }


def _child(
    workload: str,
    seed: int,
    seconds: float,
    scale: float,
    trace: int,
    details: Path,
) -> dict | None:
    """One ``run_one`` in a new interpreter; its result object."""
    command = [
        sys.executable, "-m", "bench", "run",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scale", str(scale),
        "--trace", str(trace),
        "--details", str(details),
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _row(
    spec_metric, workload: str, values: list[float], stamp: dict
) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    row = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "metric": spec_metric.name,
        "unit": spec_metric.unit,
        "better": spec_metric.better,
        "bound": spec_metric.bound,
        "runs": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "values": values,
    }
    row.update(stamp)
    return row


def run_all(args: argparse.Namespace) -> int:
    spec: Spec = load_spec()
    seconds = args.seconds if args.seconds else float(spec.run_seconds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = provenance(args, seconds)
    e2e_rows: list[dict] = []
    layer_rows: list[dict] = []
    ok = True
    for workload in spec.workloads:
        print(f"== {workload}")
        results = []
        samples = {}
        details = out / f"details-{workload}.json"
        for repeat in range(args.repeats):
            result = _child(
                workload, args.seed + repeat, seconds, args.scale, 0, details
            )
            if result is None:
                ok = False
                continue
            results.append(result)
            samples = json.loads(details.read_text(encoding="utf-8"))
        details.unlink(missing_ok=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        for metric in spec.end_to_end:
            values = [r["metrics"][metric.name]["value"] for r in results]
            if not values:
                continue
            row = _row(metric, workload, values, stamp)
            row["latency_samples_per_run"] = samples.get("latency_samples")
            row["attempted"], row["failed"] = attempted, failed
            e2e_rows.append(row)
            print(
                f"  {metric.name:20s} {row['median']:>12.5g}"
                f" {metric.unit:8s} q1={row['q1']:.5g}"
                f" q3={row['q3']:.5g} runs={row['runs']}"
            )
        if results:
            print(
                f"  {'failed_share':20s} {failed / attempted:>12.5g}"
                f" {'share':8s} failed={failed} attempted={attempted}"
            )
        traced = _child(
            workload,
            args.seed,
            seconds,
            args.scale,
            1,
            out / f"trace-{workload}.json",
        )
        if traced is None:
            ok = False
            continue
        for metric in spec.per_layer:
            value = traced["metrics"][metric.name]["value"]
            layer_rows.append(_row(metric, workload, [value], stamp))
            if value:
                print(f"    {metric.name:28s} {value:>12.5g} {metric.unit}")
    for name, rows in (("e2e.json", e2e_rows), ("layers.json", layer_rows)):
        (out / name).write_text(
            json.dumps(rows, indent=1) + "\n", encoding="utf-8"
        )
    if not ok:
        print("bench: at least one run failed its gate", file=sys.stderr)
        return 1
    return 0
