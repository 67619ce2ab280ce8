"""The streaming monitor's durability tax.

``bench/``'s workloads measure the monitor's throughput and report
latency; what none of them compares is the same run checkpointed
every window against every 8th. That ratio lands in
``bench_results/BENCH_pipeline.json``, and EXPERIMENTS.md records the
full-scale result.
"""

import time

from benchmarks.conftest import record_row, scaled, stream_for
from repro.pipeline import MonitorConfig, StreamSource, run_monitor


def monitor_config(checkpoint_every: int) -> MonitorConfig:
    return MonitorConfig(
        window=120.0,
        slide=60.0,
        batch_size=256,
        checkpoint_every=checkpoint_every,
    )


def test_checkpoint_overhead(benchmark, berkeley_rex, tmp_path):
    """Checkpointing every window vs every 8th: the durability tax."""
    n_events = scaled(20_000)
    stream = stream_for(berkeley_rex, n_events, 1800.0, seed=54)

    def timed_run(every, directory):
        t0 = time.perf_counter()
        run_monitor(
            StreamSource(stream, label="bench"),
            monitor_config(checkpoint_every=every),
            checkpoint_dir=directory,
        )
        return time.perf_counter() - t0

    measurements = {}

    def probe():
        measurements["every_1"] = timed_run(1, tmp_path / "eager")
        measurements["every_8"] = timed_run(8, tmp_path / "lazy")

    benchmark.pedantic(probe, rounds=1, iterations=1)
    overhead = measurements["every_1"] / max(measurements["every_8"], 1e-9)
    record_row(
        "pipeline",
        f"checkpoint overhead: every-window={measurements['every_1']:.2f}s"
        f" every-8th={measurements['every_8']:.2f}s"
        f" ratio={overhead:.2f}x",
        data={
            "events": n_events,
            "measured_seconds": measurements["every_1"],
            "eager_seconds": measurements["every_1"],
            "lazy_seconds": measurements["every_8"],
            "overhead_ratio": overhead,
        },
    )
