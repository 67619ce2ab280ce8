"""``run_monitor`` and a one-shard ``ShardSet`` are the same monitor.

Both drive one :class:`~repro.pipeline.monitor.MonitorCore`, so over
the same events they must leave the same directory behind — latest
checkpoint, incident log and sqlite rows, byte for byte — and either
must pick up where the other was stopped. The existing resume tests
crash ``run_monitor`` with a ``CrashPlan``, which a ``ShardSet`` has no
equivalent of, so the driver is an input here rather than there.
"""

import dataclasses
from itertools import islice

import pytest

from repro.incidents.feed import load_incident_rows
from repro.pipeline import CheckpointStore, MonitorConfig, run_monitor
from repro.serve import ShardSet
from repro.serve.sharding import shard_dir
from tests.pipeline.conftest import small_source

def geometry(window, slide, batch_size, checkpoint_every, stop, name):
    config = MonitorConfig(
        window=window,
        slide=slide,
        batch_size=batch_size,
        checkpoint_every=checkpoint_every,
    )
    return pytest.param(config, stop, id=name)


#: A config and a mid-stream stop point (a whole number of batches, so
#: both drivers stop level).
GEOMETRIES = [
    geometry(120.0, 60.0, 64, 1, 640, "sliding"),
    # Two windows closed at the stop, three needed: no checkpoint yet.
    geometry(150.0, None, 64, 3, 832, "tumbling-no-checkpoint"),
    geometry(90.0, 30.0, 100, 2, 500, "three-deep-overlap"),
    geometry(120.0, 60.0, 37, 1, 37 * 30, "odd-batch-late-stop"),
]


def monitor_driver(config, root, *, resume=False, stop=None):
    run_monitor(
        small_source(),
        dataclasses.replace(config, max_events=stop),
        checkpoint_dir=shard_dir(root, 0),
        resume=resume,
    )


def shard_set_driver(config, root, *, resume=False, stop=None):
    shard_set = ShardSet(
        small_source(), config, checkpoint_root=root, resume=resume
    )
    # Like run_serve, offer the stream from the top: a resumed set
    # passes over what its checkpoint already covers.
    for event in islice(small_source().events(), stop):
        shard_set.offer(event)
    if stop is None:
        shard_set.finish()
    else:
        shard_set.kill(0)  # a hard stop: no flush, no final checkpoint
    shard_set.close()


def stop_over_a_used_directory(config, root, *, stop):
    """An earlier run to the end, then a fresh start stopped early.

    The earlier run's checkpoints sit at higher offsets than any the
    second run writes; the resume must still be of the second run.
    """
    monitor_driver(config, root)
    shard_set_driver(config, root, stop=stop)


def left_behind(root):
    """Everything durable a driver wrote for its one shard."""
    directory = shard_dir(root, 0)
    store = CheckpointStore(directory)
    paths = store.checkpoints()
    return (
        [(paths[-1].name, paths[-1].read_bytes())] if paths else [],
        store.incident_log.read_bytes(),
        [record.to_dict() for record in load_incident_rows(directory)],
    )


@pytest.mark.parametrize("config, stop", GEOMETRIES)
class TestDriverEquivalence:
    def test_same_events_leave_the_same_directory(
        self, config, stop, tmp_path
    ):
        for at in (stop, None):
            monitor_root = tmp_path / f"monitor-{at}"
            shards_root = tmp_path / f"shards-{at}"
            monitor_driver(config, monitor_root, stop=at)
            shard_set_driver(config, shards_root, stop=at)
            checkpoint, log, rows = left_behind(monitor_root)
            assert log  # the stream closes windows before either stop
            assert (checkpoint, log, rows) == left_behind(shards_root)
        assert checkpoint and rows  # the full run ends checkpointed

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(
                monitor_driver, shard_set_driver, id="monitor-then-shards"
            ),
            pytest.param(
                shard_set_driver, monitor_driver, id="shards-then-monitor"
            ),
            pytest.param(
                stop_over_a_used_directory,
                monitor_driver,
                id="used-directory-then-monitor",
            ),
        ],
    )
    def test_either_driver_resumes_the_other(
        self, config, stop, first, second, tmp_path
    ):
        monitor_driver(config, tmp_path / "uninterrupted")
        first(config, tmp_path / "resumed", stop=stop)
        second(config, tmp_path / "resumed", resume=True)
        assert left_behind(tmp_path / "resumed") == left_behind(
            tmp_path / "uninterrupted"
        )
