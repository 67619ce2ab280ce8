"""Kill one shard mid-serve, keep serving, resume, converge.

The harshest recovery path the serve layer promises (DESIGN.md §13):
shard 1's pipeline is run by an *external* ``run_monitor`` process
over the same :class:`~repro.pipeline.sources.ShardView`, killed with
``os._exit`` mid-run so only its checkpoint directory survives. The
serving process then boots with that shard dead, answers requests
from the survivors (incidents for the dead shard come from its
last-synced sqlite store), resumes the shard from the crashed
process's checkpoint, and converges to a merged picture byte-equal
to an uninterrupted two-shard run — with the degraded ETag never
validating a 304 against the recovered picture.
"""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.pipeline import CheckpointStore
from repro.serve import ServeApp, ShardSet, SnapshotHub, TransitionFeed
from repro.serve.sharding import shard_dir
from tests.pipeline.conftest import small_source
from tests.serve.conftest import http_get, serve_config

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Crash an external monitor over shard 1's slice after 4 reports.
#: ``os._exit`` skips every finally block: no flush, no close — the
#: checkpoint directory is exactly what the last cycle wrote.
CRASH_SCRIPT = """
import os, sys
from pathlib import Path
from repro.pipeline import (
    MonitorConfig, ShardView, SyntheticSource, run_monitor,
)
seen = 0
def kill_hard(report):
    global seen
    seen += 1
    if seen == 4:
        os._exit(7)
run_monitor(
    ShardView(SyntheticSource(1600, 600.0, seed=7, n_routes=400), 1, 2),
    MonitorConfig(window=120.0, slide=60.0, batch_size=64,
                  checkpoint_every=1),
    checkpoint_dir=Path(sys.argv[1]),
    on_report=kill_hard,
)
"""


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env


def uninterrupted_picture() -> bytes:
    shard_set = ShardSet(small_source(), serve_config(), shards=2)
    for event in small_source().events():
        shard_set.offer(event)
    shard_set.finish()
    body = SnapshotHub(shard_set).render().body
    shard_set.close()
    return body


class TestShardDeathAndResume:
    def test_killed_shard_serves_its_last_checkpoint(self, tmp_path):
        # Regression: the shard's own checkpoint cycle must sync the
        # sqlite store, or the dead-shard fallback has nothing to read
        # (the external-monitor test below never saw this, because
        # run_monitor's cycle always did).
        shard_set = ShardSet(
            small_source(),
            serve_config(),
            shards=2,
            checkpoint_root=tmp_path,
        )
        events = list(small_source().events())
        for event in events[: len(events) * 3 // 4]:
            shard_set.offer(event)
        store = CheckpointStore(shard_dir(tmp_path, 1))
        assert len(store.checkpoints()) >= 3  # several cycles deep
        shard_set.kill(1)

        expected = store.latest().incidents["incidents"]
        assert expected
        rows = [
            row for row in shard_set.incident_rows() if row["shard"] == 1
        ]
        assert rows == [dict(row, shard=1) for row in expected]
        shard_set.close()

    def test_kill_serve_degraded_resume_converge(self, tmp_path):
        expected = uninterrupted_picture()

        # Phase 1: an external monitor owns shard 1, dies hard.
        crash_root = tmp_path / "chaos"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                CRASH_SCRIPT,
                str(shard_dir(crash_root, 1)),
            ],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 7, proc.stderr

        async def main():
            # Phase 2: serve with shard 1 dead from the start.
            shard_set = ShardSet(
                small_source(),
                serve_config(),
                shards=2,
                checkpoint_root=crash_root,
                start_dead=(1,),
            )
            hub = SnapshotHub(shard_set)
            feed = TransitionFeed()
            app = ServeApp(hub, feed)
            port = await app.start()

            events = list(small_source().events())
            half = len(events) // 2
            for event in events[:half]:
                feed.publish_all(shard_set.offer(event))

            # Mid-stream, mid-outage: the survivors still answer.
            status, headers, degraded = await http_get(
                port, "/picture.svg"
            )
            assert status == 200
            degraded_etag = headers["etag"]
            status, _, body = await http_get(port, "/status")
            info = json.loads(body)
            assert info["alive"] == [True, False]
            assert ["dead", 1] in info["version"]

            # Dead-shard incidents come from the crashed process's
            # last-synced sqlite store.
            status, _, body = await http_get(port, "/incidents")
            assert status == 200
            rows = json.loads(body)["incidents"]
            dead_rows = [row for row in rows if row["shard"] == 1]
            assert dead_rows

            for event in events[half:]:
                feed.publish_all(shard_set.offer(event))
            feed.publish_all(shard_set.finish())

            # Phase 3: resume from the crashed checkpoint; the shard
            # replays its slice up to the set's position, then the
            # second finish() finalizes only the resumed shard.
            feed.publish_all(shard_set.resume(1))
            feed.publish_all(shard_set.finish())
            assert shard_set.alive() == (True, True)
            offered = shard_set._offered
            assert shard_set._shards[1].offset == offered[1]

            # Convergence: byte-equal to the uninterrupted run, and
            # the degraded ETag never 304s against the newer picture.
            status, headers, body = await http_get(
                port,
                "/picture.svg",
                headers={"If-None-Match": degraded_etag},
            )
            assert status == 200
            assert headers["etag"] != degraded_etag
            assert body != degraded
            assert body == expected

            # Incidents now come from the live resumed manager and
            # match what the stream produced.
            status, _, body = await http_get(
                port, "/incidents"
            )
            live_rows = json.loads(body)["incidents"]
            assert [r for r in live_rows if r["shard"] == 1]

            await app.close()
            shard_set.close()

        asyncio.run(main())
