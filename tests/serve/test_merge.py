"""Fan-in correctness: N shards merge to the unsharded picture."""

import json

from repro.pipeline.sources import ShardView, shard_for_peer
from repro.serve import ShardSet, SnapshotHub
from tests.pipeline.conftest import small_source
from tests.serve.conftest import serve_config


def run_sharded(shards: int) -> ShardSet:
    shard_set = ShardSet(small_source(), serve_config(), shards=shards)
    for event in small_source().events():
        shard_set.offer(event)
    shard_set.finish()
    return shard_set


class TestShardView:
    def test_views_partition_the_stream_by_peer(self):
        parent = small_source()
        total = sum(1 for _ in parent.events())
        counts = []
        for k in range(3):
            events = list(ShardView(parent, k, 3).events())
            assert all(event.peer % 3 == k for event in events)
            counts.append(len(events))
        assert sum(counts) == total
        assert all(counts)  # every shard sees traffic

    def test_offsets_are_shard_local(self):
        view = ShardView(small_source(), 1, 2)
        events = list(view.events())
        assert list(view.events(5)) == events[5:]

    def test_shard_for_peer(self):
        assert shard_for_peer(7, 3) == 1
        assert [shard_for_peer(p, 2) for p in range(4)] == [0, 1, 0, 1]


class TestBitIdentity:
    def test_sharded_pictures_match_the_unsharded_run(self):
        """The acceptance bar: merged output byte-equals one shard's."""
        bodies = []
        for shards in (1, 2, 3):
            shard_set = run_sharded(shards)
            bodies.append(SnapshotHub(shard_set).render().body)
            shard_set.close()
        assert bodies[0] == bodies[1] == bodies[2]

    def test_merged_graph_refcounts_sum_across_shards(self):
        single = run_sharded(1)
        double = run_sharded(2)
        expected = {
            edge: dict(store)
            for edge, store in single.merged_graph().raw_edges()
        }
        merged = {
            edge: dict(store)
            for edge, store in double.merged_graph().raw_edges()
        }
        assert merged == expected
        single.close()
        double.close()


class TestIncidentRows:
    def test_rows_are_shard_tagged_and_ordered(self):
        shard_set = run_sharded(2)
        rows = shard_set.incident_rows()
        assert rows
        assert {row["shard"] for row in rows} <= {0, 1}
        keys = [(row["shard"], row["id"]) for row in rows]
        assert keys == sorted(keys)
        first = rows[0]
        snapshot = SnapshotHub(shard_set).incidents()
        fetched = snapshot.row_json(first["id"], first["shard"])
        assert json.loads(fetched) == first
        assert snapshot.row_json(10**9) is None
        shard_set.close()
