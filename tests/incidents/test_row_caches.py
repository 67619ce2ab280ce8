"""The incident export and the sqlite sync reuse what did not change.

``IncidentManager.export_rows`` rebuilds and encodes only the rows of
records that changed, and ``IncidentStore.sync`` writes only the rows
that are new objects. Both must stay equal to the from-scratch result:
the export to ``[r.to_dict() for r in all_incidents()]`` and each of
its texts to the row's ``json.dumps``, the diff-synced table to a
fresh store's full sync and each stored row to the manager's text —
after every checkpoint, over report sequences
cut from the scenario catalog's streams, through reopens, prefix
merges, evictions, ``finalize``, a store reopened mid-run and a
``compact`` from this connection or another.
"""

import io
import json
import sqlite3
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.incidents.manager as manager_module
from repro.incidents import IncidentManager, IncidentPolicy, IncidentStore
from repro.pipeline.runtime import Batch
from repro.pipeline.windows import WindowedStemmer, WindowReport
from repro.scenarios import generate
from tests.incidents.conftest import make_component, make_report

#: Small catalog members; route-leak and valley-route-leak merge a
#: second stem into their incident by prefix overlap.
SCENARIOS = (
    "route-leak",
    "valley-route-leak",
    "community-signal",
    "burst-announcements",
)

GEOMETRIES = ((30.0, 15.0), (60.0, 30.0), (60.0, 60.0), (120.0, 40.0))


@lru_cache(maxsize=None)
def scenario_reports(
    name: str, window: float, slide: float
) -> tuple[WindowReport, ...]:
    events = tuple(generate(name, seed=0).stream)
    stage = WindowedStemmer(window, slide)
    outputs = [
        *(stage.process(Batch(events, 0, len(events))) or ()),
        *(stage.flush() or ()),
    ]
    return tuple(item for item in outputs if isinstance(item, WindowReport))


def timeline(
    segments: list[tuple[str, float]], window: float, slide: float
) -> list[WindowReport]:
    """Each segment's scenario reports, laid end to end *gap* seconds
    after the previous segment: a scenario that comes back recurs on
    the same stems, which reopens (or, past the reopen window,
    re-creates) its incident."""
    reports: list[WindowReport] = []
    clock = 0.0
    for name, gap in segments:
        run = scenario_reports(name, window, slide)
        if not run:
            continue
        shift = clock + gap - run[0].start
        for report in run:
            reports.append(
                replace(
                    report,
                    index=len(reports),
                    start=report.start + shift,
                    end=report.end + shift,
                )
            )
        clock = reports[-1].end
    return reports


def table(path: Path) -> tuple[list[tuple], list[tuple]]:
    """The incident rows and meta rows exactly as sqlite holds them."""
    conn = sqlite3.connect(str(path))
    try:
        return (
            conn.execute("SELECT * FROM incidents ORDER BY id").fetchall(),
            conn.execute("SELECT * FROM meta ORDER BY key").fetchall(),
        )
    finally:
        conn.close()


policies = st.builds(
    IncidentPolicy,
    resolve_after=st.sampled_from((30.0, 120.0, 600.0)),
    correlation_window=st.sampled_from((60.0, 600.0)),
    reopen_window=st.sampled_from((0.0, 300.0, 1e12)),
    investigate_after=st.sampled_from((1, 2, 3)),
    prefix_overlap=st.sampled_from((0.05, 0.5, 1.0)),
    max_resolved=st.sampled_from((None, 0, 2)),
)

#: What happens to the store at a checkpoint, before its sync.
STORE_STEPS = ("keep", "keep", "reopen", "compact", "external-compact")


def assert_texts_fresh(manager: IncidentManager) -> None:
    """Each exported row's held text is what ``json.dumps`` writes."""
    rows = manager.export_rows()
    assert rows.texts == [json.dumps(row, sort_keys=True) for row in rows]


def assert_stored_texts(
    store: IncidentStore, path: Path, manager: IncidentManager
) -> None:
    """Each stored ``row`` is the manager's text for its id, and the
    export writes those texts."""
    rows = manager.export_rows()
    conn = sqlite3.connect(str(path))
    try:
        stored = conn.execute(
            "SELECT id, row FROM incidents ORDER BY id"
        ).fetchall()
    finally:
        conn.close()
    assert stored == [(row["id"], text) for row, text in zip(rows, rows.texts)]
    out = io.StringIO()
    assert store.write_jsonl(out) == len(rows)
    assert out.getvalue().splitlines() == rows.texts


class TestCachesEqualAFreshExport:
    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(SCENARIOS),
                st.sampled_from((0.0, 200.0, 2000.0)),
            ),
            min_size=1,
            max_size=6,
        ),
        geometry=st.sampled_from(GEOMETRIES),
        policy=policies,
        checkpoint_every=st.integers(1, 3),
        steps=st.lists(st.sampled_from(STORE_STEPS), max_size=40),
        finish=st.booleans(),
    )
    # Pinned: community-signal's windows age the valley leak's incident
    # (and its prefix-merged second stem) to resolved, and the leak's
    # return reopens it, with every store step along the way.
    @example(
        segments=[
            ("valley-route-leak", 0.0),
            ("community-signal", 200.0),
            ("valley-route-leak", 200.0),
        ],
        geometry=(30.0, 15.0),
        policy=IncidentPolicy(
            resolve_after=30.0, reopen_window=1e12, prefix_overlap=0.05
        ),
        checkpoint_every=1,
        steps=["keep", "compact", "keep", "external-compact", "reopen"] * 4,
        finish=True,
    )
    def test_after_every_checkpoint(
        self, segments, geometry, policy, checkpoint_every, steps, finish
    ):
        reports = timeline(segments, *geometry)
        manager = IncidentManager(policy=policy)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            path = directory / "live.sqlite"
            store = IncidentStore(path)
            checkpoints = 0

            def checkpoint(applied: int) -> None:
                nonlocal store, checkpoints
                step = (
                    steps[checkpoints] if checkpoints < len(steps) else "keep"
                )
                if step == "reopen":
                    store.close()
                    store = IncidentStore(path)
                elif step == "compact":
                    store.compact()
                elif step == "external-compact":
                    with IncidentStore(path) as other:
                        other.compact()
                state = manager.export_state()
                assert state["incidents"] == [
                    record.to_dict() for record in manager.all_incidents()
                ]
                store.sync(manager, applied)
                assert_stored_texts(store, path, manager)
                fresh_path = directory / f"fresh-{checkpoints}.sqlite"
                with IncidentStore(fresh_path) as fresh:
                    fresh.sync(manager, applied)
                assert table(path) == table(fresh_path)
                checkpoints += 1

            try:
                checkpoint(0)
                for count, report in enumerate(reports, start=1):
                    manager.ingest(report)
                    assert_texts_fresh(manager)
                    if count % checkpoint_every == 0:
                        checkpoint(count)
                if finish:
                    manager.finalize()
                    assert_texts_fresh(manager)
                    checkpoint(len(reports))
            finally:
                store.close()


def evolving_reports() -> list[WindowReport]:
    """Two stems, a quiet spell that resolves both, then one recurs."""
    pair = ("10.0.0.0/24", "10.0.1.0/24")
    first = make_component(1, 65001, 65002, prefixes=pair)
    second = make_component(2, 65003, 65004, prefixes=pair)
    return [
        make_report(0, 120.0, [first]),
        make_report(1, 180.0, [first, second]),
        make_report(2, 900.0, []),
        make_report(3, 960.0, [first]),
    ]


class TestReuse:
    """The caches are used: an unchanged incident costs nothing."""

    def test_unchanged_rows_are_the_same_objects(self):
        manager = IncidentManager(policy=IncidentPolicy(resolve_after=300.0))
        reports = evolving_reports()
        manager.ingest(reports[0])
        first = manager.export_rows()
        assert manager.export_rows() == first
        assert all(a is b for a, b in zip(manager.export_rows(), first))
        manager.ingest(make_report(1, 180.0, []))
        # Nothing was observed: the incident did not change.
        assert manager.export_rows()[0] is first[0]
        manager.ingest(reports[3])
        assert manager.export_rows()[0] is not first[0]

    def test_only_a_changed_row_is_encoded_again(self, monkeypatch):
        encoded = []

        def counting_dumps(row):
            encoded.append(row["id"])
            return json.dumps(row, sort_keys=True)

        monkeypatch.setattr(manager_module, "dumps", counting_dumps)
        manager = IncidentManager(policy=IncidentPolicy(resolve_after=300.0))
        reports = evolving_reports()
        manager.ingest(reports[0])
        first = manager.export_rows()
        assert encoded == [1]
        assert manager.export_rows().texts[0] is first.texts[0]
        manager.ingest(make_report(1, 180.0, []))
        # Nothing was observed: the row keeps its text object.
        assert manager.export_rows().texts[0] is first.texts[0]
        assert encoded == [1]
        manager.ingest(reports[3])
        changed = manager.export_rows()
        assert encoded == [1, 1]
        assert changed.texts[0] is not first.texts[0]
        assert changed.texts == [json.dumps(changed[0], sort_keys=True)]

    def test_prefix_merge_and_eviction(self):
        manager = IncidentManager(
            policy=IncidentPolicy(resolve_after=300.0, max_resolved=0)
        )
        for report in evolving_reports():
            manager.ingest(report)
            assert manager.export_rows() == [
                record.to_dict() for record in manager.all_incidents()
            ]
        # The second stem merged into the first incident, both resolved
        # in the quiet spell (and max_resolved=0 evicted them), and the
        # recurrence opened a new one.
        assert [row["id"] for row in manager.export_rows()] == [2]
        # No row of an evicted incident is held on to.
        assert list(manager._rows) == [2]

    def test_a_sync_with_nothing_changed_writes_only_meta(self, tmp_path):
        manager = IncidentManager(policy=IncidentPolicy(resolve_after=300.0))
        for report in evolving_reports()[:2]:
            manager.ingest(report)
        with IncidentStore(tmp_path / "s.sqlite") as store:
            store.sync(manager, 2)
            before = store._conn.total_changes
            store.sync(manager, 2)
            assert store._conn.total_changes - before == 1

    def test_a_sync_after_compact_puts_the_rows_back(self, tmp_path):
        manager = IncidentManager(policy=IncidentPolicy(resolve_after=60.0))
        for report in evolving_reports()[:3]:
            manager.ingest(report)
        path = tmp_path / "s.sqlite"
        with IncidentStore(path) as store:
            store.sync(manager, 3)
            expected = table(path)
            assert store.compact() == 1
            store.sync(manager, 3)
            assert table(path) == expected
            assert_stored_texts(store, path, manager)

    def test_another_connections_write_forces_a_full_replace(self, tmp_path):
        manager = IncidentManager(policy=IncidentPolicy(resolve_after=60.0))
        for report in evolving_reports()[:3]:
            manager.ingest(report)
        path = tmp_path / "s.sqlite"
        with IncidentStore(path) as store:
            store.sync(manager, 3)
            expected = table(path)
            conn = sqlite3.connect(str(path))
            with conn:
                conn.execute("DELETE FROM incidents")
            conn.close()
            store.sync(manager, 3)
            assert table(path) == expected
            assert_stored_texts(store, path, manager)
