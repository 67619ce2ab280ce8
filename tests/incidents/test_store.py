"""IncidentStore tests: sync atomicity, retention, crash recovery.

The chaos tests exercise the consistency model for real: one kills a
writer holding an open transaction (sqlite must roll back to the last
committed snapshot), the other hard-kills a live monitor process with
``os._exit`` and verifies the resume path reconciles the store to the
uninterrupted run's exact contents.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.incidents import (
    INCIDENT_DB,
    IncidentManager,
    IncidentPolicy,
    IncidentStore,
    IncidentStoreError,
)
from tests.incidents.conftest import make_component, make_report

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env


def evolved_manager() -> IncidentManager:
    m = IncidentManager(policy=IncidentPolicy(resolve_after=300.0))
    m.ingest(
        make_report(
            0, 120.0,
            [
                make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
            ],
        )
    )
    m.ingest(make_report(1, 180.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
    m.ingest(make_report(6, 480.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
    return m


class TestRoundTrip:
    def test_sync_then_rows_is_lossless(self, tmp_path):
        manager = evolved_manager()
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(manager, reports_applied=3)
            stored = [r.to_dict() for r in store.rows()]
            live = [r.to_dict() for r in manager.all_incidents()]
            assert stored == live
            assert store.reports_applied() == 3
            assert store.count() == 2

    def test_sync_replaces_not_appends(self, tmp_path):
        manager = evolved_manager()
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(manager, reports_applied=3)
            shrunk = IncidentManager(policy=manager.policy)
            store.sync(shrunk, reports_applied=0)
            assert store.count() == 0
            assert store.reports_applied() == 0

    def test_row_lookup_and_status_counts(self, tmp_path):
        manager = evolved_manager()
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(manager, reports_applied=3)
            record = store.row(1)
            assert record is not None
            assert record.stem == ("65001", "65002")
            assert store.row(99) is None
            counts = store.counts_by_status()
            assert sum(counts.values()) == 2
            assert counts.get("resolved", 0) == 1

    def test_reopened_history_survives_the_store(self, tmp_path):
        m = IncidentManager(
            policy=IncidentPolicy(resolve_after=300.0, reopen_window=900.0)
        )
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        m.ingest(make_report(6, 480.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))]))
        m.ingest(make_report(9, 1080.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(m, reports_applied=3)
            record = store.row(1)
            assert record.reopen_count == 1
            edges = [
                (t.from_status, t.to_status) for t in record.transitions
            ]
            assert ("resolved", "open") in edges


class TestCompaction:
    def test_compact_drops_oldest_resolved_first(self, tmp_path):
        m = IncidentManager(
            policy=IncidentPolicy(resolve_after=100.0)
        )
        m.ingest(make_report(0, 100.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        m.ingest(make_report(2, 300.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))]))
        m.ingest(make_report(4, 500.0, [make_component(1, 65005, 65006, prefixes=("10.2.0.0/24",))]))
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(m, reports_applied=3)
            # 1 and 2 resolved (at 300 and 500), 3 still live.
            removed = store.compact(keep_resolved=1)
            assert removed == 1
            kept = {r.incident_id for r in store.rows()}
            assert kept == {2, 3}

    def test_compact_never_touches_live_incidents(self, tmp_path):
        manager = evolved_manager()
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(manager, reports_applied=3)
            removed = store.compact(keep_resolved=0)
            assert removed == 1  # only incident 2 had resolved
            assert [r.incident_id for r in store.rows()] == [1]
            assert not store.rows()[0].resolved

    def test_compact_on_an_empty_store_is_a_no_op(self, tmp_path):
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            assert store.compact() == 0


class TestExport:
    def test_jsonl_export_matches_the_legacy_shape(self, tmp_path):
        manager = evolved_manager()
        out = tmp_path / "incidents.jsonl"
        with IncidentStore(tmp_path / INCIDENT_DB) as store:
            store.sync(manager, reports_applied=3)
            written = store.export_jsonl(out)
        assert written == 2
        lines = out.read_text(encoding="utf-8").splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["id"] for p in payloads] == [1, 2]
        # Deterministic serialization: keys sorted, stable reruns.
        assert lines[0] == json.dumps(payloads[0], sort_keys=True)


class TestSchemaDiscipline:
    def test_foreign_schema_generation_is_refused(self, tmp_path):
        path = tmp_path / INCIDENT_DB
        IncidentStore(path).close()
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999'"
                " WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(IncidentStoreError, match="schema v999"):
            IncidentStore(path)

    def test_reopening_a_valid_store_is_fine(self, tmp_path):
        path = tmp_path / INCIDENT_DB
        manager = evolved_manager()
        with IncidentStore(path) as store:
            store.sync(manager, reports_applied=3)
        with IncidentStore(path) as store:
            assert store.count() == 2


def repro_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def set_schema_version(path: Path, version: str) -> None:
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (version,),
        )
    conn.close()


class TestUnusableStoreAtTheCli:
    """A store the CLI cannot use is one ``error:`` line and exit 1."""

    MONITOR = (
        "monitor", "--synthetic", "800", "--synthetic-timerange", "600",
        "--window", "120", "--slide", "60", "--batch-size", "64",
    )

    @staticmethod
    def assert_refused(proc: subprocess.CompletedProcess) -> None:
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_list_on_another_schema_generation(self, tmp_path):
        path = tmp_path / INCIDENT_DB
        IncidentStore(path).close()
        set_schema_version(path, "999")
        proc = repro_cli("incidents", "list", str(path))
        self.assert_refused(proc)
        assert "schema v999" in proc.stderr
        assert "delete it" in proc.stderr

    def test_list_on_a_file_that_is_not_a_database(self, tmp_path):
        path = tmp_path / INCIDENT_DB
        path.write_text("not a database\n" * 100, encoding="utf-8")
        proc = repro_cli("incidents", "list", str(path))
        self.assert_refused(proc)
        assert str(path) in proc.stderr

    def test_resume_over_another_schema_generation(self, tmp_path):
        directory = tmp_path / "ckpt"
        first = repro_cli(
            *self.MONITOR, "--max-events", "400",
            "--checkpoint-dir", str(directory),
        )
        assert first.returncode == 0, first.stderr
        set_schema_version(directory / INCIDENT_DB, "999")
        proc = repro_cli(
            *self.MONITOR, "--checkpoint-dir", str(directory), "--resume"
        )
        self.assert_refused(proc)
        assert "schema v999" in proc.stderr


class TestChaosRecovery:
    def test_killed_mid_transaction_rolls_back_to_last_sync(self, tmp_path):
        """A writer dying inside an open transaction loses only that txn."""
        path = tmp_path / INCIDENT_DB
        manager = evolved_manager()
        with IncidentStore(path) as store:
            store.sync(manager, reports_applied=3)
            committed = [r.to_dict() for r in store.rows()]

        # A separate process opens a write transaction that guts the
        # table, then dies via os._exit before COMMIT — the harshest
        # exit sqlite can see short of kill -9.
        script = (
            "import os, sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1])\n"
            "cur = conn.cursor()\n"
            "cur.execute('BEGIN IMMEDIATE')\n"
            "cur.execute('DELETE FROM incidents')\n"
            "cur.execute(\"UPDATE meta SET value = '999'"
            " WHERE key = 'reports_applied'\")\n"
            "assert cur.execute("
            "'SELECT COUNT(*) FROM incidents').fetchone()[0] == 0\n"
            "os._exit(9)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 9, proc.stderr

        with IncidentStore(path) as store:
            assert [r.to_dict() for r in store.rows()] == committed
            assert store.reports_applied() == 3
            # And the store is still writable after the crash.
            store.sync(manager, reports_applied=4)
            assert store.reports_applied() == 4

    def test_hard_killed_monitor_reconciles_on_resume(self, tmp_path):
        """``os._exit`` mid-run, then resume: store matches uninterrupted.

        Harsher than the in-process InjectedCrash tests: the process
        dies without unwinding, so no finally-block closes the sqlite
        connection and the WAL sidecar files are left as-is.
        """
        from repro.pipeline import MonitorConfig, run_monitor
        from tests.pipeline.conftest import small_source

        config = MonitorConfig(
            window=120.0, slide=60.0, batch_size=64, checkpoint_every=1
        )

        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        run_monitor(small_source(), config, checkpoint_dir=clean_dir)
        with IncidentStore(clean_dir / INCIDENT_DB) as store:
            expected = [r.to_dict() for r in store.rows()]
        assert expected  # the synthetic feed must produce incidents

        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from repro.pipeline import ("
            "MonitorConfig, SyntheticSource, run_monitor)\n"
            "seen = 0\n"
            "def kill_hard(report):\n"
            "    global seen\n"
            "    seen += 1\n"
            "    if seen == 5:\n"
            "        os._exit(7)\n"
            "run_monitor(\n"
            "    SyntheticSource(1600, 600.0, seed=7, n_routes=400),\n"
            "    MonitorConfig(window=120.0, slide=60.0, batch_size=64,"
            " checkpoint_every=1),\n"
            "    checkpoint_dir=Path(sys.argv[1]),\n"
            "    on_report=kill_hard,\n"
            ")\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(crash_dir)],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 7, proc.stderr

        run_monitor(
            small_source(), config, checkpoint_dir=crash_dir, resume=True
        )
        with IncidentStore(crash_dir / INCIDENT_DB) as store:
            recovered = [r.to_dict() for r in store.rows()]
            applied = store.reports_applied()
        assert recovered == expected
        with IncidentStore(clean_dir / INCIDENT_DB) as store:
            assert applied == store.reports_applied()
