"""CLI surface tests for ``repro monitor``."""

import dataclasses
import json
import shutil
import socket
import threading
import time

import pytest

from repro.cli import _monitor_config, build_parser, main
from repro.collector.stream import EventStream
from repro.incidents.feed import load_incident_rows
from repro.incidents.manager import IncidentPolicy
from repro.pipeline import CheckpointStore, MonitorConfig, SyntheticSource
from repro.serve.sharding import shard_dir
from tests.stemming.test_stemmer import spike

SYNTH = [
    "monitor", "--synthetic", "800",
    "--synthetic-timerange", "600",
    "--window", "120", "--slide", "60",
    "--batch-size", "64",
]


class TestSources:
    def test_synthetic_run_reports_windows(self, capsys):
        assert main(SYNTH) == 0
        out = capsys.readouterr().out
        assert "window 0 [" in out
        assert "monitor stopped (end): 800 events" in out

    def test_file_source(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        EventStream(spike("100 200 300", 40)).save(path)
        assert main(["monitor", str(path), "--window", "60"]) == 0
        out = capsys.readouterr().out
        assert "AS200--AS300" in out

    def test_exactly_one_source_required(self, capsys):
        assert main(["monitor"]) == 1
        assert "exactly one source" in capsys.readouterr().err
        assert main(["monitor", "x.jsonl", "--synthetic", "10"]) == 1

    def test_missing_file_is_an_error_not_a_traceback(self, tmp_path):
        assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 1



class TestMalformedTimestamps:
    """A non-finite or boolean ``"t"`` in a JSONL archive is an input
    error, reported with its file and line, never a silent detection
    change or a window closing at infinity."""

    @staticmethod
    def archive(tmp_path, t) -> str:
        path = tmp_path / "events.jsonl"
        EventStream(SyntheticSource(300, 600.0, seed=1).events()).save(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[150])
        record["t"] = t
        lines[150] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize(
        "t,shown",
        [(float("nan"), "nan"), (float("inf"), "inf"), (True, "True")],
    )
    def test_monitor_exits_1_naming_the_value(
        self, tmp_path, capsys, t, shown
    ):
        path = self.archive(tmp_path, t)
        code = main(["monitor", path, "--window", "120", "--slide", "60"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}:151:" in err
        assert f"got {shown}" in err

    def test_diagnose_exits_1(self, tmp_path, capsys):
        path = self.archive(tmp_path, float("nan"))
        assert main(["diagnose", path]) == 1
        err = capsys.readouterr().err
        assert f"{path}:151:" in err and "got nan" in err

    def test_the_clean_archive_still_runs(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        EventStream(SyntheticSource(300, 600.0, seed=1).events()).save(path)
        assert main(
            ["monitor", str(path), "--window", "120", "--slide", "60"]
        ) == 0


class TestCheckpointCycle:
    def test_kill_and_resume_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        baseline = tmp_path / "base"
        assert main(SYNTH + ["--checkpoint-dir", str(baseline)]) == 0
        base_log = CheckpointStore(baseline).read_reports()
        assert base_log

        # Hard-stop mid-stream, then resume.
        assert main(SYNTH + [
            "--checkpoint-dir", str(ckpt), "--max-events", "320",
        ]) == 0
        assert "monitor stopped (max_events)" in capsys.readouterr().out
        assert main(SYNTH + [
            "--checkpoint-dir", str(ckpt), "--resume",
        ]) == 0
        assert CheckpointStore(ckpt).read_reports() == base_log

    def test_resume_without_checkpoint_dir_fails(self, capsys):
        assert main(SYNTH + ["--resume"]) == 1
        assert "checkpoint directory" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_out_writes_a_snapshot(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(SYNTH + ["--metrics-out", str(out_path)]) == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["repro_pipeline_events_total"] == 800
        assert "repro_pipeline_window_lag_seconds" in snapshot
        assert "metrics snapshot written" in capsys.readouterr().out

    def test_metrics_port_serves_during_the_run(self):
        # A keep-alive client on a test thread scrapes while a paced run
        # (about two seconds) is alive, then stays connected and idle:
        # the run must still end, and hang up on it as it does.
        port = free_port()
        seen = {}

        def scrape():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    sock = socket.create_connection(("127.0.0.1", port))
                    break
                except OSError:
                    time.sleep(0.02)
            else:
                return
            with sock, sock.makefile("rb") as replies:
                sock.settimeout(30)
                sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
                status = replies.readline()
                length = 0
                for line in iter(replies.readline, b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                seen["status"] = status
                seen["body"] = replies.read(length).decode()
                seen["after"] = sock.recv(1)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            assert main(
                SYNTH + ["--pace", "300", "--metrics-port", str(port)]
            ) == 0
        finally:
            scraper.join()
        assert seen["status"].startswith(b"HTTP/1.1 200 ")
        assert "repro_pipeline_events_total" in seen["body"]
        assert seen["after"] == b""  # hung up on at the end of the run

    def test_the_metrics_mount_starts_no_thread(self, monkeypatch):
        import repro.pipeline as pipeline_pkg

        before = set(threading.enumerate())
        seen = []
        original = pipeline_pkg.monitor_loop

        def spying_loop(source, config, **kwargs):
            inner = kwargs["on_report"]

            def spy(report):
                seen.append(set(threading.enumerate()))
                inner(report)

            kwargs["on_report"] = spy
            return original(source, config, **kwargs)

        monkeypatch.setattr(pipeline_pkg, "monitor_loop", spying_loop)
        assert main(SYNTH + ["--metrics-port", "0"]) == 0
        assert seen
        assert all(threads == before for threads in seen)

    def test_a_taken_metrics_port_fails_the_run(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(SYNTH + ["--metrics-port", str(port)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "window 0 [" not in captured.out


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestValidation:
    @pytest.mark.parametrize("option", [
        ["--max-queue", "4"], ["--queue-policy", "drop"],
    ], ids=["max-queue", "queue-policy"])
    @pytest.mark.parametrize("command", ["monitor", "serve"])
    def test_queue_options_are_usage_errors(self, command, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command] + SYNTH[1:] + option)
        assert raised.value.code == 2
        assert option[0] in capsys.readouterr().err

    def test_bad_slide_is_an_error(self, capsys):
        code = main([
            "monitor", "--synthetic", "50", "--window", "60",
            "--slide", "120",
        ])
        assert code == 1
        assert "slide" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--checkpoint-every", "0"], ["--checkpoint-every", "-5"],
        ["--max-events", "0"], ["--max-events", "-1"],
        ["--batch-size", "0"],
    ], ids=["checkpoint-every-0", "checkpoint-every-neg", "max-events-0",
            "max-events-neg", "batch-size-0"])
    @pytest.mark.parametrize("command", ["monitor", "serve"])
    def test_non_positive_counts_are_errors(self, command, option, capsys):
        assert main([command] + SYNTH[1:] + option) == 1
        assert option[0] in capsys.readouterr().err


def left_behind(directory):
    """The durable outputs of a run: checkpoints, log, sqlite rows."""
    store = CheckpointStore(directory)
    return (
        {path.name: path.read_bytes() for path in store.checkpoints()},
        store.incident_log.read_bytes(),
        [record.to_dict() for record in load_incident_rows(directory)],
    )


class TestFailedStartKeepsTheDirectory:
    """A start whose source fails before its first event, or whose
    config is rejected, exits 1 and leaves an earlier run's checkpoints,
    incident log and sqlite rows as they were."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("finished") / "ck"
        assert main(SYNTH + ["--checkpoint-dir", str(directory)]) == 0
        checkpoints, log, rows = left_behind(directory)
        assert len(checkpoints) > 1 and log and rows
        return directory

    @pytest.mark.parametrize("start", [
        ["monitor", "no-such-file.jsonl"],
        ["monitor", "--synthetic", "1"],
        SYNTH + ["--batch-size", "0"],
    ], ids=["missing-file", "one-event", "batch-size-0"])
    def test_monitor(self, start, finished, tmp_path, capsys):
        directory = tmp_path / "ck"
        shutil.copytree(finished, directory)
        before = left_behind(finished)
        assert main(start + ["--checkpoint-dir", str(directory)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert left_behind(directory) == before

    @pytest.mark.parametrize("start", [
        ["serve", "no-such-file.jsonl"],
        ["serve"] + SYNTH[1:] + ["--batch-size", "0"],
    ], ids=["missing-file", "batch-size-0"])
    def test_serve(self, start, finished, tmp_path, capsys):
        root = tmp_path / "root"
        shutil.copytree(finished, shard_dir(root, 0))
        before = left_behind(finished)
        code = main(
            start + ["--checkpoint-dir", str(root), "--port", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err.count("error: ") == 1
        assert left_behind(shard_dir(root, 0)) == before


def stream_flags(command):
    """``(flag, action)`` for each *command* flag that sets a
    :class:`MonitorConfig` field."""
    names = {field.name for field in dataclasses.fields(MonitorConfig)}
    subcommands = build_parser()._subparsers._group_actions[0].choices
    return [
        (action.option_strings[0], action)
        for action in subcommands[command]._actions
        if action.dest in names
    ]


class TestOneDeclaration:
    """Each monitor default is declared once: on :class:`MonitorConfig`
    (the lifecycle ones on :class:`IncidentPolicy`)."""

    @pytest.mark.parametrize("command", ["monitor", "serve"])
    def test_parser_defaults_are_the_field_defaults(self, command):
        defaults = MonitorConfig()
        assert len(stream_flags(command)) == 11
        for flag, action in stream_flags(command):
            assert action.default == getattr(defaults, action.dest), flag

    @pytest.mark.parametrize("command", ["monitor", "serve"])
    def test_each_flag_sets_its_field(self, command):
        parser = build_parser()
        for flag, action in stream_flags(command):
            value = action.type("5")
            args = parser.parse_args([command, flag, "5"])
            config = _monitor_config(args)
            assert getattr(config, action.dest) == value, flag
            assert dataclasses.replace(
                config, **{action.dest: getattr(MonitorConfig(), action.dest)}
            ) == MonitorConfig(), flag

    def test_lifecycle_defaults_are_the_policy_defaults(self):
        assert MonitorConfig().incident_policy() == IncidentPolicy()
