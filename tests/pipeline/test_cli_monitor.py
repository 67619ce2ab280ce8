"""CLI surface tests for ``repro monitor``."""

import json
import re
import urllib.request

import pytest

from repro.cli import main
from repro.collector.stream import EventStream
from repro.pipeline import CheckpointStore
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

    def test_metrics_port_serves_during_the_run(self, capsys):
        # Port 0 binds an ephemeral port, printed to stderr; scrape it
        # from the report callback while the monitor is still alive.
        scraped = []

        import repro.pipeline as pipeline_pkg

        original = pipeline_pkg.run_monitor

        def scraping_run(source, config, **kwargs):
            inner = kwargs.get("on_report")

            def spy(report):
                if not scraped:
                    err = capsys.readouterr().err
                    match = re.search(
                        r"http://127\.0\.0\.1:(\d+)/metrics", err
                    )
                    assert match, err
                    with urllib.request.urlopen(match.group(0)) as resp:
                        scraped.append(resp.read().decode())
                if inner is not None:
                    inner(report)

            kwargs["on_report"] = spy
            return original(source, config, **kwargs)

        pipeline_pkg.run_monitor = scraping_run
        try:
            assert main(SYNTH + ["--metrics-port", "0"]) == 0
        finally:
            pipeline_pkg.run_monitor = original
        assert scraped
        assert "repro_pipeline_events_total" in scraped[0]


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
