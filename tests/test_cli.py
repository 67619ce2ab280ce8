"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.collector.stream import EventStream
from tests.stemming.test_stemmer import mk_event, spike


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "events.jsonl"
    EventStream(spike("100 200 300", 20)).save(path)
    return path


class TestDiagnose:
    def test_diagnose_prints_report(self, stream_file, capsys):
        assert main(["diagnose", str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "headline:" in out
        assert "AS200--AS300" in out

    def test_component_limit_forwarded(self, stream_file, capsys):
        assert main(["diagnose", str(stream_file), "--components", "1"]) == 0
        out = capsys.readouterr().out
        assert "components" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRender:
    def test_ascii_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "announce.jsonl"
        from repro.collector.events import EventKind

        events = [
            mk_event(float(i), "1.1.1.1", "2.2.2.2", "100 200",
                     f"10.0.{i}.0/24", EventKind.ANNOUNCE)
            for i in range(10)
        ]
        EventStream(events).save(path)
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "AS100 -> AS200" in out

    def test_svg_output(self, tmp_path, capsys):
        path = tmp_path / "announce.jsonl"
        from repro.collector.events import EventKind

        events = [
            mk_event(float(i), "1.1.1.1", "2.2.2.2", "100 200",
                     f"10.0.{i}.0/24", EventKind.ANNOUNCE)
            for i in range(10)
        ]
        EventStream(events).save(path)
        out_svg = tmp_path / "picture.svg"
        assert main(["render", str(path), "-o", str(out_svg)]) == 0
        assert out_svg.exists()
        assert "<svg" in out_svg.read_text()


class TestNoWorkerKnob:
    """One way to draw: no flag or environment variable picks a path."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "{events}", "--workers", "2"],
            ["animate", "{events}", "-o", "{out}", "--workers", "2"],
        ],
        ids=["render", "animate"],
    )
    def test_workers_flag_is_a_usage_error(
        self, argv, stream_file, tmp_path, capsys
    ):
        out = tmp_path / "out.svg"
        argv = [a.format(events=stream_file, out=out) for a in argv]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_environment_is_not_read(
        self, stream_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert main(["render", str(stream_file)]) == 0
        assert capsys.readouterr().err == ""


class TestProfile:
    def test_render_profile_writes_stats_and_summary(
        self, tmp_path, capsys
    ):
        import pstats

        path = tmp_path / "announce.jsonl"
        from repro.collector.events import EventKind

        events = [
            mk_event(float(i), "1.1.1.1", "2.2.2.2", "100 200",
                     f"10.0.{i}.0/24", EventKind.ANNOUNCE)
            for i in range(10)
        ]
        EventStream(events).save(path)
        prof = tmp_path / "render.prof"
        assert main(["render", str(path), "--profile", str(prof)]) == 0
        captured = capsys.readouterr()
        assert "AS100 -> AS200" in captured.out
        assert str(prof) in captured.err
        # The binary pstats load, and the text summary is the top-25
        # cumulative table.
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0
        summary = (tmp_path / "render.prof.txt").read_text()
        assert "cumulative" in summary

    def test_profile_preserves_failure_exit_code(self, tmp_path, capsys):
        prof = tmp_path / "fail.prof"
        code = main(
            ["diagnose", str(tmp_path / "nope.jsonl"),
             "--profile", str(prof)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # The profile is still written for the failing run.
        assert prof.exists()
        assert (tmp_path / "fail.prof.txt").exists()

    def test_demo_accepts_profile(self, tmp_path, capsys):
        prof = tmp_path / "demo.prof"
        assert main(
            ["demo", "backdoor", "--prefixes", "150",
             "--profile", str(prof)]
        ) == 0
        assert prof.exists()

    def test_animate_accepts_profile(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        EventStream(spike("100 200", 10)).save(path)
        out = tmp_path / "anim.svg"
        prof = tmp_path / "animate.prof"
        assert main(
            ["animate", str(path), "-o", str(out), "--duration", "1",
             "--fps", "5", "--profile", str(prof)]
        ) == 0
        assert out.exists()
        assert prof.exists()
        assert (tmp_path / "animate.prof.txt").exists()

    def test_monitor_accepts_profile(self, tmp_path, capsys):
        prof = tmp_path / "monitor.prof"
        assert main(
            ["monitor", "--synthetic", "200", "--window", "600",
             "--profile", str(prof)]
        ) == 0
        assert "window(s)" in capsys.readouterr().out
        assert prof.exists()
        assert (tmp_path / "monitor.prof.txt").exists()


class TestRate:
    def test_rate_plot(self, stream_file, capsys):
        assert main(["rate", str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "peak" in out
        assert "grass level" in out

    def test_empty_stream(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        EventStream().save(path)
        assert main(["rate", str(path)]) == 0
        assert "empty stream" in capsys.readouterr().out


class TestAnimate:
    def test_animate_writes_smil_svg(self, tmp_path, capsys):
        from repro.collector.events import BGPEvent, EventKind

        events = []
        for i, e in enumerate(spike("100 200", 10)):
            events.append(
                BGPEvent(e.timestamp, EventKind.ANNOUNCE, e.peer, e.prefix,
                         e.attributes)
            )
            events.append(
                BGPEvent(e.timestamp + 50.0, EventKind.WITHDRAW, e.peer,
                         e.prefix, e.attributes)
            )
        path = tmp_path / "events.jsonl"
        EventStream(events).save(path)
        out = tmp_path / "anim.svg"
        assert main(
            ["animate", str(path), "-o", str(out), "--duration", "2",
             "--fps", "5"]
        ) == 0
        text = out.read_text()
        assert "<animate" in text
        assert "10 frames" in capsys.readouterr().out


class TestMrtInput:
    def test_diagnose_mrt_file(self, tmp_path, capsys):
        """RouteViews-style MRT updates feed the same pipeline."""
        from repro.mrt.loader import dump_updates

        events = spike("100 200 300", 15)
        # An MRT archive carries announcements; make the spike one.
        from repro.collector.events import BGPEvent, EventKind

        announce = [
            BGPEvent(e.timestamp, EventKind.ANNOUNCE, e.peer, e.prefix,
                     e.attributes)
            for e in events
        ]
        path = tmp_path / "updates.mrt"
        dump_updates(announce, path)
        assert main(["diagnose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "headline:" in out

    def test_render_mrt_file(self, tmp_path, capsys):
        from repro.collector.events import BGPEvent, EventKind
        from repro.mrt.loader import dump_updates

        announce = [
            BGPEvent(e.timestamp, EventKind.ANNOUNCE, e.peer, e.prefix,
                     e.attributes)
            for e in spike("100 200", 10)
        ]
        path = tmp_path / "updates.mrt"
        dump_updates(announce, path)
        assert main(["render", str(path)]) == 0
        assert "AS100 -> AS200" in capsys.readouterr().out


class TestDemo:
    def test_demo_med_oscillation(self, capsys, tmp_path):
        save = tmp_path / "osc.jsonl"
        assert main(
            ["demo", "med-oscillation", "--save", str(save)]
        ) == 0
        out = capsys.readouterr().out
        assert "med-oscillation" in out
        assert "headline:" in out
        assert save.exists()
        restored = EventStream.load(save)
        assert len(restored) > 0

    def test_demo_backdoor_small(self, capsys):
        assert main(["demo", "backdoor", "--prefixes", "150"]) == 0
        out = capsys.readouterr().out
        assert "backdoor" in out
