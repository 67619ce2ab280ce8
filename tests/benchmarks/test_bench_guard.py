"""The CI bench-regression guard must flag real slowdowns and only those,
and a guarded row that a run did not write.

The guard compares appended ``BENCH_*.json`` row entries (freshest run
last) against a committed baseline, matched by row identity, filtered
by scale, with a noise floor for sub-jitter rows. These tests drive
:func:`benchmarks.bench_guard.compare` and the CLI exit codes directly
on synthetic entries — no benchmarks run here.
"""

import json

from benchmarks.bench_guard import compare, main, row_identity


def entry(routes, measured, scale=0.05, **extra):
    made = {
        "scale": scale,
        "workers": 1,
        "row": f"routes={routes} measured={measured}s",
        "routes": routes,
        "paper_seconds": 7.0,
        "measured_seconds": measured,
    }
    made.update(extra)
    return made


class TestCompare:
    def test_identical_runs_pass(self):
        entries = [entry(75_000, 1.0), entry(7_500, 0.2)]
        regressions, checked = compare(entries, entries)
        assert regressions == []
        assert len(checked) == 2

    def test_slowdown_beyond_tolerance_is_flagged(self):
        baseline = [entry(75_000, 1.0)]
        regressions, checked = compare([entry(75_000, 1.3)], baseline)
        assert len(regressions) == 1
        assert regressions[0]["ratio"] == 1.3
        # A slowdown inside the tolerance passes.
        regressions, _ = compare([entry(75_000, 1.2)], baseline)
        assert regressions == []
        # So does a speedup, however large.
        regressions, _ = compare([entry(75_000, 0.1)], baseline)
        assert regressions == []

    def test_noise_floor_skips_jitter_rows(self):
        baseline = [entry(100, 0.01)]
        regressions, checked = compare([entry(100, 0.04)], baseline)
        assert regressions == [] and checked == []

    def test_identity_ignores_measurements_not_parameters(self):
        base = entry(75_000, 1.0)
        fresh = entry(75_000, 1.0, workers=4)
        assert row_identity(base) == row_identity(fresh)
        # Fresh rows carry no worker tag; the committed baselines (all
        # tagged ``workers: 1``) must still match them.
        untagged = {k: v for k, v in base.items() if k != "workers"}
        assert row_identity(base) == row_identity(untagged)
        # Different row parameters never match each other.
        assert row_identity(base) != row_identity(entry(7_500, 1.0))

    def test_scale_filter_and_freshest_entry_win(self):
        # The fresh file carries an old full-scale row plus two smoke
        # runs of the same row; only the last smoke run counts.
        fresh = [
            entry(1_500_000, 20.0, scale=1.0),
            entry(75_000, 9.9),
            entry(75_000, 1.0),
        ]
        baseline = [entry(75_000, 1.0), entry(1_500_000, 1.0, scale=1.0)]
        regressions, checked = compare(fresh, baseline, scale=0.05)
        assert regressions == []
        assert len(checked) == 1
        assert checked[0]["fresh_seconds"] == 1.0


class TestCli:
    def write(self, path, entries):
        path.write_text(json.dumps(entries), encoding="utf-8")
        return str(path)

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        baseline = self.write(tmp_path / "base.json", [entry(75_000, 1.0)])
        fresh_ok = self.write(tmp_path / "ok.json", [entry(75_000, 1.1)])
        assert main([fresh_ok, baseline]) == 0
        assert "within tolerance" in capsys.readouterr().out
        fresh_bad = self.write(tmp_path / "bad.json", [entry(75_000, 2.0)])
        assert main([fresh_bad, baseline]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_no_overlap_is_an_error(self, tmp_path, capsys):
        baseline = self.write(tmp_path / "base.json", [entry(75_000, 1.0)])
        fresh = self.write(tmp_path / "fresh.json", [entry(7_500, 1.0)])
        assert main([fresh, baseline]) == 2
        assert "no comparable rows" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        baseline = self.write(tmp_path / "base.json", [entry(75_000, 1.0)])
        assert main([str(tmp_path / "nope.json"), baseline]) == 2
        assert "bench-guard error" in capsys.readouterr().err

    def test_unwritten_baseline_row_fails(self, tmp_path, capsys):
        # The fresh run wrote one of the two guarded rows: the other
        # must fail the guard, named, not drop out of the comparison.
        baseline = self.write(
            tmp_path / "base.json",
            [entry(75_000, 1.0), entry(7_500, 0.5), entry(100, 0.01)],
        )
        fresh = self.write(tmp_path / "fresh.json", [entry(75_000, 1.0)])
        assert main([fresh, baseline]) == 1
        out = capsys.readouterr().out
        assert "MISSING" in out and "routes=7500 " in out
        # A baseline row under the noise floor is not guarded, so its
        # absence is not a failure either.
        assert "routes=100 " not in out
        fresh = self.write(
            tmp_path / "fresh.json", [entry(75_000, 1.0), entry(7_500, 0.5)]
        )
        assert main([fresh, baseline]) == 0

    def test_custom_tolerance(self, tmp_path):
        baseline = self.write(tmp_path / "base.json", [entry(75_000, 1.0)])
        fresh = self.write(tmp_path / "fresh.json", [entry(75_000, 1.4)])
        assert main([fresh, baseline]) == 1
        assert main([fresh, baseline, "--tolerance", "0.5"]) == 0
