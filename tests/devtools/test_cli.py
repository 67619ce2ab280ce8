"""``repro lint`` CLI tests: exit codes, formats, rule selection."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "mut001_ok.py")]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "mut001_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "MUT001" in out
        assert "4 finding(s)" in out

    def test_every_known_bad_fixture_gates(self):
        # DET001, INT001, INT002 and SRV001 are package-scoped and
        # can't fire on a bare fixture path, so the CLI gate is
        # asserted for every other rule's bad fixture.
        for fixture in sorted(FIXTURES.glob("*_bad.py")):
            if fixture.name.startswith(
                ("det001", "int001", "int002", "srv001")
            ):
                continue
            assert main(["lint", str(fixture)]) == 1, fixture.name

    def test_suppressed_fixture_exits_zero(self):
        assert main(["lint", str(FIXTURES / "mut001_suppressed.py")]) == 0

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_python_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text("{}")
        assert main(["lint", str(path)]) == 2
        assert "not a Python file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        # A selection that would filter every finding away must not
        # pass the gate: the bad fixture has four MUT001 findings.
        for selection, complaint in (
            ("NOPE1", "unknown rule"),
            ("", "empty rule selection"),
            (" , ", "empty rule selection"),
        ):
            code = main(
                ["lint", str(FIXTURES / "mut001_bad.py"),
                 "--rules", selection]
            )
            assert code == 2, repr(selection)
            assert complaint in capsys.readouterr().err

    def test_removed_rule_ids_are_unknown(self, capsys):
        src = Path(__file__).resolve().parents[2] / "src"
        for rule_id in ("INT003", "PIPE002", "TK001"):
            assert main(["lint", str(src), "--rules", rule_id]) == 2
            assert "unknown rule id" in capsys.readouterr().err

    def test_syntax_error_gates(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main(["lint", str(path)]) == 1


class TestFormats:
    def test_json_report_shape(self, capsys):
        assert main(
            ["lint", str(FIXTURES / "mut001_bad.py"), "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert payload["count"] == 4
        assert len(payload["findings"]) == 4
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "MUT001"

    def test_json_clean_report(self, capsys):
        assert main(
            ["lint", str(FIXTURES / "mut001_ok.py"), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []

    def test_output_file(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        code = main(
            ["lint", str(FIXTURES / "mut001_bad.py"),
             "--format", "json", "--output", str(report)]
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["count"] == 4
        assert str(report) in capsys.readouterr().out
        # An unwritable report path is a usage error, not "findings" —
        # even on a clean file.
        code = main(
            ["lint", str(FIXTURES / "mut001_ok.py"),
             "--output", str(tmp_path / "missing" / "lint.json")]
        )
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err


class TestRuleSelection:
    def test_rules_filter_narrows_findings(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "mut001_bad.py"),
             "--rules", "DET002,CACHE001"]
        )
        assert code == 0  # file has only MUT001 violations

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["CACHE001", "DET001", "DET002", "DET003",
                          "INC001", "INT001", "INT002", "MUT001",
                          "PIPE001", "SRV001"]


class TestDirectoryLint:
    def test_directory_is_walked_and_sorted(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "a.py").write_text("def g(y={}):\n    return y\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.index("a.py") < out.index("b.py")
        assert "2 finding(s)" in out
