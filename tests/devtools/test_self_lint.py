"""Tier-1 self-lint: ``src/repro`` must satisfy its own analyzer.

This is the enforcement half of the PR 1 determinism claim: any commit
that introduces an unseeded entropy source, an unordered iteration
feeding ordered output, a stage reading a module global, a mutable
default, or a hookless ``TampGraph`` mutator fails the suite here —
with the same findings ``repro lint src`` would print — unless it
carries a justified ``# repro: allow[...]`` comment that a reviewer can
see and veto.
"""

from pathlib import Path

from repro.devtools import analyze_paths, render_text

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_exists():
    assert SRC_REPRO.is_dir(), SRC_REPRO


def test_source_tree_is_lint_clean():
    findings = analyze_paths([SRC_REPRO])
    assert findings == [], "\n" + render_text(findings)


def test_self_lint_covers_the_whole_package():
    # Guard against the self-lint silently analyzing a subset: the
    # package has dozens of modules and every package dir must appear.
    from repro.devtools import iter_python_files

    files = iter_python_files([SRC_REPRO])
    assert len(files) > 60
    packages = {f.parent.name for f in files}
    for expected in ("stemming", "tamp", "collector", "net", "perf",
                     "devtools", "rules"):
        assert expected in packages


def test_every_suppression_in_the_source_tree_is_live(monkeypatch):
    # An ``allow[...]`` that outlives its finding hides the next
    # violation on that line: each one must name a registered rule and
    # silence at least one finding the checkers still produce.
    from repro.devtools import iter_python_files
    from repro.devtools.registry import rule_ids
    from repro.devtools.suppress import Suppressions

    allowed = {
        (str(path), line, rule)
        for path in iter_python_files([SRC_REPRO])
        for line, rules in Suppressions.scan(
            path.read_text(encoding="utf-8")
        )._by_line.items()
        for rule in rules
    }
    assert allowed, "the scan found no suppression at all"
    registered = rule_ids()
    unknown = {entry for entry in allowed if entry[2] not in registered}
    assert not unknown, sorted(unknown)

    monkeypatch.setattr(Suppressions, "is_allowed", lambda *_: False)
    raw = {(f.path, f.line, f.rule) for f in analyze_paths([SRC_REPRO])}
    stale = allowed - raw
    assert not stale, sorted(stale)


def test_every_named_hot_function_exists():
    # INT001/INT002 watch functions by name: a rename (or a deletion)
    # would leave the list guarding nothing, silently.
    import ast

    from repro.devtools import iter_python_files
    from repro.devtools.rules import interning

    def defined_in(packages):
        return {
            node.name
            for package in packages
            for path in iter_python_files(
                [SRC_REPRO.joinpath(*package.split(".")[1:])]
            )
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    for names, packages in (
        (interning.HOT_FUNCTIONS, interning._PACKAGES),
        (interning.ID_HOT_FUNCTIONS, interning._ID_PACKAGES),
    ):
        missing = names - defined_in(packages)
        assert not missing, sorted(missing)
