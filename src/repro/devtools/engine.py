"""Analysis driver: find files, parse each once, run checkers.

The engine is deliberately dumb: checkers do the thinking, the engine
guarantees the operational properties — file discovery and finding
order are sorted (identical reports on every run and machine), a file
that fails to parse becomes a ``SYNTAX`` finding instead of an
exception (so ``repro lint`` gates on it like any other violation),
and suppressions are applied here so no checker can forget them.

Every file is parsed once into a
:class:`~repro.devtools.project.ModuleInfo`; the import map, parent map
and suppression table are computed there exactly once and shared by
every checker. Every run analyzes every file it is given — there is no
cache and no scoping, so there is no second path to keep sound.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.devtools.findings import Finding
from repro.devtools.project import ModuleInfo
from repro.devtools.registry import ModuleContext, all_checkers, rule_ids

#: The rule id reported for unparseable files (not suppressible — a
#: syntax error swallows any comment that would have allowed it).
SYNTAX_RULE = "SYNTAX"


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files and directories to a sorted list of ``.py`` files.

    Raises :class:`FileNotFoundError` for a missing path and
    :class:`ValueError` for an existing non-Python file — both surface
    as usage errors (exit 2) in the CLI rather than silently linting
    nothing.
    """
    found: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.is_file():
            if path.suffix != ".py":
                raise ValueError(f"not a Python file: {path}")
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


def module_name_for(path: Path) -> str:
    """Dotted module name for *path*, anchored at the ``repro`` package.

    Paths outside the package (fixtures, scratch files) fall back to
    the bare stem, which keeps package-scoped rules (DET001) inert on
    them unless a test supplies a synthetic module name.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    elif parts:
        parts = parts[-1:]
    return ".".join(parts) if parts else "<unknown>"


def _syntax_finding(info: ModuleInfo) -> Finding:
    exc = info.syntax_error
    assert exc is not None
    return Finding(
        path=info.path,
        line=int(exc.lineno or 1),
        col=int(exc.offset or 0),
        rule=SYNTAX_RULE,
        message=f"file does not parse: {exc.msg}",
    )


def _module_findings(info: ModuleInfo) -> list[Finding]:
    """Run every per-module checker over one parsed module."""
    tree = info.tree
    if tree is None:
        return [_syntax_finding(info)]
    ctx = ModuleContext(
        path=info.path,
        module=info.module,
        source=info.source,
        tree=tree,
        info=info,
    )
    findings: list[Finding] = []
    for checker in all_checkers():
        findings.extend(checker.check(ctx))
    return findings


def _filter(
    info: ModuleInfo,
    findings: Iterable[Finding],
    rules: Optional[set[str]],
) -> list[Finding]:
    """Apply the rule filter and the file's suppressions."""
    kept: list[Finding] = []
    for finding in findings:
        if rules is not None and finding.rule not in rules:
            continue
        if finding.rule != SYNTAX_RULE and info.suppressions.is_allowed(
            finding.rule, finding.line
        ):
            continue
        kept.append(finding)
    return kept


def _analyze(
    infos: Sequence[ModuleInfo], rules: Optional[set[str]]
) -> list[Finding]:
    """Checkers → suppressions → sorted findings, for any file set.

    An unknown id (``--rules DET01``) or an empty selection
    (``--rules "$UNSET"``) is a :class:`ValueError`: either would
    filter every finding away and report a falsely clean tree.
    """
    if rules is not None:
        if not rules:
            raise ValueError("empty rule selection")
        unknown = rules - rule_ids() - {SYNTAX_RULE}
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
    findings: list[Finding] = []
    for info in infos:
        findings.extend(_filter(info, _module_findings(info), rules))
    return sorted(findings)


def analyze_paths(
    paths: Sequence[Path], rules: Optional[set[str]] = None
) -> list[Finding]:
    """Analyze files and directories; sorted findings.

    The one file entry point: ``repro lint`` and the tier-1 self-lint
    both call it, and every call analyzes every file it is given.
    Undecodable bytes become U+FFFD rather than an exception: the file
    then fails to parse (a ``SYNTAX`` finding) or lints as written.
    """
    return _analyze(
        [
            ModuleInfo(
                str(path),
                module_name_for(path),
                path.read_bytes().decode("utf-8", errors="replace"),
            )
            for path in iter_python_files(paths)
        ],
        rules,
    )


def analyze_source(
    source: str,
    *,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[set[str]] = None,
) -> list[Finding]:
    """Run every checker over one source string."""
    if module is None:
        module = module_name_for(Path(path))
    return _analyze([ModuleInfo(path, module, source)], rules)
