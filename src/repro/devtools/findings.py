"""The analyzer's data model: rules and findings.

A :class:`Finding` is one violation at one source location. The field
order doubles as the sort order (path, then line, then column, then
rule), which is what makes reports — and therefore the CI artifact
diff — stable across runs; an analyzer that enforces
determinism had better produce deterministic output itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Rule:
    """One entry of the rule catalog (``repro lint --list-rules``)."""

    id: str
    summary: str


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location (1-based line)."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
