"""Finding reporters: human text and machine JSON.

The JSON form is the CI artifact (uploaded per run); ``sort_keys`` plus
the engine's sorted findings make it byte-stable, so two CI runs over
the same tree produce identical artifacts — diffable evidence that a
change did or did not move the lint needle.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.devtools.findings import Finding

#: Bumped when the JSON shape changes, so artifact consumers can gate.
JSON_VERSION = 3


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a trailing summary line."""
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "version": JSON_VERSION,
        "count": len(findings),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

